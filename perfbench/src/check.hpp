// The output check. Every item carries (producer, sequence). Each consumer
// keeps a Ledger: where the queue promises FIFO, the sequence numbers it
// receives from one producer (in one FIFO lane) must strictly increase, and
// it sums what it saw. After the final drain, failures() compares the union
// of all ledgers with what each producer sent: equal count, sum and sum of
// squares of sequence numbers means every item arrived exactly once.
#pragma once

#include <cstdint>
#include <vector>

#include "util.hpp"

namespace pb {

constexpr unsigned kSeqBits = 48;
constexpr u64 kSeqMask = (u64{1} << kSeqBits) - 1;

inline u64 make_item(unsigned producer, u64 seq) {
  return (u64{producer} << kSeqBits) | seq;
}
inline unsigned item_producer(u64 v) {
  return static_cast<unsigned>(v >> kSeqBits);
}
inline u64 item_seq(u64 v) { return v & kSeqMask; }

class Ledger {
 public:
  // `lanes` independent FIFO domains (ShardedQueue: one per shard); zero
  // lanes checks delivery only, for a queue that promises no order.
  explicit Ledger(unsigned producers = 0, unsigned lanes = 1)
      : producers_(producers),
        last_(static_cast<std::size_t>(producers) * lanes, kNone),
        count_(producers, 0),
        sum_(producers, 0),
        sumsq_(producers, 0) {}

  void take(u64 v, unsigned lane = 0) {
    const unsigned p = item_producer(v);
    const u64 s = item_seq(v);
    if (p >= producers_) {
      ++bad_;
      return;
    }
    if (!last_.empty()) {
      u64& last = last_[static_cast<std::size_t>(lane) * producers_ + p];
      if (last != kNone && s <= last) ++reordered_;
      last = s;
    }
    ++count_[p];
    sum_[p] += s;
    sumsq_[p] += s * s;
  }

  // Items lost, duplicated or reordered, given each producer's sent count
  // (producer p sent sequence numbers 0..sent[p]-1). Sums wrap mod 2^64 on
  // both sides alike.
  static u64 failures(const std::vector<Ledger>& ledgers,
                      const std::vector<u64>& sent) {
    const std::size_t np = sent.size();
    std::vector<u64> count(np, 0), sum(np, 0), sumsq(np, 0);
    u64 failed = 0;
    for (const Ledger& l : ledgers) {
      failed += l.reordered_ + l.bad_;
      for (std::size_t p = 0; p < np && p < l.count_.size(); ++p) {
        count[p] += l.count_[p];
        sum[p] += l.sum_[p];
        sumsq[p] += l.sumsq_[p];
      }
    }
    for (std::size_t p = 0; p < np; ++p) {
      const u64 n = sent[p];
      // Closed forms of sum(s) and sum(s^2) over 0..n-1, dividing before
      // multiplying so the products may wrap like the ledgers' sums do.
      u64 a = n == 0 ? 0 : n - 1, b = n, c = 2 * n == 0 ? 0 : 2 * n - 1;
      const u64 want_sum = b % 2 == 0 ? (b / 2) * a : b * (a / 2);
      (a % 2 == 0 ? a : b) /= 2;
      (a % 3 == 0 ? a : b % 3 == 0 ? b : c) /= 3;
      const u64 want_sq = a * b * c;
      if (count[p] != n) {
        failed += count[p] > n ? count[p] - n : n - count[p];
      } else if (sum[p] != want_sum || sumsq[p] != want_sq) {
        ++failed;  // as many duplicates as losses: at least one of each
      }
    }
    return failed;
  }

 private:
  static constexpr u64 kNone = ~u64{0};
  unsigned producers_;
  std::vector<u64> last_;
  std::vector<u64> count_, sum_, sumsq_;
  u64 reordered_ = 0;
  u64 bad_ = 0;
};

}  // namespace pb
