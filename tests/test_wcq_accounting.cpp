// Rank-accounting regression tests for the wCQ slow path.
//
// Every Head/Tail counter value ("rank") is handed out exactly once, so a
// correct execution must produce and consume each rank at most once, and a
// produced rank must eventually be consumed (no orphans). This harness taps
// WCQ's produce/consume sites to enforce those invariants globally — it is
// the test that caught the three pseudocode-level races documented in
// DESIGN.md §3 (⊥-at-own-cycle, exit-without-FIN, baseline re-processing),
// which manifested as produced-but-never-consumed ranks roughly once per
// 10^4 operations in these configurations.
//
// The tap is the compile-time WCQ_RANK_EVENT, enabled by defining
// WCQ_TEST_RANK_HOOK ahead of every include. It lives in core/scq.hpp, in the
// ring fast path (enq_at, consume) that BasicWCQ shares with SCQ, and in
// wCQ's slow-path produce. It must stay that way, and this must stay the
// only TU of its binary that includes core/scq.hpp (directly or through
// core/wcq.hpp): a second TU instantiating the ring without the hook would
// be an ODR violation whose untapped copy the linker may pick. The "hook saw
// every rank" assertions below fail rather than pass vacuously if the tap
// ever compiles out.
namespace wcq_test {
void rank_produced(unsigned long long rank);
void rank_consumed(unsigned long long rank);
}  // namespace wcq_test
#define WCQ_TEST_RANK_HOOK(kind, rank) ::wcq_test::rank_##kind(rank)

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "common/op_counters.hpp"
#include "core/wcq.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

constexpr u64 kMaxRank = 1u << 22;

struct RankLog {
  // bit 0: produced, bit 1: consumed; one cell per rank.
  std::unique_ptr<std::atomic<unsigned char>[]> bits{
      new std::atomic<unsigned char>[kMaxRank]};
  std::atomic<u64> produced{0};  // every event, in the window or not
  std::atomic<u64> consumed{0};
  std::atomic<u64> double_produce{0};
  std::atomic<u64> double_consume{0};

  RankLog() {
    for (u64 i = 0; i < kMaxRank; ++i) bits[i].store(0);
  }

  // bit: 1 = produced, 2 = consumed.
  void on_event(std::atomic<u64>& events, std::atomic<u64>& doubles,
                unsigned char bit, u64 rank) {
    events.fetch_add(1);
    if (rank >= kMaxRank) return;
    if (bits[rank].fetch_or(bit) & bit) doubles.fetch_add(1);
  }

  u64 orphaned() const {
    u64 n = 0;
    for (u64 r = 0; r < kMaxRank; ++r) {
      if (bits[r].load() == 1) ++n;  // produced, never consumed
    }
    return n;
  }
};

// The log the tap writes to; set only while a case runs its queue (thread
// creation and join order it against the workers).
RankLog* g_log = nullptr;

}  // namespace
}  // namespace wcq

void wcq_test::rank_produced(unsigned long long rank) {
  wcq::RankLog& l = *wcq::g_log;
  l.on_event(l.produced, l.double_produce, 1, rank);
}

void wcq_test::rank_consumed(unsigned long long rank) {
  wcq::RankLog& l = *wcq::g_log;
  l.on_event(l.consumed, l.double_consume, 2, rank);
}

namespace wcq {
namespace {

struct AccountingCase {
  unsigned order;
  unsigned producers;
  unsigned consumers;
  int patience;
  u64 items_per_producer;
};

std::ostream& operator<<(std::ostream& os, const AccountingCase& c) {
  return os << "order" << c.order << "_p" << c.producers << "c" << c.consumers
            << "_pat" << c.patience;
}

class WcqAccounting : public ::testing::TestWithParam<AccountingCase> {};

TEST_P(WcqAccounting, EveryProducedRankConsumedExactlyOnce) {
  const AccountingCase& c = GetParam();
  WCQ::Options o;
  o.order = c.order;
  o.enq_patience = c.patience;
  o.deq_patience = c.patience;
  o.help_delay = 1;
  WCQ q(o);
  RankLog log;
  g_log = &log;

  // Slow-path counters summed over the workers (each snapshots its own
  // thread-local table around its loop).
  std::mutex slow_mu;
  opcount::Counters slow{};
  auto tally = [&](const opcount::Counters& before) {
    const opcount::Counters d = opcount::snapshot() - before;
    std::lock_guard<std::mutex> lk(slow_mu);
    slow += d;
  };

  std::atomic<u64> consumed{0};
  std::atomic<i64> credits{static_cast<i64>(q.capacity())};
  // Scale down on small hosts only: the RankLog window (kMaxRank) was sized
  // for the seed counts, so never scale above them.
  const u64 items_per_producer =
      std::min(testing::scale_items(c.items_per_producer),
               c.items_per_producer);
  const u64 total = items_per_producer * c.producers;
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < c.producers; ++p) {
    ts.emplace_back([&, p] {
      const opcount::Counters before = opcount::snapshot();
      Backoff bo;
      for (u64 i = 0; i < items_per_producer; ++i) {
        while (credits.fetch_sub(1, std::memory_order_acquire) <= 0) {
          credits.fetch_add(1, std::memory_order_release);
          bo.pause();  // no credit: wait for a consumer to free one
        }
        bo.reset();
        q.enqueue(p % q.capacity());
      }
      tally(before);
    });
  }
  for (unsigned cc = 0; cc < c.consumers; ++cc) {
    ts.emplace_back([&] {
      const opcount::Counters before = opcount::snapshot();
      Backoff bo;
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (q.dequeue()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          credits.fetch_add(1, std::memory_order_release);
          bo.reset();
        } else {
          bo.pause();  // empty: wait for a producer
        }
      }
      tally(before);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(q.dequeue().has_value());
  g_log = nullptr;

  EXPECT_EQ(log.produced.load(), total) << "the rank tap missed produces";
  EXPECT_EQ(log.consumed.load(), total) << "the rank tap missed consumes";
  // Only an Enq=0 entry, which a slow enqueue produces exactly once per
  // request, is finalized when consumed: holds on every schedule.
  EXPECT_LE(slow.wcq_finalize, slow.wcq_enq_slow);

  EXPECT_EQ(log.double_produce.load(), 0u) << "a rank was produced twice";
  EXPECT_EQ(log.double_consume.load(), 0u) << "a rank was consumed twice";
  EXPECT_EQ(log.orphaned(), 0u)
      << "produced-but-never-consumed ranks: elements were lost";
  EXPECT_EQ(consumed.load(), total);
}

INSTANTIATE_TEST_SUITE_P(
    LossRegressions, WcqAccounting,
    ::testing::Values(
        // The configuration that exposed exit-without-FIN (deviation 4).
        AccountingCase{2, 3, 3, 1, 5000},
        // Asymmetric shapes that exposed ⊥-at-own-cycle (deviation 3).
        AccountingCase{8, 7, 1, 1, 6000}, AccountingCase{8, 1, 7, 1, 6000},
        // Mixed fast/slow traffic.
        AccountingCase{4, 4, 4, 4, 8000},
        // Paper-default patience: slow path rare but must stay exact.
        AccountingCase{8, 6, 6, 16, 10000}));

}  // namespace
}  // namespace wcq
