// sharded_pipeline — a two-stage data pipeline on the sharded front-end in
// pipeline mode (DESIGN.md §13): every shard is an MPSC ring with exactly
// one owning consumer, so the drain side runs on plain loads and release
// stores — zero F&As, zero threshold RMWs — while producers keep the full
// MPMC enqueue path (home-shard hash plus spill sweep on full).
//
// The usage shape this example is the reference for:
//
//   * `ShardedQueue<u64, MpscRing>` with `Options::mode = Mode::kPipeline`.
//   * Stage-1 workers take ordinary `acquire()` sessions and enqueue in
//     batches; backpressure is real (bulk reports partial success on full
//     and the producer retries the unsent tail).
//   * Stage-2 workers pin themselves with `pin_thread(shard)` and then take
//     `acquire_consumer(shard)` sessions — one worker per shard, whose
//     session sweep is exactly that shard. A plain `dequeue()` (or any
//     non-consumer session) would trap: in pipeline mode a stray dequeue
//     would bind a shard's single-consumer ring to a thread that will
//     never drain it.
//   * Termination needs no main-thread leftover sweep, and must not have
//     one (it would be a second consumer): each shard has exactly one
//     consumer, so that consumer's empty probe after stage 1 exits is
//     authoritative for its shard.
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "core/scq.hpp"
#include "scale/sharded_queue.hpp"

namespace {

constexpr unsigned kProducers = 2;
constexpr unsigned kShards = 4;  // one consumer per shard
constexpr unsigned kShardOrder = 8;  // 256 items per shard
constexpr wcq::u64 kItemsPerProducer = 100000;
constexpr std::size_t kBatch = 32;

}  // namespace

int main() {
  using namespace wcq;
  using Pipeline = ShardedQueue<u64, MpscRing>;
  Pipeline::Options opt;
  opt.shards = kShards;
  opt.shard_order = kShardOrder;
  opt.mode = Pipeline::Mode::kPipeline;
  Pipeline queue(opt);

  std::atomic<u64> produced{0};
  std::atomic<u64> consumed{0};
  std::atomic<u64> checksum{0};
  std::atomic<unsigned> producers_live{kProducers};

  std::vector<std::thread> threads;
  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      // One producer session per worker lifetime; the enqueue side of
      // pipeline mode is the ordinary §10 handle API.
      auto handle = queue.acquire();
      Backoff bo;
      u64 buf[kBatch];
      u64 next = 0;
      while (next < kItemsPerProducer) {
        std::size_t span = kBatch;
        if (span > kItemsPerProducer - next) {
          span = kItemsPerProducer - next;
        }
        for (std::size_t k = 0; k < span; ++k) {
          buf[k] = (u64{p} << 32) | (next + k);
        }
        std::size_t sent = 0;
        bo.reset();
        while (sent < span) {
          const std::size_t got =
              queue.enqueue_bulk(handle, buf + sent, span - sent);
          if (got == 0) {
            bo.pause();  // every shard full: wait for stage 2
          } else {
            bo.reset();
          }
          sent += got;
        }
        next += span;
        produced.fetch_add(span, std::memory_order_relaxed);
      }
      producers_live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (unsigned s = 0; s < queue.shard_count(); ++s) {
    threads.emplace_back([&, s] {
      // One core per consumer, then the owning-consumer session: sweep =
      // {s}, and the only session allowed to dequeue in pipeline mode.
      pin_thread(s);
      auto handle = queue.acquire_consumer(s);
      Backoff bo;
      u64 buf[kBatch];
      u64 local_sum = 0;
      u64 local_n = 0;
      for (;;) {
        const std::size_t got = queue.dequeue_bulk(handle, buf, kBatch);
        if (got > 0) {
          for (std::size_t k = 0; k < got; ++k) local_sum += buf[k];
          local_n += got;
          bo.reset();
          continue;
        }
        // Empty. Finished only once stage 1 is done and a final probe
        // still finds nothing — authoritative, because this thread is the
        // shard's ONLY consumer: nobody else can have raced an element out,
        // and producers are done, so empty-now means empty-forever.
        if (producers_live.load(std::memory_order_acquire) == 0) {
          if (auto v = queue.dequeue(handle)) {
            local_sum += *v;
            ++local_n;
            bo.reset();
            continue;
          }
          break;
        }
        bo.pause();
      }
      checksum.fetch_add(local_sum, std::memory_order_relaxed);
      consumed.fetch_add(local_n, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();

  u64 expect_sum = 0;
  for (unsigned p = 0; p < kProducers; ++p) {
    for (u64 i = 0; i < kItemsPerProducer; ++i) {
      expect_sum += (u64{p} << 32) | i;
    }
  }
  std::printf(
      "sharded_pipeline: %u MPSC shards (pipeline mode), %u producers, "
      "batch %zu\n",
      queue.shard_count(), kProducers, kBatch);
  std::printf("  produced=%llu consumed=%llu checksum %s\n",
              static_cast<unsigned long long>(produced.load()),
              static_cast<unsigned long long>(consumed.load()),
              checksum.load() == expect_sum ? "OK" : "MISMATCH");
  return consumed.load() == produced.load() && checksum.load() == expect_sum
             ? 0
             : 1;
}
