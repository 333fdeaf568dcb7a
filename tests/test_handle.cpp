// Session-handle suite (DESIGN.md §10): explicit per-thread handles across
// every layer — acquisition, flush-on-destroy, linearizability under
// explicit handles on all three ring types (magazines on and off), the
// thread-pool churn scenario the handle API exists for, and the
// lifetime-misuse diagnostics.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <set>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/backoff.hpp"
#include "common/tid_table.hpp"
#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"
#include "runtime/channel.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq {
namespace {

using testing::MpmcConfig;
using testing::check_consumer_logs;
using testing::scale_items;
using testing::tag;

// --- basic session mechanics ------------------------------------------------

TEST(HandleBasic, AcquireReleaseAccounting) {
  BoundedQueue<u64> q(typename BoundedQueue<u64>::Options{6});
  EXPECT_EQ(q.live_handles(), 0);
  {
    auto h = q.acquire();
    EXPECT_EQ(h.tid(), ThreadRegistry::tid());
    EXPECT_TRUE(h.owned());
    EXPECT_EQ(q.live_handles(), 1);
    auto h2 = q.acquire();  // multiple sessions per thread are legal
    EXPECT_EQ(q.live_handles(), 2);
    auto h3 = std::move(h2);  // ownership moves, count unchanged
    EXPECT_EQ(q.live_handles(), 2);
  }
  EXPECT_EQ(q.live_handles(), 0);
}

TEST(HandleBasic, ViewHandlesAreUnownedAndUncounted) {
  BoundedQueue<u64> q(typename BoundedQueue<u64>::Options{6});
  auto v = q.handle_for(ThreadRegistry::tid());
  EXPECT_FALSE(v.owned());
  EXPECT_EQ(q.live_handles(), 0);
}

TEST(HandleBasic, OperationsThroughHandleRoundTrip) {
  BoundedQueue<u64> q(typename BoundedQueue<u64>::Options{6});
  auto h = q.acquire();
  for (u64 i = 0; i < 3 * q.capacity(); ++i) {
    ASSERT_TRUE(q.enqueue(h, i));
    auto v = q.dequeue(h);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  // Implicit and explicit APIs interleave freely on one queue.
  ASSERT_TRUE(q.enqueue(7));
  EXPECT_EQ(q.dequeue(h).value(), 7u);
  ASSERT_TRUE(q.enqueue(h, 8));
  EXPECT_EQ(q.dequeue().value(), 8u);
}

TEST(HandleBasic, BulkThroughHandleRoundTrip) {
  BoundedQueue<u64> q(typename BoundedQueue<u64>::Options{7});
  auto h = q.acquire();
  u64 in[96], out[96];
  for (u64 i = 0; i < 96; ++i) in[i] = 1000 + i;
  ASSERT_EQ(q.enqueue_bulk(h, in, 96), 96u);
  std::size_t got = 0;
  while (got < 96) {
    const std::size_t k = q.dequeue_bulk(h, out + got, 96 - got);
    if (k == 0) break;
    got += k;
  }
  ASSERT_EQ(got, 96u);
  for (u64 i = 0; i < 96; ++i) EXPECT_EQ(out[i], 1000 + i);
}

// Destroying an owned handle flushes its magazine back to fq immediately —
// the exit-hook flush moved onto handle destruction (the hook stays as the
// implicit-path fallback).
TEST(HandleBasic, DestructionFlushesMagazine) {
  typename BoundedQueue<u64>::Options opt{8};
  opt.magazine.capacity = 16;
  BoundedQueue<u64> q(opt);
  ASSERT_GT(q.magazine_capacity(), 0u);
  {
    auto h = q.acquire();
    // A dequeue parks the freed index in the session's magazine.
    ASSERT_TRUE(q.enqueue(h, 42));
    ASSERT_TRUE(q.dequeue(h).has_value());
    EXPECT_GT(q.magazine_cached(), 0u);
  }
  EXPECT_EQ(q.magazine_cached(), 0u)
      << "handle destruction must drain the session's magazine to fq";
  // Capacity is exact afterwards: every index is claimable from fq alone.
  u64 n = 0;
  while (q.enqueue(n)) ++n;
  EXPECT_EQ(n, q.capacity());
}

TEST(HandleBasic, WcqRingHandleTidMatches) {
  WCQ q(4);
  auto h = q.handle();
  EXPECT_EQ(h.tid(), ThreadRegistry::tid());
  q.enqueue(h, 3);
  EXPECT_EQ(q.dequeue(h).value(), 3u);
}

TEST(HandleBasic, ShardedHandleCachesHomeShard) {
  ShardedQueue<u64> q(4, 6);
  auto h = q.acquire();
  EXPECT_EQ(h.home_shard(), q.home_shard());
  ASSERT_TRUE(q.enqueue(h, 11));
  EXPECT_EQ(q.dequeue(h).value(), 11u);
}

// Releasing a sharded session flushes this tid's magazine in every shard
// (the same ownership transfer as the BoundedQueue handle).
TEST(HandleBasic, ShardedReleaseFlushesShardMagazines) {
  typename ShardedQueue<u64>::Options opt;
  opt.shards = 2;
  opt.shard_order = 8;
  opt.magazine.capacity = 16;
  ShardedQueue<u64> q(opt);
  {
    auto h = q.acquire();
    ASSERT_TRUE(q.enqueue(h, 5));
    ASSERT_TRUE(q.dequeue(h).has_value());
    std::size_t cached = 0;
    for (unsigned s = 0; s < q.shard_count(); ++s) {
      cached += q.shard(s).magazine_cached();
    }
    EXPECT_GT(cached, 0u);
  }
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    EXPECT_EQ(q.shard(s).magazine_cached(), 0u)
        << "sharded session release must drain shard " << s;
  }
}

// --- handle shape and move-assignment ----------------------------------------

// Every layer's Handle moves without throwing, never copies, and stays no
// larger than before the shared session core (sizes on LP64).
template <typename H>
constexpr bool kMoveOnly =
    std::is_nothrow_move_constructible_v<H> &&
    std::is_nothrow_move_assignable_v<H> &&
    !std::is_copy_constructible_v<H> && !std::is_copy_assignable_v<H>;

static_assert(kMoveOnly<BoundedQueue<u64>::Handle>);
static_assert(kMoveOnly<BoundedQueue<u64, SCQ>::Handle>);
static_assert(kMoveOnly<BoundedQueue<u64, MpscRing>::Handle>);
static_assert(kMoveOnly<UnboundedQueue<u64>::Handle>);
static_assert(kMoveOnly<ShardedQueue<u64>::Handle>);
static_assert(kMoveOnly<Channel<u64>::Handle>);
static_assert(sizeof(BoundedQueue<u64>::Handle) <= 64);
static_assert(sizeof(BoundedQueue<u64, SCQ>::Handle) <= 32);
static_assert(sizeof(BoundedQueue<u64, MpscRing>::Handle) <= 32);
static_assert(sizeof(UnboundedQueue<u64>::Handle) <= 32);
static_assert(sizeof(ShardedQueue<u64>::Handle) <= 80);
static_assert(sizeof(Channel<u64>::Handle) <= 80);

// Move-assigning over an owned handle releases the overwritten session
// exactly once; the moved-from source then owns nothing, and a self-move
// keeps ownership. `cached` reports the queue's magazine occupancy (or
// nullopt for a layer whose release flushes nothing).
template <typename Q, typename Cached>
void check_move_assign_releases_once(Q& q, Cached cached) {
  {
    auto a = q.acquire();
    ASSERT_TRUE(q.enqueue(a, 1));
    ASSERT_TRUE(q.dequeue(a).has_value());  // parks an index in a magazine
    if (const auto c = cached()) {
      ASSERT_GT(*c, 0u);
    }
    {
      auto b = q.acquire();
      ASSERT_EQ(q.live_handles(), 2);
      a = std::move(b);  // releases a's old session, adopts b's
      EXPECT_EQ(q.live_handles(), 1);
      if (const auto c = cached()) {
        EXPECT_EQ(*c, 0u) << "the overwritten session must be flushed";
      }
    }  // b is moved-from: destroying it releases nothing
    EXPECT_EQ(q.live_handles(), 1);
    auto& alias = a;
    a = std::move(alias);  // self-move: still owned, nothing released
    EXPECT_EQ(q.live_handles(), 1);
    ASSERT_TRUE(q.enqueue(a, 2));
    EXPECT_EQ(q.dequeue(a).value(), 2u);
  }  // a still owned its session, so destroying it releases it
  EXPECT_EQ(q.live_handles(), 0);
}

TEST(HandleMoveAssign, BoundedReleasesOverwrittenSessionOnce) {
  typename BoundedQueue<u64>::Options opt{8};
  opt.magazine.capacity = 16;
  BoundedQueue<u64> q(opt);
  check_move_assign_releases_once(
      q, [&] { return std::optional<std::size_t>(q.magazine_cached()); });
}

TEST(HandleMoveAssign, ShardedReleasesOverwrittenSessionOnce) {
  typename ShardedQueue<u64>::Options opt;
  opt.shards = 2;
  opt.shard_order = 8;
  opt.magazine.capacity = 16;
  ShardedQueue<u64> q(opt);
  check_move_assign_releases_once(q, [&] {
    std::size_t total = 0;
    for (unsigned s = 0; s < q.shard_count(); ++s) {
      total += q.shard(s).magazine_cached();
    }
    return std::optional<std::size_t>(total);
  });
}

TEST(HandleMoveAssign, UnboundedReleasesOverwrittenSessionOnce) {
  UnboundedQueue<u64> q(4u);
  check_move_assign_releases_once(q, [] {
    return std::optional<std::size_t>();  // release flushes no magazine
  });
}

// --- explicit-handle linearizability over all three ring types --------------

// MPMC exactly-once + per-producer FIFO, with every worker holding an
// explicit session handle for its whole lifetime (the harness's implicit
// twin is tests/test_bounded_queue.cpp). Magazines on and off.
template <typename Ring>
void run_handle_mpmc(bool magazines) {
  typename BoundedQueue<u64, Ring>::Options opt{8};
  opt.magazine.enabled = magazines;
  BoundedQueue<u64, Ring> q(opt);
  MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  const u64 items_per_producer = scale_items(8000);
  const u64 total = items_per_producer * cfg.producers;
  std::atomic<u64> consumed{0};
  std::atomic<bool> start{false};
  std::vector<std::vector<u64>> logs(cfg.consumers);

  std::vector<std::thread> threads;
  threads.reserve(cfg.producers + cfg.consumers);
  for (unsigned p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.acquire();
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 i = 0; i < items_per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(h, tag(p, i))) bo.pause();
      }
    });
  }
  for (unsigned c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q.acquire();
      auto& log = logs[c];
      log.reserve(total / cfg.consumers + 16);
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      bo.reset();
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue(h)) {
          log.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  ASSERT_EQ(consumed.load(), total);
  ASSERT_FALSE(q.dequeue().has_value()) << "queue not empty at the end";
  ASSERT_EQ(q.live_handles(), 0);
  check_consumer_logs(logs, cfg, items_per_producer, /*check_fifo=*/true);
}

template <typename Ring>
class HandleRingTest : public ::testing::Test {};

using HandleRingTypes = ::testing::Types<WCQ, WCQLLSC, SCQ>;
TYPED_TEST_SUITE(HandleRingTest, HandleRingTypes);

TYPED_TEST(HandleRingTest, MpmcExplicitHandleExactlyOnceMagazinesOn) {
  run_handle_mpmc<TypeParam>(/*magazines=*/true);
}

TYPED_TEST(HandleRingTest, MpmcExplicitHandleExactlyOnceMagazinesOff) {
  run_handle_mpmc<TypeParam>(/*magazines=*/false);
}

// Sharded front-end under explicit handles: exactly-once globally (no
// global FIFO across shards, per the §7 ordering contract).
TEST(HandleSharded, MpmcExplicitHandleExactlyOnce) {
  ShardedQueue<u64> q(4, 8);
  MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  const u64 items_per_producer = scale_items(8000);
  const u64 total = items_per_producer * cfg.producers;
  std::atomic<u64> consumed{0};
  std::atomic<bool> start{false};
  std::vector<std::vector<u64>> logs(cfg.consumers);
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.acquire();
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 i = 0; i < items_per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(h, tag(p, i))) bo.pause();
      }
    });
  }
  for (unsigned c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q.acquire();
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      bo.reset();
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue(h)) {
          logs[c].push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  ASSERT_EQ(consumed.load(), total);
  ASSERT_FALSE(q.dequeue().has_value());
  check_consumer_logs(logs, cfg, items_per_producer, /*check_fifo=*/false);
}

// Unbounded queue under explicit handles with tiny segments: the session
// tid threads through segment churn (each segment rebuilds its view from
// it), so heavy append/unlink traffic must stay exactly-once.
TEST(HandleUnbounded, MpmcExplicitHandleExactlyOnceTinySegments) {
  typename UnboundedQueue<u64>::Options opt;
  opt.segment_order = 4;
  UnboundedQueue<u64> q(opt);
  MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  const u64 items_per_producer = scale_items(6000);
  const u64 total = items_per_producer * cfg.producers;
  std::atomic<u64> consumed{0};
  std::atomic<bool> start{false};
  std::vector<std::vector<u64>> logs(cfg.consumers);
  std::vector<std::thread> threads;
  for (unsigned p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&, p] {
      auto h = q.acquire();
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 i = 0; i < items_per_producer; ++i) {
        ASSERT_TRUE(q.enqueue(h, tag(p, i)));
      }
    });
  }
  for (unsigned c = 0; c < cfg.consumers; ++c) {
    threads.emplace_back([&, c] {
      auto h = q.acquire();
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      bo.reset();
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue(h)) {
          logs[c].push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  ASSERT_EQ(consumed.load(), total);
  ASSERT_FALSE(q.dequeue().has_value());
  check_consumer_logs(logs, cfg, items_per_producer, /*check_fifo=*/true);
}

// --- thread-pool scenario ----------------------------------------------------
//
// The workload the handle API is for: many short-lived pool workers, far
// more over the run than ThreadRegistry::kMaxThreads, each acquiring a
// session, working, and releasing it as it exits. Sessions flush their
// magazines on destruction and dead tids are recycled, so across waves
// capacity stays exact — no index leaks into a dead magazine, none is
// duplicated by a flush.
TEST(HandleChurn, PoolWorkersCapacityExact) {
  typename BoundedQueue<u64>::Options opt{6};  // capacity 64
  opt.magazine.capacity = 16;
  BoundedQueue<u64> q(opt);
  constexpr unsigned kWave = 4;
  // > kMaxThreads workers in total, sequentially recycled tids.
  const unsigned total_workers = ThreadRegistry::kMaxThreads + 16;
  const unsigned waves = (total_workers + kWave - 1) / kWave;
  unsigned launched = 0;
  for (unsigned w = 0; w < waves; ++w) {
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < kWave && launched < total_workers; ++i, ++launched) {
      pool.emplace_back([&q] {
        auto h = q.acquire();
        // Mixed work: enough dequeues to populate the magazine, releases
        // interleaved with claims.
        for (u64 k = 0; k < 200; ++k) {
          if (q.enqueue(h, k)) {
            if ((k & 1) == 0) (void)q.dequeue(h);
          } else {
            (void)q.dequeue(h);
          }
        }
        // Worker exits with the session: destruction flushes the magazine.
      });
    }
    for (auto& t : pool) t.join();
  }
  ASSERT_EQ(q.live_handles(), 0);
  // Drain whatever the last waves left, then prove capacity is exact: all
  // indices are claimable, none leaked into dead magazines, none invented.
  while (q.dequeue().has_value()) {
  }
  u64 n = 0;
  while (q.enqueue(n)) ++n;
  EXPECT_EQ(n, q.capacity()) << "capacity drifted across handle churn";
  for (u64 i = 0; i < n; ++i) {
    ASSERT_EQ(q.dequeue().value(), i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

// Flushes of one tid take no lock (DESIGN.md §9): four threads flush a
// parked worker's magazine while a fifth destroys the worker's owned handle,
// which flushes it too. Every cached index must leave the magazine exactly
// once, so the queue then admits exactly capacity() elements and the drain
// holds no duplicate.
TEST(HandleChurn, ConcurrentFlushesOfOneTidAreExact) {
  constexpr unsigned kRacers = 5;  // four flushers + the handle's destroyer
  typename BoundedQueue<u64>::Options opt{6};  // capacity 64
  opt.magazine.capacity = 16;
  for (int round = 0; round < 20; ++round) {
    BoundedQueue<u64> q(opt);
    std::optional<BoundedQueue<u64>::Handle> parked;
    std::promise<void> filled;
    std::promise<void> exit_worker;
    std::thread worker([&] {
      auto h = q.acquire();
      // Dequeues cache their freed indices in this tid's magazine.
      for (u64 k = 0; k < q.capacity() / 2; ++k) EXPECT_TRUE(q.enqueue(h, k));
      for (u64 k = 0; k < q.capacity() / 2; ++k) {
        EXPECT_TRUE(q.dequeue(h).has_value());
      }
      parked.emplace(std::move(h));
      filled.set_value();
      exit_worker.get_future().wait();  // alive, so no exit-hook flush yet
    });
    filled.get_future().wait();
    EXPECT_GT(q.magazine_cached(), 0u) << "round " << round;
    const unsigned tid = parked->tid();

    // Two-phase start line: arrive with yields, then spin until all five
    // are awake, so their flushes start within a flush's length of each
    // other (after a yield alone they start microseconds apart and rarely
    // overlap). The spin falls back to yields so that five racers on fewer
    // cores still get through.
    std::atomic<unsigned> ready{0};
    auto await_start = [&] {
      ready.fetch_add(1);
      while (ready.load() < kRacers) std::this_thread::yield();
      ready.fetch_add(1);
      for (unsigned spins = 0; ready.load() < 2 * kRacers; ++spins) {
        if (spins > (1u << 16)) std::this_thread::yield();
      }
    };
    std::vector<std::thread> ts;
    for (unsigned t = 0; t + 1 < kRacers; ++t) {
      ts.emplace_back([&] {
        await_start();
        q.flush_magazine(tid);
      });
    }
    ts.emplace_back([&] {
      await_start();
      parked.reset();  // owned-handle release flushes the magazine
    });
    for (auto& th : ts) th.join();
    exit_worker.set_value();
    worker.join();
    ASSERT_EQ(q.live_handles(), 0);
    EXPECT_EQ(q.magazine_cached(), 0u) << "round " << round;

    u64 n = 0;
    while (n <= q.capacity() && q.enqueue(n)) ++n;
    EXPECT_EQ(n, q.capacity()) << "round " << round;
    std::set<u64> seen;
    while (auto v = q.dequeue()) {
      EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
    }
    EXPECT_EQ(seen.size(), n) << "round " << round;
  }
}

// --- lifetime misuse ---------------------------------------------------------

// Death tests fork the process; under TSan that is unreliable (and the
// runtime may refuse), so the misuse diagnostics are asserted in the
// release/asan CI jobs only.
#if defined(__SANITIZE_THREAD__)
#define WCQ_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "death tests fork; skipped under TSan"
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WCQ_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "death tests fork; skipped under TSan"
#else
#define WCQ_SKIP_UNDER_TSAN() (void)0
#endif
#else
#define WCQ_SKIP_UNDER_TSAN() (void)0
#endif

TEST(HandleLifetimeDeathTest, BoundedQueueDestroyedWithLiveHandleAborts) {
  WCQ_SKIP_UNDER_TSAN();
  EXPECT_DEATH(
      {
        auto* q = new BoundedQueue<u64>(typename BoundedQueue<u64>::Options{4});
        auto h = q->acquire();
        delete q;  // handle outlives queue: diagnosed abort, not a dangle
      },
      "live session handle");
}

TEST(HandleLifetimeDeathTest, ShardedQueueDestroyedWithLiveHandleAborts) {
  WCQ_SKIP_UNDER_TSAN();
  EXPECT_DEATH(
      {
        auto* q = new ShardedQueue<u64>(2, 4);
        auto h = q->acquire();
        delete q;
      },
      "live session handle");
}

TEST(HandleLifetimeDeathTest, UnboundedQueueDestroyedWithLiveHandleAborts) {
  WCQ_SKIP_UNDER_TSAN();
  EXPECT_DEATH(
      {
        // The handle is heap-held and leaked: the child aborts inside
        // `delete q`, so no handle destructor may be seen to run after it.
        auto* q = new UnboundedQueue<u64>(4u);
        (void)new UnboundedQueue<u64>::Handle(q->acquire());
        delete q;
      },
      "live session handle");
}

// Queue-outlives-handle is the correct order and must be silent.
TEST(HandleLifetimeDeathTest, QueueOutlivesHandleIsFine) {
  BoundedQueue<u64> q(typename BoundedQueue<u64>::Options{4});
  {
    auto h = q.acquire();
    ASSERT_TRUE(q.enqueue(h, 1));
  }
  EXPECT_EQ(q.dequeue().value(), 1u);
}

// A tid past a per-tid table's limit is rejected (trap) where the table
// installs its chunk, so every table diagnoses it instead of overflowing
// its directory: a ring's records stop at the registry bound, and a table
// with a partial last chunk (40 tids in three chunks) stops at chunk 3.
TEST(HandleLifetimeDeathTest, RingHandleForOutOfRangeTidTraps) {
  WCQ_SKIP_UNDER_TSAN();
  EXPECT_DEATH(
      {
        WCQ q(4u);
        (void)q.handle_for(ThreadRegistry::kMaxThreads);
      },
      "");
  EXPECT_DEATH(
      {
        TidTable<u64> t(40, 1);
        (void)t.row(48);
      },
      "");
}

}  // namespace
}  // namespace wcq
