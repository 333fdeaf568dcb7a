// Segment recycling (DESIGN.md §8): ring reset(), the SegmentPool free list,
// metering honesty for segment-owned bytes, and the allocation-free steady
// state of the pooled UnboundedQueue.
#include "reclaim/segment_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"
#include "parked_threads.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

using RingTypes = ::testing::Types<WCQ, SCQ, WCQLLSC>;

// ---- ring layer: reset() reopens a drained ring ---------------------------

template <typename Ring>
class RingResetTest : public ::testing::Test {};
TYPED_TEST_SUITE(RingResetTest, RingTypes);

TYPED_TEST(RingResetTest, ReusableAcrossGenerations) {
  TypeParam q(4);
  for (int gen = 0; gen < 5; ++gen) {
    // Use the ring past several wraparounds, then leave stragglers behind.
    for (u64 round = 0; round < 3; ++round) {
      for (u64 i = 0; i < q.capacity(); ++i) {
        q.enqueue(i);
        ASSERT_EQ(q.dequeue().value(), i);
      }
    }
    for (u64 i = 0; i < q.capacity() / 2; ++i) q.enqueue(i);

    q.reset();
    EXPECT_EQ(q.threshold(), -1) << "reset ring must report empty";
    EXPECT_FALSE(q.dequeue().has_value()) << "stragglers survived reset";

    // The full capacity is usable again, in fresh FIFO order.
    for (u64 i = 0; i < q.capacity(); ++i) q.enqueue(i);
    for (u64 i = 0; i < q.capacity(); ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value()) << "generation " << gen << " item " << i;
      ASSERT_EQ(*v, i) << "FIFO broken after reset";
    }
    EXPECT_FALSE(q.dequeue().has_value());
  }
}

// A segment is reset and relinked while threads that registered after the
// reset may run on it. reset() rewinds only what a registered tid can have
// written: the wCQ thread records below the registry high water. A thread
// that registers after the reset with a tid at or past that high water runs
// on a record the reset never touched, and must still move exactly
// capacity() indices through the ring in FIFO order.
TYPED_TEST(RingResetTest, TidPastResetHighWaterFillsExactly) {
  TypeParam q(6);
  for (u64 i = 0; i < q.capacity(); ++i) q.enqueue(i);
  for (u64 i = 0; i < q.capacity() / 2; ++i) {
    ASSERT_EQ(q.dequeue().value(), i);
  }
  q.reset();
  const unsigned hw = ThreadRegistry::high_water();
  if (hw >= ThreadRegistry::kMaxThreads) {
    GTEST_SKIP() << "no registry tid at or past the high water";
  }

  // Park holder threads on every free tid below the high water, so the
  // next thread to register gets one at or past it.
  testing::ParkedThreads holders(hw - ThreadRegistry::live_threads());
  std::thread newcomer([&] {
    EXPECT_GE(ThreadRegistry::tid(), hw);
    for (u64 i = 0; i < q.capacity(); ++i) q.enqueue(i);
    for (u64 i = 0; i < q.capacity(); ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value()) << "item " << i;
      ASSERT_EQ(*v, i) << "FIFO broken after reset";
    }
    EXPECT_FALSE(q.dequeue().has_value());
  });
  newcomer.join();
}

// ---- reclaim layer: SegmentPool free list ---------------------------------

TEST(SegmentPoolTest, PutGetRoundtrip) {
  (void)ThreadRegistry::tid();  // cap() scales with registered threads
  SegmentPool<int> pool(8);
  EXPECT_EQ(pool.try_get(), nullptr) << "new pool must be empty";
  EXPECT_EQ(pool.size(), 0u);
  ASSERT_GE(pool.cap(), 2u);

  int a = 1, b = 2;
  EXPECT_TRUE(pool.try_put(&a));
  EXPECT_TRUE(pool.try_put(&b));
  EXPECT_EQ(pool.size(), 2u);

  int* g1 = pool.try_get();
  int* g2 = pool.try_get();
  ASSERT_NE(g1, nullptr);
  ASSERT_NE(g2, nullptr);
  EXPECT_NE(g1, g2) << "pool handed out the same node twice";
  EXPECT_TRUE((g1 == &a && g2 == &b) || (g1 == &b && g2 == &a));
  EXPECT_EQ(pool.try_get(), nullptr);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(SegmentPoolTest, CapBoundsParkedNodes) {
  SegmentPool<int> pool(2);  // slot ceiling below the per-thread cap
  int n[3] = {0, 1, 2};
  EXPECT_EQ(pool.cap(), 2u);
  EXPECT_TRUE(pool.try_put(&n[0]));
  EXPECT_TRUE(pool.try_put(&n[1]));
  EXPECT_FALSE(pool.try_put(&n[2])) << "put past the cap must be rejected";
  EXPECT_EQ(pool.size(), 2u);
}

TEST(SegmentPoolTest, DrainReleasesEverything) {
  SegmentPool<int> pool(4);
  int n[2] = {0, 1};
  ASSERT_TRUE(pool.try_put(&n[0]));
  ASSERT_TRUE(pool.try_put(&n[1]));
  int released = 0;
  pool.drain([&](int*) { ++released; });
  EXPECT_EQ(released, 2);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.try_get(), nullptr);
}

TEST(SegmentPoolTest, FullPoolAcceptsAgainAfterGet) {
  // A get frees both a slot and a place under the cap: the put rejected at
  // the cap succeeds once a node has been taken back.
  SegmentPool<int> pool(2);
  int n[3] = {0, 1, 2};
  ASSERT_EQ(pool.cap(), 2u);
  ASSERT_TRUE(pool.try_put(&n[0]));
  ASSERT_TRUE(pool.try_put(&n[1]));
  ASSERT_FALSE(pool.try_put(&n[2]));
  int* got = pool.try_get();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.try_put(&n[2]));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.try_put(got)) << "cap must hold after the refill";
}

TEST(SegmentPoolTest, DrainResetsSizeSoPoolRefillsToCap) {
  SegmentPool<int> pool(2);
  int n[4] = {0, 1, 2, 3};
  ASSERT_TRUE(pool.try_put(&n[0]));
  ASSERT_TRUE(pool.try_put(&n[1]));
  int released = 0;
  pool.drain([&](int*) { ++released; });
  EXPECT_EQ(released, 2);
  EXPECT_EQ(pool.size(), 0u);
  // The drained count is gone from the size word: the pool takes a full
  // cap of new nodes again, and no more.
  EXPECT_TRUE(pool.try_put(&n[2]));
  EXPECT_TRUE(pool.try_put(&n[3]));
  EXPECT_FALSE(pool.try_put(&n[0]));
  EXPECT_EQ(pool.size(), 2u);
}

// Ownership-transfer safety under contention: a node claimed from the pool
// is held by exactly one thread at a time, and no node is duplicated or
// lost. (This is the property the Treiber-stack design could not give
// without hazard pointers; the slot array gives it by construction.)
TEST(SegmentPoolTest, ConcurrentOwnershipExactlyOnce) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kNodesPerThread = 4;
  constexpr unsigned kNodes = kThreads * kNodesPerThread;
  const u64 rounds = testing::scale_items(20000);

  SegmentPool<std::atomic<int>> pool(kNodes);
  std::atomic<int> nodes[kNodes];  // 0 = thread-owned, 1 = pool-owned
  for (auto& n : nodes) n.store(0);

  std::atomic<bool> start{false};
  std::vector<std::thread> ts;
  std::vector<unsigned> held_count(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      std::vector<std::atomic<int>*> held;
      for (unsigned k = 0; k < kNodesPerThread; ++k) {
        held.push_back(&nodes[t * kNodesPerThread + k]);
      }
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 r = 0; r < rounds; ++r) {
        if (!held.empty() && (r & 1) == 0) {
          std::atomic<int>* n = held.back();
          int expected = 0;
          ASSERT_TRUE(n->compare_exchange_strong(expected, 1))
              << "double ownership on put";
          if (pool.try_put(n)) {
            held.pop_back();
          } else {
            ASSERT_EQ(n->exchange(0), 1);  // rejected: we still own it
          }
        } else if (std::atomic<int>* n = pool.try_get()) {
          int expected = 1;
          ASSERT_TRUE(n->compare_exchange_strong(expected, 0))
              << "pool handed out a node another thread holds";
          held.push_back(n);
        }
      }
      held_count[t] = static_cast<unsigned>(held.size());
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();

  unsigned held_total = 0;
  for (unsigned c : held_count) held_total += c;
  EXPECT_EQ(held_total + pool.size(), kNodes) << "nodes lost or duplicated";
}

// Racing puts respect the cap together, not only one at a time: with a
// check-then-put every racer can pass the same below-cap check and park,
// which is how MpmcChurnBoundedAndWalkSafe saw one segment over the cap.
// Each round releases four threads at an emptied pool at once. The slot
// array is sized past any registry high water, so the cap under test is
// always the dynamic one, however many threads earlier tests registered.
TEST(SegmentPoolTest, ConcurrentPutsNeverExceedCap) {
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kSlots = 2 * (ThreadRegistry::kMaxThreads + 1);
  (void)ThreadRegistry::tid();
  SegmentPool<int> pool(kSlots);
  const std::size_t cap = pool.cap();
  ASSERT_LT(cap, kSlots) << "the slot ceiling would hide the dynamic cap";
  const u64 rounds = testing::scale_items(4000);
  std::vector<int> nodes(kThreads * cap);

  std::atomic<u64> go{0};
  std::atomic<unsigned> done{0};
  std::atomic<std::size_t> parked{0};
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (u64 r = 1; r <= rounds; ++r) {
        while (go.load(std::memory_order_acquire) < r) {
          std::this_thread::yield();
        }
        std::size_t mine = 0;
        for (std::size_t k = 0; k < cap; ++k) {
          if (pool.try_put(&nodes[t * cap + k])) ++mine;
        }
        parked.fetch_add(mine);
        done.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }
  for (u64 r = 1; r <= rounds; ++r) {
    parked.store(0);
    done.store(0);
    go.store(r, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < kThreads) {
      std::this_thread::yield();
    }
    const std::size_t n = parked.load();
    pool.drain([](int*) {});
    if (n > cap) {
      ADD_FAILURE() << "round " << r << ": " << n << " nodes parked, cap "
                    << cap;
      go.store(rounds, std::memory_order_release);  // let the threads finish
      break;
    }
  }
  for (auto& th : ts) th.join();
}

// ---- metering honesty: every byte a segment owns is visible ---------------

TEST(SegmentMeterAuditTest, SegmentBytesAndCountsAllMetered) {
  constexpr unsigned kOrder = 6;
  const std::int64_t live_before = alloc_meter::live_bytes();
  const std::int64_t allocs_before = alloc_meter::total_allocations();
  {
    typename UnboundedQueue<u64>::Options o;
    o.segment_order = kOrder;
    o.recycle = false;
    UnboundedQueue<u64> q(o);
    const std::int64_t delta = alloc_meter::live_bytes() - live_before;
    // Lower bound on what one segment *really* owns beyond its top-level
    // node: its one ring's entry array (2^(order+1) slots x 16-byte pairs
    // for wCQ) plus the payload array (2^order x 8 bytes). If any of those
    // allocated outside the meter, the delta could not reach this.
    const std::int64_t ring_entries =
        std::int64_t{16} << (kOrder + 1);               // aq entry pairs
    const std::int64_t payload = std::int64_t{8} << kOrder;
    EXPECT_GE(delta, ring_entries + payload + 1024)
        << "segment-owned bytes are escaping the alloc meter";
    // The churn metric counts events, so the inner arrays must register as
    // allocations too — a segment is several allocations, not one.
    EXPECT_GE(alloc_meter::total_allocations() - allocs_before, 6)
        << "inner segment arrays invisible to the allocation count";
  }
  EXPECT_EQ(alloc_meter::live_bytes(), live_before)
      << "metered bytes leaked across queue lifetime";
}

// ---- unbounded layer: allocation-free steady state ------------------------

template <typename Ring>
class SegmentRecyclingTypedTest : public ::testing::Test {};
TYPED_TEST_SUITE(SegmentRecyclingTypedTest, RingTypes);

// The acceptance property: with the pool enabled, a fill/drain loop over
// many segment generations performs zero metered heap allocations after
// warm-up.
TYPED_TEST(SegmentRecyclingTypedTest, SteadyStateZeroAllocations) {
  typename UnboundedQueue<u64, TypeParam>::Options o;
  o.segment_order = 4;  // 16 elements: every round crosses segments
  UnboundedQueue<u64, TypeParam> q(o);
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.enqueue(i));
      for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.dequeue().has_value());
    }
  };
  churn(64);  // warm-up: populate the pool, settle scratch capacities
  const std::int64_t allocs_before = alloc_meter::total_allocations();
  churn(64);  // ~192 segment generations
  EXPECT_EQ(alloc_meter::total_allocations() - allocs_before, 0)
      << "steady-state fill/drain must not allocate with the pool enabled";
  EXPECT_GT(q.pooled_segments(), 0u) << "pool never engaged";
  EXPECT_LE(q.live_segments(), 3u);
}

// The same property through an owned session, whose hazard is published
// once per segment rather than once per operation.
TYPED_TEST(SegmentRecyclingTypedTest, SteadyStateZeroAllocationsOwnedSession) {
  typename UnboundedQueue<u64, TypeParam>::Options o;
  o.segment_order = 4;
  UnboundedQueue<u64, TypeParam> q(o);
  auto h = q.acquire();
  auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.enqueue(h, i));
      for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.dequeue(h).has_value());
    }
  };
  churn(64);
  const std::int64_t allocs_before = alloc_meter::total_allocations();
  churn(64);
  EXPECT_EQ(alloc_meter::total_allocations() - allocs_before, 0)
      << "owned-session fill/drain must not allocate with the pool enabled";
  EXPECT_GT(q.pooled_segments(), 0u) << "pool never engaged";
  EXPECT_LE(q.live_segments(), 3u);
}

TYPED_TEST(SegmentRecyclingTypedTest, NoPoolKeepsAllocating) {
  typename UnboundedQueue<u64, TypeParam>::Options o;
  o.segment_order = 4;
  o.recycle = false;
  UnboundedQueue<u64, TypeParam> q(o);
  for (int r = 0; r < 8; ++r) {
    for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.enqueue(i));
    for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.dequeue().has_value());
  }
  const std::int64_t allocs_before = alloc_meter::total_allocations();
  for (int r = 0; r < 8; ++r) {
    for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.enqueue(i));
    for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.dequeue().has_value());
  }
  EXPECT_GT(alloc_meter::total_allocations() - allocs_before, 8)
      << "without the pool every segment generation must hit the heap";
  EXPECT_EQ(q.pooled_segments(), 0u);
}

// Recycled segments must be indistinguishable from fresh ones under
// contention (the reuse-ABA argument): MPMC exactly-once over tiny pooled
// segments, with a monitor hammering the hazard-protected live_segments()
// walk concurrently — the walk satellite's crash/ASan canary — while both
// the segment count and the metered peak stay bounded.
TYPED_TEST(SegmentRecyclingTypedTest, MpmcChurnBoundedAndWalkSafe) {
  typename UnboundedQueue<u64, TypeParam>::Options o;
  o.segment_order = 2;  // 4 elements: constant finalize/recycle churn
  UnboundedQueue<u64, TypeParam> q(o);

  alloc_meter::reset_peak();
  const std::int64_t live_before = alloc_meter::live_bytes();

  std::atomic<bool> stop{false};
  u64 max_live = 0;
  std::thread monitor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const u64 n = q.live_segments();
      if (n > max_live) max_live = n;
      std::this_thread::yield();
    }
  });

  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 8000;
  testing::run_mpmc_exactly_once(q, cfg);

  stop.store(true, std::memory_order_release);
  monitor.join();

  // Bounds are deliberately loose: they catch unbounded growth (the failure
  // mode recycling could introduce), not tight occupancy. Every message
  // carries all four observed values, so one failure says which bound
  // tripped and where the others stood.
  const std::int64_t peak = alloc_meter::peak_bytes() - live_before;
  q.reclaim_flush();
  const u64 live_after_flush = q.live_segments();
  const std::size_t pooled = q.pooled_segments();
  const std::size_t pool_cap =
      SegmentPool<int>::kPerThread *
      (static_cast<std::size_t>(ThreadRegistry::high_water()) + 1);
  const auto observed = [&] {
    return ::testing::Message()
           << " [max_live=" << max_live << " peak_bytes=" << peak
           << " live_after_flush=" << live_after_flush
           << " pooled=" << pooled << " pool_cap=" << pool_cap << "]";
  };
  EXPECT_LE(max_live, 4096u) << "segment list grew without bound"
                             << observed();
  EXPECT_LE(peak, std::int64_t{64} << 20)
      << "metered peak exploded during churn" << observed();
  EXPECT_LE(live_after_flush, 4u)
      << "segments still linked after the drain and reclaim_flush"
      << observed();
  EXPECT_LE(pooled, pool_cap)
      << "pool exceeded its thread-scaled cap" << observed();
}

}  // namespace
}  // namespace wcq
