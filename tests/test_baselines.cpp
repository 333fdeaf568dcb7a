// All baseline queues run through the same MPMC correctness suite the core
// queues use (exactly-once, per-producer FIFO, empty semantics), plus
// algorithm-specific checks.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "baselines/cc_queue.hpp"
#include "baselines/crturn_queue.hpp"
#include "baselines/faa_queue.hpp"
#include "baselines/lcrq.hpp"
#include "baselines/ms_queue.hpp"
#include "baselines/ymc_queue.hpp"
#include "common/op_counters.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

template <typename Queue>
class BaselineQueueTest : public ::testing::Test {};

using BaselineTypes =
    ::testing::Types<MSQueue, CCQueue, LCRQ, YMCQueue, CRTurnQueue>;
TYPED_TEST_SUITE(BaselineQueueTest, BaselineTypes);

TYPED_TEST(BaselineQueueTest, StartsEmpty) {
  TypeParam q;
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(BaselineQueueTest, SequentialFifo) {
  TypeParam q;
  testing::run_sequential_fifo(q, 5000);
}

TYPED_TEST(BaselineQueueTest, BurstWraparound) {
  TypeParam q;
  testing::run_sequential_wraparound(q, 512, 50);
}

TYPED_TEST(BaselineQueueTest, AlternatingEmptyNonEmpty) {
  TypeParam q;
  for (u64 i = 0; i < 2000; ++i) {
    ASSERT_TRUE(q.enqueue(i));
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
    ASSERT_FALSE(q.dequeue().has_value());
  }
}

TYPED_TEST(BaselineQueueTest, MpmcExactlyOnce) {
  TypeParam q;
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TYPED_TEST(BaselineQueueTest, MpmcAsymmetric) {
  {
    TypeParam q;
    testing::MpmcConfig cfg;
    cfg.producers = 6;
    cfg.consumers = 2;
    cfg.items_per_producer = 10000;
    testing::run_mpmc_exactly_once(q, cfg);
  }
  {
    TypeParam q;
    testing::MpmcConfig cfg;
    cfg.producers = 2;
    cfg.consumers = 6;
    cfg.items_per_producer = 10000;
    testing::run_mpmc_exactly_once(q, cfg);
  }
}

TYPED_TEST(BaselineQueueTest, SpscOrder) {
  TypeParam q;
  const u64 kItems = testing::scale_items(100000);
  std::thread prod([&] {
    Backoff bo;
    for (u64 i = 0; i < kItems; ++i) {
      bo.reset();
      while (!q.enqueue(i)) bo.pause();
    }
  });
  u64 expect = 0;
  Backoff bo;
  while (expect < kItems) {
    if (auto v = q.dequeue()) {
      ASSERT_EQ(*v, expect);
      ++expect;
      bo.reset();
    } else {
      bo.pause();  // empty: wait for the producer
    }
  }
  prod.join();
  EXPECT_FALSE(q.dequeue().has_value());
}

// --- algorithm-specific behaviors -------------------------------------------

TEST(Faa, IsOnlyAThroughputProxy) {
  // FAA is not a real queue (paper §6): it only mimics the F&A traffic of
  // ring queues. Each Dequeue consumes a rank unconditionally, so verify
  // just the counter contract, not value transfer.
  FAAQueue q;
  EXPECT_FALSE(q.dequeue().has_value());  // consumes rank 0
  EXPECT_TRUE(q.enqueue(42));             // produces rank 0 (already passed)
  EXPECT_TRUE(q.enqueue(43));             // produces rank 1
  EXPECT_TRUE(q.dequeue().has_value());   // rank 1 < tail 2: "succeeds"
  EXPECT_FALSE(q.dequeue().has_value());  // rank 2 >= tail 2: empty
}

TEST(Lcrq, ClosesRingsUnderPressureAndRecovers) {
  // A tiny ring closes constantly; the outer list must keep FIFO intact.
  LCRQ q(/*ring_order=*/3);
  testing::run_sequential_fifo(q, 1000);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 10000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TEST(Lcrq, FullRingClosesAndAppendsAFreshOne) {
  // The memory-behavior hook behind Fig 10: a full (or starved) CRQ closes
  // and a new ring is allocated; elements keep flowing in FIFO order.
  const auto before = alloc_meter::total_allocations();
  LCRQ q(/*ring_order=*/3);  // 8 slots
  for (u64 i = 0; i < 64; ++i) {
    ASSERT_TRUE(q.enqueue(i));  // overflows the first ring several times
  }
  EXPECT_GT(alloc_meter::total_allocations() - before, 1)
      << "expected at least one closed ring to be replaced";
  for (u64 i = 0; i < 64; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i) << "FIFO broken across ring boundary";
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

// Registry lookups (opcount registry) of `pairs` enqueue/dequeue pairs on
// one thread, per operation. A hazard-pointer baseline resolves its tid and
// its own domain's slot row once per operation and retires with that tid.
template <typename Queue>
double registry_per_op(Queue& q, u64 pairs) {
  const auto before = opcount::snapshot();
  for (u64 i = 0; i < pairs; ++i) {
    EXPECT_TRUE(q.enqueue(i));
    EXPECT_EQ(q.dequeue().value(), i);
  }
  const u64 lookups = (opcount::snapshot() - before).registry;
  return static_cast<double>(lookups) / static_cast<double>(2 * pairs);
}

// One lookup per operation: a retirement compares against the threshold
// its row's last scan computed, with no high-water read of its own. 15
// pairs retire 15 nodes, fewer than the threshold's starting value of
// 2 * kSlotsPerThread * 2 = 16, so no scan adds its high-water read.
TEST(MsQueue, OneRegistryLookupPerOp) {
  MSQueue q;
  EXPECT_LE(registry_per_op(q, 15), 1.0);
}

// One lookup per operation: the default 2^12-slot ring never closes under
// 1000 alternating pairs, so no dequeue retires a ring.
TEST(Lcrq, OneRegistryLookupPerOp) {
  LCRQ q;
  EXPECT_LE(registry_per_op(q, 1000), 1.0);
}

// An enqueue reads the thread high water once for its help rounds and
// their turn scans; with the dequeue's one lookup, 1.5 per operation. The
// 15 retirements stay under the first scan threshold, as above.
TEST(CrTurn, OneHighWaterReadPerEnqueue) {
  CRTurnQueue q;
  EXPECT_LE(registry_per_op(q, 15), 1.5);
}

TEST(Ymc, SegmentsAreReclaimed) {
  YMCQueue q;
  // Push both indices through many segments; reclamation should keep the
  // linked-segment count bounded near the reclaim cadence, not O(ops).
  const u64 ops = 20 * YMCQueue::kSegCells;
  for (u64 i = 0; i < ops; ++i) {
    ASSERT_TRUE(q.enqueue(i));
    ASSERT_TRUE(q.dequeue().has_value());
  }
  EXPECT_LT(q.live_segments(), 10u) << "segment list grew without bound";
}

TEST(Ymc, PoisonedCellsDoNotLoseElements) {
  // Consumers overshoot producers constantly; every element must survive.
  YMCQueue q;
  testing::MpmcConfig cfg;
  cfg.producers = 2;
  cfg.consumers = 6;
  cfg.items_per_producer = 15000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TEST(CrTurn, EnqueueHelpingUnderContention) {
  // Many producers force the turn-based append path to interleave heavily.
  CRTurnQueue q;
  testing::MpmcConfig cfg;
  cfg.producers = 8;
  cfg.consumers = 2;
  cfg.items_per_producer = 10000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TEST(CcQueue, CombinerBatchesPreserveOrder) {
  CCQueue q;
  // Sequential FIFO exercised through the combiner path repeatedly.
  for (int round = 0; round < 20; ++round) {
    for (u64 i = 0; i < 500; ++i) ASSERT_TRUE(q.enqueue(i));
    for (u64 i = 0; i < 500; ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, i);
    }
  }
}

}  // namespace
}  // namespace wcq
