// SCQ (paper Fig 3) unit and concurrency tests, plus the layout checks and
// round-trip cases every degree of the BasicScq family (SCQ, MpscRing,
// SpmcRing; DESIGN.md §13) shares.
#include "core/scq.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

// --- Per-degree layout (DESIGN.md §13 MPSC-THLD) ---------------------------
// With one consumer the threshold is deleted, member and all: a merge that
// left a dead threshold cache line in the MPSC ring must fail to build.
template <class Ring>
concept HasThreshold = requires(const Ring& r) { r.threshold(); };
static_assert(!HasThreshold<MpscRing>, "MpscRing must not keep a threshold");
static_assert(HasThreshold<SCQ> && HasThreshold<SpmcRing>,
              "multi-consumer rings keep the 3n-1 threshold");
static_assert(sizeof(MpscRing) < sizeof(SCQ),
              "MpscRing must not carry the threshold's cache line");

// --- Cases every degree of the family passes -------------------------------
// Written once over the ring type; each alias runs them under its own suite
// name (Scq.*, MpscRing.*, SpmcRing.*).
template <class Ring>
void SingleElementRoundTrip() {
  Ring q(4);
  q.enqueue(7);
  auto v = q.dequeue();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7u);
  EXPECT_FALSE(q.dequeue().has_value());
}

template <class Ring>
void FifoOrderWithinCapacity() {
  Ring q(6);
  for (u64 i = 0; i < q.capacity(); ++i) q.enqueue(i);
  for (u64 i = 0; i < q.capacity(); ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

template <class Ring>
void WraparoundManyCycles() {
  Ring q(3);  // capacity 8, ring 16: many wraps below
  for (u64 i = 0; i < 10000; ++i) {
    q.enqueue(i % q.capacity());
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

template <class Ring>
void FullCapacityIsUsable() {
  // The ring holds 2n slots; all n logical indices may be enqueued at once.
  Ring q(8);
  for (u64 i = 0; i < q.capacity(); ++i) q.enqueue(i);
  u64 count = 0;
  while (q.dequeue().has_value()) ++count;
  EXPECT_EQ(count, q.capacity());
}

template <class Ring>
void BulkRoundTripPreservesFifo() {
  Ring q(6);
  u64 in[48], out[48];
  for (u64 i = 0; i < 48; ++i) in[i] = i;
  q.enqueue_bulk(in, 48);
  std::size_t got = 0;
  while (got < 48) {
    const std::size_t k = q.dequeue_bulk(out + got, 48 - got);
    if (k == 0) break;
    got += k;
  }
  ASSERT_EQ(got, 48u);
  for (u64 i = 0; i < 48; ++i) ASSERT_EQ(out[i], i);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Scq, SingleElementRoundTrip) { SingleElementRoundTrip<SCQ>(); }
TEST(Scq, FifoOrderWithinCapacity) { FifoOrderWithinCapacity<SCQ>(); }
TEST(Scq, WraparoundManyCycles) { WraparoundManyCycles<SCQ>(); }
TEST(Scq, FullCapacityIsUsable) { FullCapacityIsUsable<SCQ>(); }
TEST(Scq, BulkRoundTripPreservesFifo) { BulkRoundTripPreservesFifo<SCQ>(); }

TEST(MpscRing, SingleElementRoundTrip) { SingleElementRoundTrip<MpscRing>(); }
TEST(MpscRing, FifoOrderWithinCapacity) {
  FifoOrderWithinCapacity<MpscRing>();
}
TEST(MpscRing, WraparoundManyCycles) { WraparoundManyCycles<MpscRing>(); }
TEST(MpscRing, FullCapacityIsUsable) { FullCapacityIsUsable<MpscRing>(); }
TEST(MpscRing, BulkRoundTripPreservesFifo) {
  BulkRoundTripPreservesFifo<MpscRing>();
}

TEST(SpmcRing, SingleElementRoundTrip) { SingleElementRoundTrip<SpmcRing>(); }
TEST(SpmcRing, FifoOrderWithinCapacity) {
  FifoOrderWithinCapacity<SpmcRing>();
}
TEST(SpmcRing, WraparoundManyCycles) { WraparoundManyCycles<SpmcRing>(); }
TEST(SpmcRing, FullCapacityIsUsable) { FullCapacityIsUsable<SpmcRing>(); }
TEST(SpmcRing, BulkRoundTripPreservesFifo) {
  BulkRoundTripPreservesFifo<SpmcRing>();
}

// --- SCQ-specific ----------------------------------------------------------

TEST(Scq, StartsEmpty) {
  SCQ q(4);
  EXPECT_EQ(q.capacity(), 16u);
  EXPECT_EQ(q.ring_size(), 32u);
  EXPECT_EQ(q.threshold(), -1);
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(Scq, ThresholdResetOnEnqueue) {
  SCQ q(4);
  q.enqueue(0);
  EXPECT_EQ(q.threshold(), static_cast<i64>(3 * q.capacity() - 1));
}

TEST(Scq, EmptyFastPathAfterDrain) {
  SCQ q(4);
  for (int round = 0; round < 3; ++round) {
    q.enqueue(1);
    ASSERT_TRUE(q.dequeue().has_value());
    // Drive the threshold negative with failed dequeues...
    for (u64 i = 0; i < 4 * q.capacity(); ++i) {
      ASSERT_FALSE(q.dequeue().has_value());
    }
    EXPECT_LT(q.threshold(), 0);
    // ...after which dequeue returns immediately without touching Head.
    const u64 head_before = q.head();
    EXPECT_FALSE(q.dequeue().has_value());
    EXPECT_EQ(q.head(), head_before);
  }
}

TEST(Scq, BurstWraparound) {
  SCQ q(5);
  const u64 cap = q.capacity();
  for (int round = 0; round < 300; ++round) {
    for (u64 i = 0; i < cap; ++i) q.enqueue(i);
    for (u64 i = 0; i < cap; ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, i);
    }
    ASSERT_FALSE(q.dequeue().has_value());
  }
}

TEST(Scq, BulkSpanCostsOneFaa) {
  // The DESIGN.md §7 bulk contract SCQ now shares with BasicWCQ: one Tail
  // (resp. Head) F&A per span instead of one per element. Uncontended, so
  // the counter delta is deterministic.
  SCQ q(8);
  u64 in[32], out[32];
  for (u64 i = 0; i < 32; ++i) in[i] = i;
  const auto before_enq = opcount::snapshot();
  q.enqueue_bulk(in, 32);
  const auto after_enq = opcount::snapshot();
  EXPECT_EQ(after_enq.faa - before_enq.faa, 1u)
      << "bulk enqueue must reserve the whole span with one F&A";
  const auto before_deq = opcount::snapshot();
  const std::size_t got = q.dequeue_bulk(out, 32);
  const auto after_deq = opcount::snapshot();
  EXPECT_EQ(got, 32u);
  EXPECT_EQ(after_deq.faa - before_deq.faa, 1u)
      << "bulk dequeue must reserve the whole span with one F&A";
}

TEST(Scq, BulkDequeueOnEmptyBurnsNothing) {
  SCQ q(5);
  q.enqueue(1);
  ASSERT_TRUE(q.dequeue().has_value());
  // Decay the threshold to the empty fast-exit.
  for (u64 i = 0; i <= 4 * q.capacity(); ++i) {
    ASSERT_FALSE(q.dequeue().has_value());
  }
  const u64 head_before = q.head();
  u64 out[8];
  EXPECT_EQ(q.dequeue_bulk(out, 8), 0u);
  EXPECT_EQ(q.head(), head_before) << "empty bulk dequeue burned ranks";
}

TEST(Scq, RemapOffStillCorrect) {
  SCQ q(5, /*cache_remap=*/false);
  for (u64 i = 0; i < 2000; ++i) {
    q.enqueue(i % q.capacity());
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
}

// Count-based MPMC checks live in mpmc_harness.hpp (run_mpmc_count_exact).

TEST(Scq, MpmcExactCounts) {
  SCQ q(10);
  testing::run_mpmc_count_exact(q, 4, 4, 50000);
}

TEST(Scq, MpmcSmallRingHighContention) {
  SCQ q(3);  // capacity 8 with 6 threads: constant wraparound pressure
  testing::run_mpmc_count_exact(q, 3, 3, 30000);
}

TEST(Scq, MpmcManyConsumersOnEmptyish) {
  SCQ q(6);
  testing::run_mpmc_count_exact(q, 1, 7, 40000);
}

TEST(Scq, SpscPipeline) {
  SCQ q(4);
  const u64 kItems = testing::scale_items(200000);
  std::atomic<i64> credits{static_cast<i64>(q.capacity())};
  std::thread prod([&] {
    Backoff bo;
    for (u64 i = 0; i < kItems; ++i) {
      while (credits.fetch_sub(1, std::memory_order_acquire) <= 0) {
        credits.fetch_add(1, std::memory_order_release);
        bo.pause();
      }
      bo.reset();
      q.enqueue(i % q.capacity());
    }
  });
  u64 received = 0;
  u64 expect = 0;
  Backoff bo;
  while (received < kItems) {
    if (auto v = q.dequeue()) {
      ASSERT_EQ(*v, expect % q.capacity());  // SPSC preserves exact order
      ++expect;
      ++received;
      credits.fetch_add(1, std::memory_order_release);
      bo.reset();
    } else {
      bo.pause();
    }
  }
  prod.join();
  EXPECT_FALSE(q.dequeue().has_value());
}

}  // namespace
}  // namespace wcq
