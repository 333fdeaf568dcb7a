// SpmcRing (DESIGN.md §13) unit, counter, and concurrency tests: the SCQ
// dual whose single-producer side owns Tail with plain loads and seq_cst
// stores (no F&A) and re-arms the threshold with a store instead of a MAX
// RMW; the multi-consumer dequeue side is SCQ verbatim minus the catchup
// (the producer pulls Tail up itself).
// The round-trip cases every ring degree shares live in test_scq.cpp.
#include "core/scq.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "common/op_counters.hpp"
#include "core/bounded_queue.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

TEST(SpmcRing, StartsEmpty) {
  SpmcRing q(4);
  EXPECT_EQ(q.capacity(), 16u);
  EXPECT_EQ(q.ring_size(), 32u);
  EXPECT_EQ(q.threshold(), -1);
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(SpmcRing, ThresholdLifecycleKept) {
  // The threshold referees the concurrent consumers, so unlike MpscRing it
  // stays: enqueue re-arms to 3n-1 (by store, not RMW), failed dequeues
  // decay it below zero, after which dequeue is a constant-time load.
  SpmcRing q(4);
  q.enqueue(0);
  EXPECT_EQ(q.threshold(), static_cast<i64>(3 * q.capacity() - 1));
  ASSERT_TRUE(q.dequeue().has_value());
  for (u64 i = 0; i <= 4 * q.capacity(); ++i) {
    ASSERT_FALSE(q.dequeue().has_value());
  }
  EXPECT_LT(q.threshold(), 0);
  const u64 head_before = q.head();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(q.dequeue().has_value());
  }
  EXPECT_EQ(q.head(), head_before) << "empty dequeues still touched Head";
  q.enqueue(3);
  EXPECT_EQ(q.dequeue().value(), 3u);
}

TEST(SpmcRing, ProducerPathCountsNoFaa) {
  // The dual of the MPSC consumer zeros: the single producer advances Tail
  // with plain stores, so enqueues — single and bulk — issue zero F&As.
  // (Threshold re-arms remain, demoted from RMW to store; the dequeue side
  // still pays the SCQ Head F&A.)
  SpmcRing q(6);
  u64 in[32];
  for (u64 i = 0; i < 32; ++i) in[i] = i;
  const auto before = opcount::snapshot();
  q.enqueue_bulk(in, 32);
  for (u64 i = 0; i < 16; ++i) q.enqueue(i);
  const auto after = opcount::snapshot();
  EXPECT_EQ(after.faa - before.faa, 0u) << "producer path issued a Tail F&A";

  const auto before_deq = opcount::snapshot();
  ASSERT_TRUE(q.dequeue().has_value());
  const auto after_deq = opcount::snapshot();
  EXPECT_EQ(after_deq.faa - before_deq.faa, 1u)
      << "dequeue must still reserve its rank with one Head F&A";
}

TEST(SpmcRing, HandleOpsRoundTrip) {
  SpmcRing q(5);
  auto h = q.handle();
  for (u64 i = 0; i < 4 * q.capacity(); ++i) {
    q.enqueue(h, i % q.capacity());
    auto v = q.dequeue(h);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
}

TEST(SpmcRing, ResetUnbindsProducerSession) {
  SpmcRing q(4);
  q.enqueue(1);  // binds this thread as the producer
  ASSERT_TRUE(q.dequeue().has_value());
  q.reset();
  std::thread t([&] {
    q.enqueue(9);  // would trap if the old binding survived reset
  });
  t.join();
  EXPECT_EQ(q.dequeue().value(), 9u);
}

TEST(SpmcRing, ReleaseSessionsRebinds) {
  SpmcRing q(4);
  q.enqueue(1);
  q.release_sessions();
  std::thread t([&] { q.enqueue(2); });
  t.join();
  EXPECT_EQ(q.dequeue().value(), 1u);
  EXPECT_EQ(q.dequeue().value(), 2u);
}

// Single-producer/multi-consumer exact-count checks — the ring's whole
// degree contract — named into the stress bucket.

TEST(SpmcRing, LinearizabilityOneProducerManyConsumers) {
  SpmcRing q(10);
  testing::run_mpmc_count_exact(q, 1, 7, 120000);
}

TEST(SpmcRing, LinearizabilitySmallRingContention) {
  SpmcRing q(3);  // capacity 8 with 5 consumers: constant wraparound
  testing::run_mpmc_count_exact(q, 1, 5, 80000);
}

// Fig 2 composition: BoundedQueue<T, SpmcRing> (aq is SPMC, fq stays the
// MPMC SCQ — consumers return indices cross-thread), magazines on and off.

TEST(SpmcRing, BoundedMagazinesOnExactlyOnce) {
  BoundedQueue<u64, SpmcRing> q(
      typename BoundedQueue<u64, SpmcRing>::Options{7, {}});
  testing::MpmcConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 6;
  cfg.items_per_producer = 120000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TEST(SpmcRing, BoundedMagazinesOffExactlyOnce) {
  BoundedQueue<u64, SpmcRing> q(typename BoundedQueue<u64, SpmcRing>::Options{
      7, {.enabled = false, .capacity = 16}});
  testing::MpmcConfig cfg;
  cfg.producers = 1;
  cfg.consumers = 6;
  cfg.items_per_producer = 120000;
  testing::run_mpmc_exactly_once(q, cfg);
}

// Death tests fork the process; under TSan that is unreliable, so the
// misuse diagnostics are asserted in the release/asan CI jobs only.
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

TEST(SpmcRingDeathTest, SecondProducerSessionTraps) {
  WCQ_SKIP_UNDER_TSAN();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SpmcRing q(4);
        q.enqueue(1);  // binds this thread as the producer
        std::thread([&] { q.enqueue(2); }).join();  // second session
      },
      "second producer session");
}

}  // namespace
}  // namespace wcq
