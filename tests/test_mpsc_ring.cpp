// MpscRing (DESIGN.md §13) unit, counter, and concurrency tests: the SCQ
// derivative whose single-consumer side runs on plain loads and release
// stores — no Head F&A, no threshold, no consume fetch_or. The counter
// tests pin the "deleted, not just cheap" claim (the bench gate asserts the
// same zeros end to end); the death tests pin the session contract.
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
#include "core/unbounded_queue.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

TEST(MpscRing, StartsEmpty) {
  MpscRing q(4);
  EXPECT_EQ(q.capacity(), 16u);
  EXPECT_EQ(q.ring_size(), 32u);
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(MpscRing, EmptyDequeueLeavesHeadAlone) {
  // Without a threshold the empty exit is the tail<=head comparison; it
  // must not burn ranks (the SCQ property the deletion has to preserve).
  MpscRing q(4);
  q.enqueue(1);
  ASSERT_TRUE(q.dequeue().has_value());
  const u64 head_before = q.head();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(q.dequeue().has_value());
  }
  EXPECT_EQ(q.head(), head_before) << "empty dequeues advanced Head";
  q.enqueue(3);
  EXPECT_EQ(q.dequeue().value(), 3u);
}

TEST(MpscRing, ConsumerPathCountsNothing) {
  // The deletion argument, as a counter fact: dequeues — hit, miss, and
  // bulk — perform zero shared F&As and zero threshold RMWs. Producers
  // still pay the SCQ span F&A. This is the unit-level twin of the
  // bench/check_pipeline.py consumer-zeros gate.
  MpscRing q(6);
  u64 in[32], out[32];
  for (u64 i = 0; i < 32; ++i) in[i] = i;
  const auto before_enq = opcount::snapshot();
  q.enqueue_bulk(in, 32);
  const auto after_enq = opcount::snapshot();
  EXPECT_EQ(after_enq.faa - before_enq.faa, 1u)
      << "bulk enqueue must reserve the whole span with one F&A";

  const auto before = opcount::snapshot();
  EXPECT_EQ(q.dequeue_bulk(out, 16), 16u);
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(q.dequeue().has_value());
  for (int i = 0; i < 50; ++i) ASSERT_FALSE(q.dequeue().has_value());
  const auto after = opcount::snapshot();
  EXPECT_EQ(after.faa - before.faa, 0u) << "consumer path issued a Head F&A";
  EXPECT_EQ(after.threshold - before.threshold, 0u)
      << "consumer path issued a threshold RMW";
}

TEST(MpscRing, HandleOpsRoundTrip) {
  MpscRing q(5);
  auto h = q.handle();
  for (u64 i = 0; i < 4 * q.capacity(); ++i) {
    q.enqueue(h, i % q.capacity());
    auto v = q.dequeue(h);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
}

TEST(MpscRing, ResetUnbindsConsumerSession) {
  // reset() clears the consumer binding (segment-recycling contract): a
  // different thread may become the consumer of the reset ring.
  MpscRing q(4);
  q.enqueue(1);
  ASSERT_TRUE(q.dequeue().has_value());  // binds this thread
  q.reset();
  q.enqueue(9);
  std::thread t([&] {
    auto v = q.dequeue();  // would trap if the old binding survived reset
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 9u);
  });
  t.join();
}

TEST(MpscRing, ReleaseSessionsRebinds) {
  MpscRing q(4);
  q.enqueue(1);
  ASSERT_TRUE(q.dequeue().has_value());
  q.release_sessions();
  q.enqueue(2);
  std::thread t([&] { EXPECT_EQ(q.dequeue().value(), 2u); });
  t.join();
}

// Multi-producer/single-consumer exact-count checks (the ring's whole
// degree contract) — named into the stress bucket.

TEST(MpscRing, LinearizabilityManyProducersOneConsumer) {
  MpscRing q(10);
  testing::run_mpmc_count_exact(q, 7, 1, 30000);
}

TEST(MpscRing, LinearizabilitySmallRingContention) {
  MpscRing q(3);  // capacity 8 with 5 producers: constant wraparound
  testing::run_mpmc_count_exact(q, 5, 1, 20000);
}

TEST(MpscRing, SpscExactOrderPipeline) {
  // With one producer the ring degenerates to SPSC and must preserve exact
  // global FIFO, not just per-producer order.
  MpscRing q(4);
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
  u64 expect = 0;
  Backoff bo;
  while (expect < kItems) {
    if (auto v = q.dequeue()) {
      ASSERT_EQ(*v, expect % q.capacity());
      ++expect;
      credits.fetch_add(1, std::memory_order_release);
      bo.reset();
    } else {
      bo.pause();
    }
  }
  prod.join();
  EXPECT_FALSE(q.dequeue().has_value());
}

// Fig 2 composition: BoundedQueue<T, MpscRing> (aq is MPSC, fq stays the
// MPMC SCQ — DefaultFreeRing) under the shared exactly-once harness, with
// magazines both on and off.

TEST(MpscRing, BoundedMagazinesOnExactlyOnce) {
  BoundedQueue<u64, MpscRing> q(
      typename BoundedQueue<u64, MpscRing>::Options{7, {}});
  testing::MpmcConfig cfg;
  cfg.producers = 6;
  cfg.consumers = 1;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TEST(MpscRing, BoundedMagazinesOffExactlyOnce) {
  BoundedQueue<u64, MpscRing> q(typename BoundedQueue<u64, MpscRing>::Options{
      7, {.enabled = false, .capacity = 16}});
  testing::MpmcConfig cfg;
  cfg.producers = 6;
  cfg.consumers = 1;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TEST(MpscRing, UnboundedSegmentChurnExactlyOnce) {
  // Appendix A composition: small segments force constant retire/recycle,
  // so the consumer binds (and reset() unbinds) many segment rings over the
  // run — the pool-recycling half of the session contract.
  UnboundedQueue<u64, MpscRing> q(3u);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 1;
  cfg.items_per_producer = 15000;
  testing::run_mpmc_exactly_once(q, cfg);
}

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

TEST(MpscRingDeathTest, SecondConsumerSessionTraps) {
  WCQ_SKIP_UNDER_TSAN();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        MpscRing q(4);
        q.enqueue(1);
        (void)q.dequeue();  // binds this thread as the consumer
        std::thread([&] { (void)q.dequeue(); }).join();  // second session
      },
      "second consumer session");
}

}  // namespace
}  // namespace wcq
