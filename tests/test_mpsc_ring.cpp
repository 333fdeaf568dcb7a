// MpscRing (DESIGN.md §13) unit, counter, and concurrency tests: the SCQ
// derivative whose single-consumer side runs on plain loads and release
// stores — no Head F&A, no threshold, no consume fetch_or. The counter
// tests pin the "deleted, not just cheap" claim (the bench gate asserts the
// same zeros end to end); the death tests pin the session contract.
// The round-trip cases every ring degree shares live in test_scq.cpp.
#include "core/scq.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
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
  // consumer-zeros pipeline gate in bench/gates.json.
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

// A bulk span stops at a rank whose enqueuer has not delivered (DESIGN.md
// §13 MPSC-STOP); only a consumer holding nothing ⊥-marks one. The
// subclass exposes the producer's two steps, so a test can hold a rank
// reserved but unfilled.
struct StagedMpscRing : MpscRing {
  using MpscRing::MpscRing;
  using MpscRing::enq_at;
  using MpscRing::reserve;
};

TEST(MpscRing, BulkDequeueStopsAtUndeliveredRank) {
  StagedMpscRing q(4);
  u64 t;
  ASSERT_TRUE(q.reserve(3, t));
  ASSERT_TRUE(q.enq_at(t, 10, /*rearm=*/true));
  ASSERT_TRUE(q.enq_at(t + 2, 12, /*rearm=*/true));

  u64 out[4];
  const auto before = opcount::snapshot();
  ASSERT_EQ(q.dequeue_bulk(out, 4), 1u);
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(q.head(), t + 1) << "Head passed the undelivered rank";
  EXPECT_EQ((opcount::snapshot() - before).mpsc_dead_rank, 0u);

  ASSERT_TRUE(q.enq_at(t + 1, 11, /*rearm=*/true)) << "late rank was killed";
  ASSERT_EQ(q.dequeue_bulk(out, 4), 2u);
  EXPECT_EQ(out[0], 11u);
  EXPECT_EQ(out[1], 12u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(MpscRing, EmptyHandedDequeueMarksUndeliveredRank) {
  StagedMpscRing q(4);
  u64 t;
  ASSERT_TRUE(q.reserve(3, t));
  ASSERT_TRUE(q.enq_at(t, 10, /*rearm=*/true));
  ASSERT_TRUE(q.enq_at(t + 2, 12, /*rearm=*/true));
  ASSERT_EQ(q.dequeue(), std::optional<u64>{10});

  // Nothing in hand at rank 1 and Tail past it: the old path marks it dead
  // and moves on, so a stalled producer cannot block the consumer.
  const auto before = opcount::snapshot();
  EXPECT_EQ(q.dequeue(), std::optional<u64>{12});
  EXPECT_EQ((opcount::snapshot() - before).mpsc_dead_rank, 1u);

  EXPECT_FALSE(q.enq_at(t + 1, 11, /*rearm=*/true)) << "dead rank accepted";
  ASSERT_TRUE(q.enqueue(11));  // the late producer reserves again
  EXPECT_EQ(q.dequeue(), std::optional<u64>{11});
  EXPECT_FALSE(q.dequeue().has_value());
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

// Bulk spans are the traffic the flat fq is laid out for (DESIGN.md §9):
// with magazines on, refill, spill and the bulk claim/release paths all
// reach fq as spans; with them off, fq is remapped and sees the same spans.
TEST(MpscRing, BoundedMagazinesOnBulkExactlyOnce) {
  BoundedQueue<u64, MpscRing> q(
      typename BoundedQueue<u64, MpscRing>::Options{7, {}});
  ASSERT_FALSE(q.fq().cache_remap());
  testing::MpmcConfig cfg;
  cfg.producers = 6;
  cfg.consumers = 1;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/48);
}

TEST(MpscRing, BoundedMagazinesOffBulkExactlyOnce) {
  BoundedQueue<u64, MpscRing> q(typename BoundedQueue<u64, MpscRing>::Options{
      7, {.enabled = false, .capacity = 16}});
  ASSERT_TRUE(q.fq().cache_remap());
  testing::MpmcConfig cfg;
  cfg.producers = 6;
  cfg.consumers = 1;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/48);
}

// The same harness (exactly once, and per-producer FIFO: one consumer sees
// each producer's items in order) on a 32-element queue under spans of up
// to 48: producers see partial enqueues, the ring wraps every few spans,
// and the consumer's spans keep stopping at ranks still being filled.
TEST(MpscRing, BoundedTinyQueueBulkExactlyOnce) {
  BoundedQueue<u64, MpscRing> q(
      typename BoundedQueue<u64, MpscRing>::Options{5, {}});
  testing::MpmcConfig cfg;
  cfg.producers = 6;
  cfg.consumers = 1;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/48);
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

// The single consumer decides empty by the FIN-masked Tail rank, so the
// elements inserted before finalize() still drain; the rank a refused
// enqueue drew is dead and is skipped. reset() reopens the ring.
TEST(MpscRing, FinalizeRefusesEnqueueAndKeepsElements) {
  MpscRing q(4);
  for (u64 i = 0; i < 3; ++i) ASSERT_TRUE(q.enqueue(i));
  q.finalize();
  EXPECT_FALSE(q.enqueue(7));
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(q.dequeue(), std::optional<u64>{i});
  EXPECT_FALSE(q.dequeue().has_value());
  q.reset();
  ASSERT_TRUE(q.enqueue(5));
  EXPECT_EQ(q.dequeue(), std::optional<u64>{5});
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
