// Unbounded queue (paper Appendix A): FIFO across segment boundaries,
// exactly-once under contention, and bounded segment-list growth.
#include "core/unbounded_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/op_counters.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

template <typename Ring>
class UnboundedQueueTest : public ::testing::Test {};

using RingTypes = ::testing::Types<WCQ, SCQ, WCQLLSC>;
TYPED_TEST_SUITE(UnboundedQueueTest, RingTypes);

TYPED_TEST(UnboundedQueueTest, StartsEmpty) {
  UnboundedQueue<u64, TypeParam> q(4);
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(q.live_segments(), 1u);
}

TYPED_TEST(UnboundedQueueTest, GrowsPastOneSegment) {
  UnboundedQueue<u64, TypeParam> q(3);  // 8 elements per segment
  for (u64 i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.enqueue(i));
  }
  EXPECT_GT(q.live_segments(), 1u);
  for (u64 i = 0; i < 100; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i) << "FIFO broken across segment boundary";
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(UnboundedQueueTest, SequentialFifoLong) {
  UnboundedQueue<u64, TypeParam> q(4);
  testing::run_sequential_fifo(q, 20000);
}

TYPED_TEST(UnboundedQueueTest, BurstWraparound) {
  UnboundedQueue<u64, TypeParam> q(4);
  testing::run_sequential_wraparound(q, 100, 100);
}

TYPED_TEST(UnboundedQueueTest, SegmentsAreReclaimed) {
  UnboundedQueue<u64, TypeParam> q(3);
  for (int round = 0; round < 200; ++round) {
    for (u64 i = 0; i < 32; ++i) ASSERT_TRUE(q.enqueue(i));
    for (u64 i = 0; i < 32; ++i) ASSERT_TRUE(q.dequeue().has_value());
  }
  q.reclaim_flush();  // quiescent: flush retired segments
  EXPECT_LT(q.live_segments(), 10u) << "drained segments not unlinked";
}

TYPED_TEST(UnboundedQueueTest, MpmcExactlyOnce) {
  UnboundedQueue<u64, TypeParam> q(6);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TYPED_TEST(UnboundedQueueTest, MpmcTinySegmentsHighChurn) {
  // Segment of 4: constant finalize/append/unlink churn under contention.
  UnboundedQueue<u64, TypeParam> q(2);
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 8000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TYPED_TEST(UnboundedQueueTest, MpmcAsymmetric) {
  UnboundedQueue<u64, TypeParam> q(5);
  testing::MpmcConfig cfg;
  cfg.producers = 6;
  cfg.consumers = 2;
  cfg.items_per_producer = 10000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TYPED_TEST(UnboundedQueueTest, NoBackpressureEver) {
  // Unlike BoundedQueue, enqueue never reports full.
  UnboundedQueue<u64, TypeParam> q(2);
  for (u64 i = 0; i < 5000; ++i) {
    ASSERT_TRUE(q.enqueue(i));
  }
  for (u64 i = 0; i < 5000; ++i) {
    ASSERT_EQ(q.dequeue().value(), i);
  }
}

// Runs closures on one dedicated thread, one at a time, so a test can
// interleave two threads' operations in a fixed order while each thread
// keeps its own tid (and so its own span row).
class StepThread {
 public:
  StepThread() : th_([this] { loop(); }) {}
  ~StepThread() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    th_.join();
  }
  StepThread(const StepThread&) = delete;
  StepThread& operator=(const StepThread&) = delete;

  // Runs `fn` on this thread and returns once it has finished.
  void run(const std::function<void()>& fn) {
    std::unique_lock<std::mutex> lk(mu_);
    job_ = &fn;
    cv_.notify_all();
    cv_.wait(lk, [&] { return job_ == nullptr; });
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return quit_ || job_ != nullptr; });
      if (job_ == nullptr) return;
      (*job_)();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void()>* job_ = nullptr;
  bool quit_ = false;
  std::thread th_;
};

// A span row left on a segment must never match the segment's next
// incarnation (DESIGN.md §4). Each round, thread A caches a span on the
// tail segment S; thread B fills S past finalization, drains the queue and
// flushes the retirements, so S is reset into the pool (recycle on) or
// freed (off). B then fills the next segment until a new one is linked
// with B's span on it: S again from the pool, or a fresh allocation that
// lands at S's address whenever the allocator reuses it. Then A enqueues
// once and B uses its span. A row matched by address alone, or by a
// generation that restarts with every segment object, hands A an index
// B's span holds: one element is delivered twice and A's is lost.
void run_stale_span_row(bool recycle) {
  UnboundedQueue<u64>::Options o;
  o.segment_order = 8;  // 256 elements; a claim takes up to 9 indices
  o.recycle = recycle;
  UnboundedQueue<u64> q(o);
  StepThread a, b;
  std::vector<u64> sent_a, sent_b, got;
  auto send = [&](std::vector<u64>& log, u64 producer) {
    const u64 v = (producer << 32) | log.size();
    ASSERT_TRUE(q.enqueue(v));
    log.push_back(v);
  };
  auto drain = [&] {
    while (auto v = q.dequeue()) got.push_back(*v);
  };
  auto fill_until_new_segment = [&] {
    while (q.live_segments() < 2) send(sent_b, 2);
  };
  auto drain_and_flush = [&] {
    drain();
    q.reclaim_flush();
  };
  for (int round = 0; round < 64; ++round) {
    b.run(drain_and_flush);
    ASSERT_EQ(q.live_segments(), 1u);
    a.run([&] { send(sent_a, 1); });  // A's row now names S
    b.run(fill_until_new_segment);
    b.run(drain_and_flush);           // S leaves the list
    ASSERT_EQ(q.live_segments(), 1u);
    b.run(fill_until_new_segment);    // B's span on the new segment
    a.run([&] { send(sent_a, 1); });
    b.run([&] {
      for (int i = 0; i < 8; ++i) send(sent_b, 2);
    });
  }
  b.run(drain);

  std::set<u64> unique(got.begin(), got.end());
  EXPECT_EQ(unique.size(), got.size()) << "an element was delivered twice";
  EXPECT_EQ(got.size(), sent_a.size() + sent_b.size())
      << "an element was lost or duplicated";
  std::vector<u64> order_a, order_b;
  for (u64 v : got) ((v >> 32) == 1 ? order_a : order_b).push_back(v);
  EXPECT_EQ(order_a, sent_a) << "producer A's elements out of order";
  EXPECT_EQ(order_b, sent_b) << "producer B's elements out of order";
}

TEST(SpanRowReuse, StaleRowNeverMatchesRecycledSegment) {
  run_stale_span_row(/*recycle=*/true);
}

TEST(SpanRowReuse, StaleRowNeverMatchesReallocatedSegment) {
  run_stale_span_row(/*recycle=*/false);
}

// Span rows strand at most an eighth of a segment when it finalizes
// (DESIGN.md §4): a row keeps at most n / (8 * registered tids) indices.
// The worst case is producers that claim a span, enqueue once and go idle
// while they stay registered. Seven register, then do that on 64-element
// segments, where unclamped 9-index spans would strand 56 of the first
// segment's 64 indices; then one thread enqueues two segments' worth.
// Every segment that finalizes must hold at least 56 elements, and the
// drain must return the idle producers' elements first and the rest in
// order.
TYPED_TEST(UnboundedQueueTest, IdleProducersStrandAtMostAnEighth) {
  constexpr unsigned kOrder = 6;
  constexpr u64 kCap = u64{1} << kOrder;
  constexpr unsigned kIdle = 7;
  constexpr u64 kBusy = 2 * kCap;
  constexpr u64 kIdleBase = 1000;
  UnboundedQueue<u64, TypeParam> q(kOrder);
  std::atomic<unsigned> registered{0};
  std::atomic<unsigned> enqueued{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> idle;
  for (unsigned p = 0; p < kIdle; ++p) {
    idle.emplace_back([&, p] {
      (void)ThreadRegistry::tid();
      registered.fetch_add(1, std::memory_order_release);
      while (registered.load(std::memory_order_acquire) < kIdle) {
        std::this_thread::yield();
      }
      q.enqueue(kIdleBase + p);
      enqueued.fetch_add(1, std::memory_order_release);
      // Stay registered, so this tid's row stays in use.
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
  }
  while (enqueued.load(std::memory_order_acquire) < kIdle) {
    std::this_thread::yield();
  }
  // The enqueue that links a new segment lands in it, so the count up to
  // there is what the finalized segment holds.
  std::vector<u64> held;
  u64 in_segment = kIdle;
  u64 segments = q.live_segments();
  for (u64 i = 0; i < kBusy; ++i) {
    ASSERT_TRUE(q.enqueue(i));
    const u64 now = q.live_segments();
    if (now != segments) {
      held.push_back(in_segment);
      in_segment = 0;
      segments = now;
    }
    ++in_segment;
  }
  ASSERT_GE(held.size(), 1u);
  for (std::size_t k = 0; k < held.size(); ++k) {
    EXPECT_GE(held[k], kCap - kCap / 8)
        << "segment " << k << " finalized holding " << held[k] << " of "
        << kCap;
  }
  release.store(true, std::memory_order_release);
  for (auto& t : idle) t.join();
  std::vector<bool> seen(kIdle, false);
  for (unsigned n = 0; n < kIdle; ++n) {
    const auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_GE(*v, kIdleBase) << "an idle producer's element came late";
    ASSERT_LT(*v, kIdleBase + kIdle);
    ASSERT_FALSE(seen[*v - kIdleBase]) << "delivered twice";
    seen[*v - kIdleBase] = true;
  }
  for (u64 i = 0; i < kBusy; ++i) ASSERT_EQ(q.dequeue().value(), i);
  EXPECT_FALSE(q.dequeue().has_value());
}

// Hazard publishes (opcount hazard_publish, DESIGN.md §8): one thread puts
// 8 segments' worth of elements through order-6 segments, then takes them
// all back. An owned session republishes slot 0 only when the segment it
// touches changes: each phase visits every segment once.
constexpr unsigned kPubOrder = 6;
constexpr u64 kPubSegments = 8;
constexpr u64 kPubItems = kPubSegments << kPubOrder;

TEST(UnboundedHazardPublish, OwnedSessionPublishesOncePerSegment) {
  UnboundedQueue<u64> q(kPubOrder);
  auto h = q.acquire();
  const auto before = opcount::snapshot();
  for (u64 i = 0; i < kPubItems; ++i) ASSERT_TRUE(q.enqueue(h, i));
  for (u64 i = 0; i < kPubItems; ++i) ASSERT_EQ(q.dequeue(h).value(), i);
  const u64 published = (opcount::snapshot() - before).hazard_publish;
  const u64 visits = 2 * kPubSegments;
  EXPECT_LE(published, visits + 2) << "segment visits " << visits;
}

// The same traffic through the implicit API (per-op views) publishes once
// per operation, and once more for each dequeue that unlinks a drained
// segment and moves on to its successor: 7 of the 8.
TEST(UnboundedHazardPublish, ImplicitOpsPublishEveryOperation) {
  UnboundedQueue<u64> q(kPubOrder);
  const auto before = opcount::snapshot();
  for (u64 i = 0; i < kPubItems; ++i) ASSERT_TRUE(q.enqueue(i));
  for (u64 i = 0; i < kPubItems; ++i) ASSERT_EQ(q.dequeue().value(), i);
  const u64 published = (opcount::snapshot() - before).hazard_publish;
  EXPECT_EQ(published, 2 * kPubItems + (kPubSegments - 1));
}

// live_segments() walks in hazard slots 1-3, so it leaves an owned
// session's sticky slot 0 alone: the session's next operation on the same
// segment publishes nothing.
TEST(UnboundedHazardPublish, LiveSegmentsKeepsOwnedSessionSlot) {
  UnboundedQueue<u64> q(kPubOrder);
  auto h = q.acquire();
  ASSERT_TRUE(q.enqueue(h, 1));
  ASSERT_EQ(q.live_segments(), 1u);
  const auto before = opcount::snapshot();
  ASSERT_TRUE(q.enqueue(h, 2));
  EXPECT_EQ((opcount::snapshot() - before).hazard_publish, 0u);
}

// An idle owned session pins the one segment it last touched (DESIGN.md
// §8). B fills five 4-element segments; A takes one element from the first,
// S, and goes idle; B drains S, unlinks it and retires it. Each later
// segment B drains is retired with a scan (the queue's domain scans every
// 2 retirements), which must keep S retired and out of the pool while it
// pools the other one, until A's slot lets go of S.
class PinnedSegment {
 public:
  using Q = UnboundedQueue<u64>;
  static constexpr u64 kCap = 4;

  PinnedSegment() : q_(2) {
    a_.run([&] { ha_.emplace(q_.acquire()); });
    b_.run([&] {
      hb_.emplace(q_.acquire());
      for (u64 i = 0; i < 5 * kCap; ++i) EXPECT_TRUE(q_.enqueue(*hb_, i));
    });
    a_.run([&] { EXPECT_EQ(q_.dequeue(*ha_), std::optional<u64>{0}); });
    retire_next();  // S
  }

  ~PinnedSegment() {
    b_.run([&] { hb_.reset(); });
    a_.run([&] { ha_.reset(); });
  }

  // B dequeues the next kCap elements; the last crosses into the next
  // segment, so B unlinks and retires the one it drained.
  void retire_next() {
    b_.run([&] {
      for (u64 k = 0; k < kCap; ++k) {
        EXPECT_EQ(q_.dequeue(*hb_), std::optional<u64>{next_++});
      }
    });
  }

  Q q_;
  StepThread a_, b_;
  std::optional<Q::Handle> ha_, hb_;
  u64 next_ = 1;
};

TEST(UnboundedHazardPin, IdleSessionPinsItsSegmentUntilReleased) {
  PinnedSegment t;
  for (u64 k = 1; k <= 2; ++k) {
    t.retire_next();
    EXPECT_EQ(t.q_.retired_segments(), 1u) << "S was recycled under A's slot";
    EXPECT_EQ(t.q_.pooled_segments(), k);
  }
  t.a_.run([&] { t.ha_.reset(); });  // released on A's own thread
  t.retire_next();
  EXPECT_EQ(t.q_.retired_segments(), 0u) << "the release left S pinned";
  EXPECT_EQ(t.q_.pooled_segments(), 4u);
}

// A release on another thread must leave the slot alone (the tid's owner
// could be mid-operation on it), so S stays pinned until that tid's next
// operation moves the slot on.
TEST(UnboundedHazardPin, CrossThreadReleaseKeepsPinUntilTidsNextOp) {
  PinnedSegment t;
  t.ha_.reset();  // released on this thread, not A's
  t.retire_next();
  EXPECT_EQ(t.q_.retired_segments(), 1u)
      << "a foreign release cleared A's slot";
  EXPECT_EQ(t.q_.pooled_segments(), 1u);
  // A's tid moves on: its enqueue of the next element in line publishes
  // on the full tail segment, appends the pooled one and clears.
  t.a_.run([&] { EXPECT_TRUE(t.q_.enqueue(5 * PinnedSegment::kCap)); });
  t.retire_next();
  EXPECT_EQ(t.q_.retired_segments(), 0u) << "S stayed pinned";
  EXPECT_EQ(t.q_.pooled_segments(), 2u);
}

// A segment a peer still pins when its retirer unlinks it is reused by
// that retirer's next append once the peer has moved on (DESIGN.md §8).
// Owned sessions keep slot 0 set between operations, so at the unlink the
// peer B still publishes the drained segment S; A's retire list holds S
// below the scan threshold. A's first append after that rescans, finds S
// pinned and allocates; once B's next enqueue moves its slot to the new
// tail, A's next append rescans, resets S into the pool and links it again
// without allocating. The byte equality is the steady-state bound's (ROADMAP
// item 4): the queue's fixed parts, the retire-list buffers and one
// segment_bytes() per linked, pooled or retired segment.
TEST(UnboundedSegmentReuse, AppendReusesSegmentPeerPinnedAtUnlink) {
  using Q = UnboundedQueue<u64>;
  constexpr u64 kCap = 4;
  const std::int64_t before = alloc_meter::live_bytes();
  auto* q = alloc_meter::create<Q>(Q::Options{.segment_order = 2});
  const std::int64_t segment = static_cast<std::int64_t>(q->segment_bytes());
  const std::int64_t fixed = alloc_meter::live_bytes() - before - segment;
  auto segments = [&] {
    return q->live_segments() + q->pooled_segments() + q->retired_segments();
  };
  auto bytes_are_segments = [&] {
    return alloc_meter::live_bytes() - before ==
           fixed + static_cast<std::int64_t>(q->reclaim_buffer_bytes()) +
               static_cast<std::int64_t>(segments()) * segment;
  };
  StepThread a, b;
  std::optional<Q::Handle> ha, hb;
  a.run([&] { ha.emplace(q->acquire()); });
  b.run([&] { hb.emplace(q->acquire()); });
  std::vector<u64> sent;
  auto send = [&](std::optional<Q::Handle>& h, u64 v) {
    ASSERT_TRUE(q->enqueue(*h, v));
    sent.push_back(v);
  };

  b.run([&] { send(hb, 100); });  // B's slot 0 now holds S
  a.run([&] {
    for (u64 i = 0; i < 2 * kCap - 1; ++i) send(ha, i);  // fills S, links S2
  });
  ASSERT_EQ(q->live_segments(), 2u);
  std::vector<u64> got;
  a.run([&] {
    // S's four elements, then the first of S2: A unlinks and retires S.
    for (u64 i = 0; i <= kCap; ++i) got.push_back(q->dequeue(*ha).value());
  });
  EXPECT_EQ(q->live_segments(), 1u);
  EXPECT_EQ(q->retired_segments(), 1u) << "S left A's retire list";
  EXPECT_TRUE(bytes_are_segments());

  // S2 is full: A's next enqueue appends while B still pins S.
  a.run([&] { send(ha, 200); });
  EXPECT_EQ(q->live_segments(), 2u);
  EXPECT_EQ(q->retired_segments(), 1u) << "S was reset under B's slot";
  EXPECT_EQ(q->pooled_segments(), 0u);
  EXPECT_EQ(segments(), 3u);
  EXPECT_TRUE(bytes_are_segments());

  b.run([&] { send(hb, 300); });  // B moves its slot to the new tail
  const std::int64_t live = alloc_meter::live_bytes();
  const std::int64_t allocs = alloc_meter::total_allocations();
  a.run([&] {
    // Two fill the tail segment, the third appends.
    for (u64 i = 0; i < 3; ++i) send(ha, 400 + i);
  });
  EXPECT_EQ(q->live_segments(), 3u);
  EXPECT_EQ(q->retired_segments(), 0u) << "the append did not rescan";
  EXPECT_EQ(q->pooled_segments(), 0u) << "S was pooled but not reused";
  EXPECT_EQ(alloc_meter::total_allocations(), allocs)
      << "the append allocated while S was reusable";
  EXPECT_EQ(alloc_meter::live_bytes(), live);
  EXPECT_TRUE(bytes_are_segments());

  a.run([&] {
    while (auto v = q->dequeue(*ha)) got.push_back(*v);
  });
  EXPECT_EQ(got, sent);
  b.run([&] { hb.reset(); });
  a.run([&] { ha.reset(); });
  alloc_meter::destroy(q);
  EXPECT_EQ(alloc_meter::live_bytes(), before);
}

}  // namespace
}  // namespace wcq
