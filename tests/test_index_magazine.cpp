// Per-thread free-index magazines (scale/index_magazine.hpp, DESIGN.md §9).
//
// The magazine layer relaxes BoundedQueue's "full" detection (fq empty is no
// longer authoritative — cached indices must be swept) and adds two new ways
// for an index to travel: a cross-thread steal at the full edge and a
// thread-exit flush back to fq. These tests pin the invariant all of that
// must preserve: every one of the queue's capacity() indices is exactly-once
// — reachable after any interleaving of caching, stealing, thread exit and
// queue reset, and never duplicated.
#include "scale/index_magazine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

TEST(IndexMagazineUnit, DisabledSetIsInert) {
  IndexMagazines none;
  EXPECT_FALSE(none.enabled());
  EXPECT_EQ(none.capacity(), 0u);
  EXPECT_EQ(none.cached_total(), 0u);
  u64 buf[4];
  EXPECT_EQ(none.drain_tid(0, buf, 4), 0u);

  IndexMagazines zero(0);
  EXPECT_FALSE(zero.enabled());
}

TEST(IndexMagazineUnit, PutTakeRoundTrip) {
  IndexMagazines mags(8);
  ASSERT_TRUE(mags.enabled());
  std::atomic<u64>* mine = mags.block_for(ThreadRegistry::tid());
  for (u64 i = 0; i < 5; ++i) {
    ASSERT_TRUE(mags.try_put_at(mine, 100 + i));
  }
  EXPECT_EQ(mags.cached_total(), 5u);
  std::set<u64> got;
  u64 v;
  while (mags.try_take_at(mine, v)) got.insert(v);
  EXPECT_EQ(got, (std::set<u64>{100, 101, 102, 103, 104}));
  EXPECT_EQ(mags.cached_total(), 0u);
  EXPECT_FALSE(mags.try_take_at(mine, v));
}

TEST(IndexMagazineUnit, CapacityBound) {
  IndexMagazines mags(4);
  std::atomic<u64>* mine = mags.block_for(ThreadRegistry::tid());
  for (u64 i = 0; i < 4; ++i) ASSERT_TRUE(mags.try_put_at(mine, i));
  EXPECT_FALSE(mags.try_put_at(mine, 99))
      << "a full magazine must reject puts";
  u64 buf[8];
  EXPECT_EQ(mags.take_some_at(mine, buf, 8), 4u);
  EXPECT_TRUE(mags.try_put_at(mine, 99));
}

TEST(IndexMagazineUnit, ConfigCapacityClampsToMaxSlots) {
  IndexMagazines mags(1000);
  EXPECT_EQ(mags.capacity(), IndexMagazines::kMaxSlots);
}

TEST(IndexMagazineUnit, StealTakesFromPeerNotSelf) {
  IndexMagazines mags(4);
  const unsigned self = ThreadRegistry::tid();
  std::atomic<u64>* mine = mags.block_for(self);
  // Our own cached indices are not steal targets (steal is the full-edge
  // path that runs after try_take_at already missed).
  ASSERT_TRUE(mags.try_put_at(mine, 7));
  u64 v;
  EXPECT_FALSE(mags.steal_for(self, v));
  ASSERT_TRUE(mags.try_take_at(mine, v));

  // A parked peer's cached indices are.
  std::atomic<bool> parked{false}, release{false};
  std::thread peer([&] {
    std::atomic<u64>* row = mags.block_for(ThreadRegistry::tid());
    ASSERT_TRUE(mags.try_put_at(row, 41));
    ASSERT_TRUE(mags.try_put_at(row, 42));
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
    }
    // Whatever main did not steal is still drainable by the owner.
    u64 rest[4];
    const std::size_t left = mags.take_some_at(row, rest, 4);
    EXPECT_EQ(left, 1u);
  });
  while (!parked.load(std::memory_order_acquire)) {
  }
  ASSERT_TRUE(mags.steal_for(self, v));
  EXPECT_TRUE(v == 41 || v == 42);
  release.store(true, std::memory_order_release);
  peer.join();
  EXPECT_EQ(mags.cached_total(), 0u);
}

TEST(IndexMagazineUnit, DrainTidCollectsEverySlot) {
  IndexMagazines mags(6);
  unsigned peer_tid = 0;
  std::thread peer([&] {
    peer_tid = ThreadRegistry::tid();
    std::atomic<u64>* row = mags.block_for(peer_tid);
    for (u64 i = 0; i < 6; ++i) ASSERT_TRUE(mags.try_put_at(row, i));
  });
  peer.join();
  u64 buf[IndexMagazines::kMaxSlots];
  const std::size_t got =
      mags.drain_tid(peer_tid, buf, IndexMagazines::kMaxSlots);
  EXPECT_EQ(got, 6u);
  EXPECT_EQ(mags.cached_total(), 0u);
}

// The take CAS is the magazine's only synchronization: there is no count
// word to keep consistent, so an index the owner parks must reach exactly
// one taker however the owner's own takes, two full-edge sweeps and a
// cross-thread drain interleave on one row. A take that cleared its slot
// with a plain store would let two takers claim one index, or erase an
// index the owner had just re-parked in the same slot.
TEST(IndexMagazineRace, OwnerStealersAndDrainerSeeEachIndexExactlyOnce) {
  IndexMagazines mags(16);
  constexpr u64 kIndices = 200000;
  std::atomic<unsigned> owner_tid{~0u};
  std::atomic<bool> done{false};
  std::vector<u64> kept, stolen[2], drained;

  std::thread owner([&] {
    const unsigned me = ThreadRegistry::tid();
    std::atomic<u64>* row = mags.block_for(me);
    owner_tid.store(me, std::memory_order_release);
    u64 v;
    for (u64 i = 0; i < kIndices; ++i) {
      while (!mags.try_put_at(row, i)) {  // full: take one back to make room
        if (mags.try_take_at(row, v)) kept.push_back(v);
      }
      if (i % 3 == 0 && mags.try_take_at(row, v)) kept.push_back(v);
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> takers;
  for (auto& out : stolen) {
    takers.emplace_back([&] {
      const unsigned me = ThreadRegistry::tid();
      u64 v;
      while (!done.load(std::memory_order_acquire)) {
        if (mags.steal_for(me, v)) out.push_back(v);
      }
    });
  }
  takers.emplace_back([&] {
    unsigned t;
    while ((t = owner_tid.load(std::memory_order_acquire)) == ~0u) {
    }
    u64 buf[IndexMagazines::kMaxSlots];
    while (!done.load(std::memory_order_acquire)) {
      const std::size_t n = mags.drain_tid(t, buf, IndexMagazines::kMaxSlots);
      drained.insert(drained.end(), buf, buf + n);
    }
  });
  owner.join();
  for (auto& t : takers) t.join();

  std::vector<u64> seen = kept;
  for (const auto& out : stolen) seen.insert(seen.end(), out.begin(), out.end());
  seen.insert(seen.end(), drained.begin(), drained.end());
  ASSERT_LE(seen.size(), kIndices) << "an index was claimed twice";
  EXPECT_EQ(mags.cached_total(), kIndices - seen.size())
      << "cached_total() must be exact at quiescence";
  u64 rest[IndexMagazines::kMaxSlots];
  const std::size_t n =
      mags.drain_tid(owner_tid.load(), rest, IndexMagazines::kMaxSlots);
  seen.insert(seen.end(), rest, rest + n);
  EXPECT_EQ(mags.cached_total(), 0u);
  ASSERT_EQ(seen.size(), kIndices) << "an index was lost or claimed twice";
  std::vector<bool> hit(kIndices, false);
  for (u64 v : seen) {
    ASSERT_LT(v, kIndices);
    ASSERT_FALSE(hit[v]) << "index " << v << " claimed twice";
    hit[v] = true;
  }
}

// --- BoundedQueue integration ----------------------------------------------

TEST(BoundedMagazine, OptionsClampAndToggle) {
  // capacity/4 clamp: a 2^4 = 16-element queue gets at most 4 slots.
  BoundedQueue<u64> small(
      BoundedQueue<u64>::Options{4, {.enabled = true, .capacity = 64}});
  EXPECT_EQ(small.magazine_capacity(), 4u);
  // Tiny rings disable themselves (capacity/4 < 1).
  BoundedQueue<u64> tiny(BoundedQueue<u64>::Options{1, {}});
  EXPECT_EQ(tiny.magazine_capacity(), 0u);
  // Off reproduces the plain double ring.
  BoundedQueue<u64> off(
      BoundedQueue<u64>::Options{6, {.enabled = false, .capacity = 16}});
  EXPECT_EQ(off.magazine_capacity(), 0u);
  for (u64 i = 0; i < off.capacity(); ++i) ASSERT_TRUE(off.enqueue(i));
  EXPECT_FALSE(off.enqueue(0));
  EXPECT_EQ(off.magazine_cached(), 0u);
}

TEST(BoundedMagazine, FullSemanticsStayExact) {
  // The magazine-relaxed "full" must still be exact in quiescent state:
  // claim order is magazine -> fresh counter -> fq -> reclaim steal, so a
  // single thread sees precisely capacity() successes.
  BoundedQueue<u64> q(BoundedQueue<u64>::Options{3, {}});
  for (u64 i = 0; i < q.capacity(); ++i) {
    EXPECT_TRUE(q.enqueue(i)) << "queue full too early at " << i;
  }
  EXPECT_FALSE(q.enqueue(999)) << "enqueue must fail when full";
  auto v = q.dequeue();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0u);
  // The freed index is cached in this thread's magazine, not in fq.
  EXPECT_TRUE(q.enqueue(999)) << "one slot freed: enqueue must succeed";
  EXPECT_FALSE(q.enqueue(1000));
}

TEST(BoundedMagazine, StealRecoversCachedIndicesAtFullEdge) {
  // A parked consumer holds freed indices in its magazine; a producer that
  // finds fq empty must reclaim them rather than report full (the relaxed
  // contract's "cached-but-unused indices cannot wedge the queue").
  BoundedQueue<u64> q(BoundedQueue<u64>::Options{4, {}});  // cap 16, mag 4
  ASSERT_EQ(q.magazine_capacity(), 4u);
  for (u64 i = 0; i < q.capacity(); ++i) ASSERT_TRUE(q.enqueue(i));

  std::atomic<bool> parked{false}, release{false};
  std::thread consumer([&] {
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.dequeue().has_value());
    }
    parked.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
    }
  });
  while (!parked.load(std::memory_order_acquire)) {
  }
  // All free indices live in the parked consumer's magazine now.
  EXPECT_EQ(q.magazine_cached(), 3u);
  for (u64 i = 0; i < 3; ++i) {
    EXPECT_TRUE(q.enqueue(100 + i)) << "steal must recover cached index " << i;
  }
  EXPECT_FALSE(q.enqueue(999)) << "after the steals the queue is truly full";
  release.store(true, std::memory_order_release);
  consumer.join();
}

TEST(BoundedMagazine, ExitHookFlushesDyingThreadsMagazine) {
  BoundedQueue<u64> q(BoundedQueue<u64>::Options{4, {}});  // cap 16, mag 4
  std::thread worker([&] {
    for (u64 i = 0; i < 8; ++i) ASSERT_TRUE(q.enqueue(i));
    for (u64 i = 0; i < 8; ++i) ASSERT_TRUE(q.dequeue().has_value());
    // The worker's magazine now caches freed indices...
    EXPECT_GT(q.magazine_cached(), 0u);
  });
  worker.join();
  // ...and its exit hook flushed them back to fq.
  EXPECT_EQ(q.magazine_cached(), 0u) << "exit flush did not run";
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_TRUE(q.enqueue(i)) << "flushed index unreachable at " << i;
  }
  EXPECT_FALSE(q.enqueue(999));
}

TEST(BoundedMagazine, BulkPathsUseAndRefillMagazines) {
  BoundedQueue<u64> q(BoundedQueue<u64>::Options{6, {}});  // cap 64, mag 16
  const u64 n = q.capacity();
  std::vector<u64> in(n), out(n, ~u64{0});
  for (u64 i = 0; i < n; ++i) in[i] = i;
  EXPECT_EQ(q.enqueue_bulk(in.data(), n), n);
  EXPECT_EQ(q.dequeue_bulk(out.data(), n), n);
  for (u64 i = 0; i < n; ++i) ASSERT_EQ(out[i], i);
  // The bulk release topped the magazine up; bulk claim must use it again.
  EXPECT_GT(q.magazine_cached(), 0u);
  EXPECT_EQ(q.enqueue_bulk(in.data(), n), n);
  EXPECT_EQ(q.dequeue_bulk(out.data(), n), n);
  EXPECT_FALSE(q.dequeue().has_value());
}

int g_ledger_ctors = 0;
int g_ledger_dtors = 0;
struct LedgerPayload {
  int* canary;
  LedgerPayload() : canary(new int(42)) { ++g_ledger_ctors; }
  LedgerPayload(LedgerPayload&& o) noexcept : canary(o.canary) {
    ++g_ledger_ctors;
    o.canary = nullptr;
  }
  LedgerPayload(const LedgerPayload&) = delete;
  LedgerPayload& operator=(LedgerPayload&&) = delete;
  ~LedgerPayload() {
    delete canary;
    canary = nullptr;
    ++g_ledger_dtors;
  }
};

TEST(BoundedMagazine, DestructionExactlyOnceWithCachedIndices) {
  // Destroy a queue whose free indices are scattered across fq, a live
  // thread's magazine (flushed by exit) and this thread's magazine, with
  // payloads still in flight. Every constructed payload must be destroyed
  // exactly once (the heap canary turns a miss into an ASan report).
  g_ledger_ctors = 0;
  g_ledger_dtors = 0;
  {
    BoundedQueue<LedgerPayload> q(
        BoundedQueue<LedgerPayload>::Options{4, {}});  // cap 16, mag 4
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.enqueue(LedgerPayload{}));
    std::thread consumer([&] {
      for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.dequeue().has_value());
    });
    consumer.join();
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(q.dequeue().has_value());
    ASSERT_GT(g_ledger_ctors, g_ledger_dtors) << "queue should be non-empty";
  }
  EXPECT_EQ(g_ledger_ctors, g_ledger_dtors)
      << "each constructed payload must be destroyed exactly once";
}

// Thread-churn exactness (the ISSUE 4 acceptance test): waves of short-lived
// threads cache and free indices mid-traffic; after quiesce the queue must
// still have exactly capacity() reachable indices — none leaked in a dead
// thread's magazine, none duplicated by the exit flush racing the sweep.
TEST(IndexMagazineChurnTest, ThreadWavesCapacityExactAfterQuiesce) {
  BoundedQueue<u64> q(BoundedQueue<u64>::Options{6, {}});  // cap 64, mag 16
  ASSERT_EQ(q.magazine_capacity(), 16u);
  for (int wave = 0; wave < 12; ++wave) {
    std::vector<std::thread> ts;
    for (int t = 0; t < 3; ++t) {
      ts.emplace_back([&, wave, t] {
        Xoshiro256 rng{static_cast<u64>(wave) * 31 + t + 1};
        for (int i = 0; i < 1500; ++i) {
          if (rng.coin()) {
            (void)q.enqueue(rng.next());  // full is fine mid-traffic
          } else {
            (void)q.dequeue();
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  // Quiesce: drain whatever the waves left behind.
  u64 drained = 0;
  while (q.dequeue().has_value()) ++drained;
  EXPECT_LE(drained, q.capacity());
  // Capacity exactness: every index is claimable, and not one more.
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_TRUE(q.enqueue(i)) << "index leaked across thread churn at " << i;
  }
  EXPECT_FALSE(q.enqueue(999)) << "index duplicated across thread churn";
  for (u64 i = 0; i < q.capacity(); ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i) << "FIFO broken after churn";
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

// Segment recycling under thread churn: waves of short-lived threads on
// 8-element segments, so segments finalize, recycle and reset while tids
// are released and reused, and a reused tid inherits its predecessor's
// span row (DESIGN.md §4). Segments carry no magazines; the test keeps its
// name and body as a churn canary for the one-shot segments. Exactly-once
// accounting catches a lost or duplicated element; tsan (CI picks) catches
// a race.
TEST(IndexMagazineChurnTest, SegmentRecycleUnderThreadChurn) {
  UnboundedQueue<u64>::Options opt;
  opt.segment_order = 3;  // 8/segment: constant finalize/recycle/reset
  UnboundedQueue<u64> q(opt);
  std::atomic<u64> enqueued{0}, dequeued{0};
  for (int wave = 0; wave < 10; ++wave) {
    std::vector<std::thread> ts;
    for (int t = 0; t < 3; ++t) {
      ts.emplace_back([&, wave, t] {
        Xoshiro256 rng{static_cast<u64>(wave) * 17 + t + 1};
        for (int i = 0; i < 1200; ++i) {
          if (rng.coin()) {
            ASSERT_TRUE(q.enqueue(rng.next()));
            enqueued.fetch_add(1, std::memory_order_relaxed);
          } else if (q.dequeue().has_value()) {
            dequeued.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  u64 drained = 0;
  while (q.dequeue().has_value()) ++drained;
  EXPECT_EQ(enqueued.load() - dequeued.load(), drained)
      << "element lost or duplicated across recycle/exit interleavings";
}

// --- UnboundedQueue integration --------------------------------------------

int g_copy_count = 0;
struct CopyCounter {
  u64 v = 0;
  CopyCounter() = default;
  explicit CopyCounter(u64 x) : v(x) {}
  CopyCounter(const CopyCounter& o) : v(o.v) { ++g_copy_count; }
  CopyCounter(CopyCounter&& o) noexcept : v(o.v) {}
  CopyCounter& operator=(const CopyCounter& o) {
    v = o.v;
    ++g_copy_count;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&& o) noexcept {
    v = o.v;
    return *this;
  }
};

TEST(UnboundedMagazine, EnqueueChainMovesNotCopies) {
  // The old chain (T value -> Segment::enqueue(const T&) -> by-value ring
  // enqueue) copied every payload twice; the enqueue_movable chain must not
  // copy at all, including across segment finalize/append transitions.
  g_copy_count = 0;
  UnboundedQueue<CopyCounter> q(2);  // 4 elements/segment: constant appends
  for (u64 i = 0; i < 100; ++i) {
    ASSERT_TRUE(q.enqueue(CopyCounter{i}));
  }
  EXPECT_EQ(g_copy_count, 0) << "unbounded enqueue copied a payload";
  for (u64 i = 0; i < 100; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(v->v, i);
  }
  EXPECT_EQ(g_copy_count, 0);
}

TEST(UnboundedMagazine, MoveOnlyPayload) {
  // Compiles only with the moving chain (unique_ptr has no copy ctor).
  UnboundedQueue<std::unique_ptr<u64>> q(2);
  for (u64 i = 0; i < 40; ++i) {
    ASSERT_TRUE(q.enqueue(std::make_unique<u64>(i)));
  }
  for (u64 i = 0; i < 40; ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(**v, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(UnboundedMagazine, SegmentsStillFinalizeAndRecycle) {
  // Span rows must not delay segment finalization: a fill/drain loop over
  // small segments still recycles through the pool (steady-state
  // allocation-freedom is separately pinned by
  // SegmentRecyclingTypedTest.SteadyStateZeroAllocations).
  UnboundedQueue<u64>::Options opt;
  opt.segment_order = 4;
  UnboundedQueue<u64> q(opt);
  for (int round = 0; round < 50; ++round) {
    for (u64 i = 0; i < 64; ++i) ASSERT_TRUE(q.enqueue(i));
    for (u64 i = 0; i < 64; ++i) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, i);
    }
  }
  q.reclaim_flush();
  EXPECT_LT(q.live_segments(), 8u) << "segments not finalizing/unlinking";
  EXPECT_GT(q.pooled_segments(), 0u) << "segments not reaching the pool";
}

}  // namespace
}  // namespace wcq
