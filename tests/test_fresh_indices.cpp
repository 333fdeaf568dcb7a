// Fresh-index counter and retired indices (DESIGN.md §8, §9).
//
// BoundedQueue's fq starts empty: never-issued indices come from one
// counter, so construction runs no ring operation, and each of the
// capacity() indices is issued once. UnboundedQueue's finalized segments
// retire freed indices instead of recycling them; only a segment reset()
// brings them back. These tests pin both halves over every ring, with
// magazines on and off.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "common/op_counters.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq_llsc.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

template <typename R, bool Magazine>
struct Config {
  using Ring = R;
  static constexpr bool kMagazine = Magazine;
};

template <typename C>
class FreshIndexTest : public ::testing::Test {
 protected:
  template <typename T>
  using Queue = BoundedQueue<T, typename C::Ring>;

  template <typename T>
  static typename Queue<T>::Options options(unsigned order) {
    return {order, {.enabled = C::kMagazine}};
  }
};

using Configs =
    ::testing::Types<Config<WCQ, true>, Config<WCQ, false>, Config<SCQ, true>,
                     Config<SCQ, false>, Config<WCQLLSC, true>,
                     Config<WCQLLSC, false>>;
TYPED_TEST_SUITE(FreshIndexTest, Configs);

u64 faa_count() { return opcount::snapshot().faa; }

// Records the address each payload is moved into while `log` is set, so a
// fill can check that every enqueue landed in its own data slot.
struct SlotProbe {
  static std::vector<const void*>* log;
  u64 v = 0;
  explicit SlotProbe(u64 x) noexcept : v(x) {}
  SlotProbe(SlotProbe&& o) noexcept : v(o.v) {
    if (log != nullptr) log->push_back(this);
  }
  SlotProbe& operator=(SlotProbe&&) noexcept = default;
};
std::vector<const void*>* SlotProbe::log = nullptr;

TYPED_TEST(FreshIndexTest, ConstructionCostsNoRingFaa) {
  const u64 before = faa_count();
  typename TestFixture::template Queue<u64> q(
      TestFixture::template options<u64>(4));
  EXPECT_EQ(faa_count() - before, 0u) << "construction pre-filled fq";
}

TYPED_TEST(FreshIndexTest, FillIsExactWithDistinctSlotsAfterConstruct) {
  using Probe = SlotProbe;
  typename TestFixture::template Queue<Probe> q(
      TestFixture::template options<Probe>(4));
  std::vector<const void*> slots;
  SlotProbe::log = &slots;
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_TRUE(q.enqueue(Probe(i))) << "full at " << i;
  }
  SlotProbe::log = nullptr;
  EXPECT_FALSE(q.enqueue(Probe(999))) << "over capacity";
  ASSERT_EQ(slots.size(), q.capacity());
  EXPECT_EQ(std::set<const void*>(slots.begin(), slots.end()).size(),
            q.capacity())
      << "two enqueues shared a payload slot";
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_EQ(q.dequeue().value().v, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

// A thread that registers with a tid at or past the registry high water
// runs on a wCQ record and a magazine row no thread has written. This
// thread's half-drain leaves freed indices in its own magazine, so the
// newcomer reaches the last free indices only through fq and the full-edge
// sweep; it must admit exactly the free half, and the drain must see both
// halves once each in FIFO order.
TYPED_TEST(FreshIndexTest, TidPastHighWaterFillsExactly) {
  typename TestFixture::template Queue<u64> q(
      TestFixture::template options<u64>(6));
  const u64 n = q.capacity();
  for (u64 i = 0; i < n; ++i) ASSERT_TRUE(q.enqueue(i));
  for (u64 i = 0; i < n / 2; ++i) ASSERT_EQ(q.dequeue().value(), i);
  if (TypeParam::kMagazine) {
    ASSERT_GT(q.magazine_cached(), 0u);
  }
  const unsigned hw = ThreadRegistry::high_water();
  if (hw >= 64) GTEST_SKIP() << "registry high water too high to pass";

  // Park holder threads on every free tid below the high water, so the
  // next thread to register gets one at or past it.
  std::atomic<bool> release{false};
  std::vector<std::thread> holders;
  while (ThreadRegistry::live_threads() < hw) {
    std::atomic<bool> registered{false};
    holders.emplace_back([&] {
      (void)ThreadRegistry::tid();
      registered.store(true, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    while (!registered.load(std::memory_order_acquire)) {
    }
  }
  std::thread newcomer([&] {
    EXPECT_GE(ThreadRegistry::tid(), hw);
    u64 filled = 0;
    while (filled <= n && q.enqueue(n + filled)) ++filled;
    EXPECT_EQ(filled, n / 2);
    for (u64 i = n / 2; i < n + filled; ++i) {
      ASSERT_EQ(q.dequeue().value(), i);
    }
    EXPECT_FALSE(q.dequeue().has_value());
  });
  newcomer.join();
  release.store(true, std::memory_order_release);
  for (auto& t : holders) t.join();
}

// Four threads race for the last few fresh indices of a nearly full queue.
// Each enqueues until it sees full; together they must admit exactly the
// remaining capacity — a lost index would admit fewer, a duplicated one
// more (and show up twice in the drain). Each round builds a new queue, so
// every index the racers take comes from the fresh counter.
TYPED_TEST(FreshIndexTest, ConcurrentRaceForLastFreshIndicesIsExact) {
  constexpr unsigned kThreads = 4;
  for (int round = 0; round < 20; ++round) {
    typename TestFixture::template Queue<u64> q(
        TestFixture::template options<u64>(6));
    const u64 n = q.capacity();
    const u64 prefill = n - 2 * kThreads - static_cast<u64>(round % 3);
    for (u64 i = 0; i < prefill; ++i) ASSERT_TRUE(q.enqueue(i));

    std::atomic<unsigned> ready{0};
    std::atomic<u64> admitted{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
      ts.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        u64 mine = 0;
        while (q.enqueue((u64{t + 1} << 32) | mine)) ++mine;
        admitted.fetch_add(mine);
      });
    }
    for (auto& th : ts) th.join();
    EXPECT_EQ(admitted.load(), n - prefill) << "round " << round;

    std::set<u64> seen;
    while (auto v = q.dequeue()) {
      EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
    }
    EXPECT_EQ(seen.size(), n) << "round " << round;
  }
}

// UnboundedQueue on 4-element segments: fill, drain, flush retirements,
// refill. Segments never recycle a dequeued index, so the refill is exact
// only if the pooled segments got every index back through reset(): k
// segments must hold the 4k items again, each with exactly 4. Segments
// have no magazines, so the magazine parameter does not apply here. From
// the second fill on, the previous fill's drained tail is still linked
// with every index spent; the refill finalizes it and the first dequeue
// unlinks it, so the count is taken after that dequeue.
TYPED_TEST(FreshIndexTest, UnboundedRefillKeepsEverySegmentFull) {
  using Ring = typename TypeParam::Ring;
  typename UnboundedQueue<u64, Ring>::Options o;
  o.segment_order = 2;
  UnboundedQueue<u64, Ring> q(o);
  constexpr u64 kSegments = 8;
  constexpr u64 kItems = 4 * kSegments;
  for (int gen = 0; gen < 3; ++gen) {
    for (u64 i = 0; i < kItems; ++i) ASSERT_TRUE(q.enqueue(i));
    ASSERT_EQ(q.dequeue().value(), 0u) << "gen " << gen;
    EXPECT_EQ(q.live_segments(), kSegments)
        << "gen " << gen << ": a segment holds fewer than 4 items";
    for (u64 i = 1; i < kItems; ++i) {
      ASSERT_EQ(q.dequeue().value(), i) << "gen " << gen;
    }
    EXPECT_FALSE(q.dequeue().has_value());
    q.reclaim_flush();
  }
}

}  // namespace
}  // namespace wcq
