// BoundedQueue (paper Fig 2 indirection) tests over both ring types.
#include "core/bounded_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>

#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

template <typename Ring>
class BoundedQueueTest : public ::testing::Test {};

using RingTypes = ::testing::Types<WCQ, SCQ, WCQLLSC>;
TYPED_TEST_SUITE(BoundedQueueTest, RingTypes);

TYPED_TEST(BoundedQueueTest, SequentialFifo) {
  BoundedQueue<u64, TypeParam> q(8);
  testing::run_sequential_fifo(q, q.capacity());
}

TYPED_TEST(BoundedQueueTest, Wraparound) {
  BoundedQueue<u64, TypeParam> q(4);
  testing::run_sequential_wraparound(q, q.capacity(), 200);
}

TYPED_TEST(BoundedQueueTest, FullSemantics) {
  BoundedQueue<u64, TypeParam> q(3);
  for (u64 i = 0; i < q.capacity(); ++i) {
    EXPECT_TRUE(q.enqueue(i)) << "queue full too early at " << i;
  }
  EXPECT_FALSE(q.enqueue(999)) << "enqueue must fail when full";
  auto v = q.dequeue();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 0u);
  EXPECT_TRUE(q.enqueue(999)) << "one slot freed: enqueue must succeed";
  EXPECT_FALSE(q.enqueue(1000));
}

TYPED_TEST(BoundedQueueTest, MpmcExactlyOnce) {
  BoundedQueue<u64, TypeParam> q(10);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 30000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TYPED_TEST(BoundedQueueTest, MpmcTinyQueueBackpressure) {
  BoundedQueue<u64, TypeParam> q(2);  // capacity 4: producers hit full often
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 10000;
  testing::run_mpmc_exactly_once(q, cfg);
}

TYPED_TEST(BoundedQueueTest, AsymmetricProducersConsumers) {
  BoundedQueue<u64, TypeParam> q(8);
  testing::MpmcConfig cfg;
  cfg.producers = 7;
  cfg.consumers = 1;
  cfg.items_per_producer = 10000;
  testing::run_mpmc_exactly_once(q, cfg);
  BoundedQueue<u64, TypeParam> q2(8);
  cfg.producers = 1;
  cfg.consumers = 7;
  testing::run_mpmc_exactly_once(q2, cfg);
}

TYPED_TEST(BoundedQueueTest, MoveOnlyPayload) {
  BoundedQueue<std::unique_ptr<int>, TypeParam> q(4);
  EXPECT_TRUE(q.enqueue(std::make_unique<int>(41)));
  EXPECT_TRUE(q.enqueue(std::make_unique<int>(42)));
  auto a = q.dequeue();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(**a, 41);
  auto b = q.dequeue();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(**b, 42);
  EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(BoundedQueueTest, StringPayload) {
  BoundedQueue<std::string, TypeParam> q(4);
  const std::string long_string(1000, 'x');  // heap-allocated payload
  EXPECT_TRUE(q.enqueue(long_string + "1"));
  EXPECT_TRUE(q.enqueue(long_string + "2"));
  EXPECT_EQ(q.dequeue().value(), long_string + "1");
  EXPECT_EQ(q.dequeue().value(), long_string + "2");
}

int g_payload_live = 0;
struct CountedPayload {
  bool owns = true;
  CountedPayload() { ++g_payload_live; }
  CountedPayload(CountedPayload&& o) noexcept {
    ++g_payload_live;
    o.owns = false;
  }
  CountedPayload(const CountedPayload&) = delete;
  ~CountedPayload() { --g_payload_live; }
};

TYPED_TEST(BoundedQueueTest, DestructorReleasesInFlightPayloads) {
  g_payload_live = 0;
  {
    BoundedQueue<CountedPayload, TypeParam> q(4);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.enqueue(CountedPayload{}));
    }
    ASSERT_TRUE(q.dequeue().has_value());
  }
  EXPECT_EQ(g_payload_live, 0) << "payloads leaked by queue destructor";
}

// A full queue whose indices have been through the free-index path (the
// magazine and fq, not only the fresh counter) still destroys every payload
// it holds when it goes out of scope.
TYPED_TEST(BoundedQueueTest, DestructorReleasesFullQueue) {
  g_payload_live = 0;
  {
    BoundedQueue<CountedPayload, TypeParam> q(3);
    for (int round = 0; round < 2; ++round) {
      for (u64 i = 0; i < q.capacity(); ++i) {
        ASSERT_TRUE(q.enqueue(CountedPayload{})) << "round " << round;
      }
      ASSERT_FALSE(q.enqueue(CountedPayload{})) << "round " << round;
      EXPECT_EQ(g_payload_live, static_cast<int>(q.capacity()));
      if (round == 0) {
        for (u64 i = 0; i < q.capacity(); ++i) {
          ASSERT_TRUE(q.dequeue().has_value());
        }
        EXPECT_EQ(g_payload_live, 0);
      }
    }
  }
  EXPECT_EQ(g_payload_live, 0) << "payloads leaked by queue destructor";
}

// Construction/destruction ledger: every constructed instance must be
// destroyed exactly once. The heap canary turns a double-destruction into a
// double-free and a missed destruction into a leak, which the ASan preset
// reports even if the counters were fooled.
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

TYPED_TEST(BoundedQueueTest, DestructionWhileNonEmptyIsExactlyOnce) {
  g_ledger_ctors = 0;
  g_ledger_dtors = 0;
  {
    BoundedQueue<LedgerPayload, TypeParam> q(3);
    // Leave the queue non-empty, with history: fill, drain some, refill.
    for (u64 i = 0; i < q.capacity(); ++i) {
      ASSERT_TRUE(q.enqueue(LedgerPayload{}));
    }
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.dequeue().has_value());
    for (int i = 0; i < 2; ++i) ASSERT_TRUE(q.enqueue(LedgerPayload{}));
    ASSERT_GT(g_ledger_ctors, g_ledger_dtors) << "queue should be non-empty";
  }
  EXPECT_EQ(g_ledger_ctors, g_ledger_dtors)
      << "each constructed payload must be destroyed exactly once";
}

// ---- batch operations (DESIGN.md §7) --------------------------------------

TYPED_TEST(BoundedQueueTest, BulkSequentialFifo) {
  BoundedQueue<u64, TypeParam> q(7);
  const u64 n = q.capacity();
  std::vector<u64> in(n), out(n, ~u64{0});
  for (u64 i = 0; i < n; ++i) in[i] = i;
  EXPECT_EQ(q.enqueue_bulk(in.data(), n), n);
  EXPECT_EQ(q.dequeue_bulk(out.data(), n), n);
  for (u64 i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], i) << "bulk span must preserve FIFO order";
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(BoundedQueueTest, BulkPartialSuccessOnFullAndEmpty) {
  BoundedQueue<u64, TypeParam> q(3);  // capacity 8
  std::vector<u64> in(q.capacity() + 3);
  for (u64 i = 0; i < in.size(); ++i) in[i] = i;
  EXPECT_EQ(q.enqueue_bulk(in.data(), in.size()), q.capacity())
      << "bulk enqueue stops at full, reporting the accepted prefix";
  std::vector<u64> out(in.size(), ~u64{0});
  EXPECT_EQ(q.dequeue_bulk(out.data(), out.size()), q.capacity())
      << "bulk dequeue returns what was present";
  for (u64 i = 0; i < q.capacity(); ++i) ASSERT_EQ(out[i], i);
  EXPECT_EQ(q.dequeue_bulk(out.data(), 4), 0u);
  // Spans crossing the ring boundary many times.
  u64 next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    u64 burst[5];
    for (u64& b : burst) b = next_in++;
    ASSERT_EQ(q.enqueue_bulk(burst, 5), 5u);
    u64 got[5];
    ASSERT_EQ(q.dequeue_bulk(got, 5), 5u);
    for (u64 g : got) ASSERT_EQ(g, next_out++);
  }
}

TYPED_TEST(BoundedQueueTest, BulkMoveOnlyPayloadMovesExactlyTaken) {
  BoundedQueue<std::unique_ptr<int>, TypeParam> q(2);  // capacity 4
  std::unique_ptr<int> in[6];
  for (int i = 0; i < 6; ++i) in[i] = std::make_unique<int>(i);
  const std::size_t taken = q.enqueue_bulk(in, 6);
  EXPECT_EQ(taken, q.capacity());
  for (std::size_t i = 0; i < 6; ++i) {
    if (i < taken) {
      EXPECT_EQ(in[i], nullptr) << "accepted element must be moved-from";
    } else {
      ASSERT_NE(in[i], nullptr) << "rejected element must keep ownership";
      EXPECT_EQ(*in[i], static_cast<int>(i));
    }
  }
  std::unique_ptr<int> out[6];
  EXPECT_EQ(q.dequeue_bulk(out, 6), taken);
  for (std::size_t i = 0; i < taken; ++i) {
    ASSERT_NE(out[i], nullptr);
    EXPECT_EQ(*out[i], static_cast<int>(i));
  }
}

TYPED_TEST(BoundedQueueTest, MpmcBulkExactlyOnce) {
  BoundedQueue<u64, TypeParam> q(10);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 20000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/16);
}

TYPED_TEST(BoundedQueueTest, MpmcBulkTinyQueueBackpressure) {
  BoundedQueue<u64, TypeParam> q(3);  // bulk spans larger than the queue
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 6000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/16);
}

// Ring layout (DESIGN.md §9): a ring is flat when one thread reads its
// ranks in order. With magazines on, fq only sees spans of consecutive
// ranks, so it is built flat; without them, or with a magazine clamped to
// 0, fq sees single operations and keeps Cache_Remap. aq is remapped iff
// its ring has more than one consumer: the MpscRing aq is flat, the WCQ
// and SCQ aq keep the remap, whatever the magazine. MpscRing's fq is the
// MPMC SCQ (DefaultFreeRing).
template <typename Ring>
class BoundedQueueLayoutTest : public ::testing::Test {
 protected:
  using Q = BoundedQueue<u64, Ring>;
  static constexpr bool kAqRemapped = !std::is_same_v<Ring, MpscRing>;
};

using LayoutRingTypes = ::testing::Types<WCQ, SCQ, MpscRing>;
TYPED_TEST_SUITE(BoundedQueueLayoutTest, LayoutRingTypes);

TYPED_TEST(BoundedQueueLayoutTest, MagazinesOnLayFreeRingFlat) {
  using Q = typename TestFixture::Q;
  Q q(typename Q::Options{8, {.enabled = true}});
  ASSERT_GT(q.magazine_capacity(), 0u);
  EXPECT_FALSE(q.fq().cache_remap());
  EXPECT_EQ(q.aq().cache_remap(), TestFixture::kAqRemapped);
}

TYPED_TEST(BoundedQueueLayoutTest, MagazinesOffKeepFreeRingRemapped) {
  using Q = typename TestFixture::Q;
  Q q(typename Q::Options{8, {.enabled = false}});
  ASSERT_EQ(q.magazine_capacity(), 0u);
  EXPECT_TRUE(q.fq().cache_remap());
  EXPECT_EQ(q.aq().cache_remap(), TestFixture::kAqRemapped);
}

// The fq rule follows the magazine's effective capacity, not the flag:
// order 3 clamps the magazine to capacity/4 = 2, still on, so fq is flat;
// a configured capacity of 0 clamps it to 0, fq sees single operations and
// keeps the remap. The aq rule ignores the magazine.
TYPED_TEST(BoundedQueueLayoutTest, ClampedMagazineFollowsEffectiveCapacity) {
  using Q = typename TestFixture::Q;
  Q small(typename Q::Options{3, {.enabled = true}});
  ASSERT_EQ(small.magazine_capacity(), 2u);
  EXPECT_FALSE(small.fq().cache_remap());
  EXPECT_EQ(small.aq().cache_remap(), TestFixture::kAqRemapped);

  Q empty(typename Q::Options{8, {.enabled = true, .capacity = 0}});
  ASSERT_EQ(empty.magazine_capacity(), 0u);
  EXPECT_TRUE(empty.fq().cache_remap());
  EXPECT_EQ(empty.aq().cache_remap(), TestFixture::kAqRemapped);
}

}  // namespace
}  // namespace wcq
