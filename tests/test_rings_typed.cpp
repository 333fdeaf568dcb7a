// Typed suite over the index rings (wCQ with CAS2, wCQ with simulated
// LL/SC, wCQ with native LL/SC where the ISA provides it, SCQ):
// ring-specific semantics every variant must share.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "core/scq.hpp"
#include "core/wcq.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

template <typename Ring>
class RingTypedTest : public ::testing::Test {};

// Named instantiations so CI can select backends by regex (the aarch64 job
// picks LL/SC rows with -R Llsc); the default Types<...>/0 indices can't.
class RingNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, WCQ>) {
      return "Wcq";
    } else if constexpr (std::is_same_v<T, WCQLLSC>) {
      return "WcqLlscSim";
    } else if constexpr (std::is_same_v<T, SCQ>) {
      return "Scq";
    } else {
      return "WcqLlscNative";
    }
  }
};

#if defined(WCQ_HAS_NATIVE_LLSC)
using RingTypes = ::testing::Types<WCQ, WCQLLSC, WCQLLSCNative, SCQ>;
#else
using RingTypes = ::testing::Types<WCQ, WCQLLSC, SCQ>;
#endif
TYPED_TEST_SUITE(RingTypedTest, RingTypes, RingNames);

TYPED_TEST(RingTypedTest, GeometryAndInitialState) {
  TypeParam q(5);
  EXPECT_EQ(q.capacity(), 32u);
  EXPECT_EQ(q.ring_size(), 64u);
  EXPECT_EQ(q.threshold(), -1);
  EXPECT_EQ(q.head(), q.tail());
  EXPECT_FALSE(q.dequeue().has_value());
}

TYPED_TEST(RingTypedTest, ThresholdLifecycle) {
  TypeParam q(4);
  // Enqueue resets the threshold to 3n-1; failed dequeues decay it below 0,
  // after which dequeue is a constant-time load (the Fig 11a property).
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
  // One enqueue revives the queue.
  q.enqueue(3);
  EXPECT_EQ(q.dequeue().value(), 3u);
}

TYPED_TEST(RingTypedTest, CountersAdvanceMonotonically) {
  TypeParam q(4);
  u64 last_tail = q.tail();
  for (int i = 0; i < 200; ++i) {
    q.enqueue(static_cast<u64>(i) % q.capacity());
    ASSERT_GE(q.tail(), last_tail);
    last_tail = q.tail();
    ASSERT_TRUE(q.dequeue().has_value());
  }
}

TYPED_TEST(RingTypedTest, InterleavedPartialDrains) {
  TypeParam q(4);
  u64 in = 0, out = 0;
  const u64 cap = q.capacity();
  // Saw-tooth occupancy: fill to k, drain to k/2, repeatedly, with exact
  // FIFO verification across many wraparounds.
  for (int round = 0; round < 400; ++round) {
    const u64 target = 1 + (static_cast<u64>(round) % cap);
    while (in - out < target) q.enqueue(in++ % cap);
    const u64 keep = target / 2;
    while (in - out > keep) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value());
      ASSERT_EQ(*v, out++ % cap);
    }
  }
  while (out < in) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, out++ % cap);
  }
}

TYPED_TEST(RingTypedTest, MpmcCountsExact) {
  TypeParam q(7);
  testing::run_mpmc_count_exact(q, 4, 4, 15000);
}

// Every ring now shares the DESIGN.md §7 bulk contract (SCQ gained it with
// the session-handle PR): spans insert everything, bulk dequeues preserve
// FIFO, and interleaving bulk with single ops keeps exact order.
TYPED_TEST(RingTypedTest, BulkAndSingleOpsInterleaveFifo) {
  TypeParam q(6);
  const u64 cap = q.capacity();
  u64 in[16], out[16];
  u64 next_in = 0, next_out = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t span = 1 + (static_cast<std::size_t>(round) % 16);
    for (std::size_t i = 0; i < span; ++i) in[i] = (next_in + i) % cap;
    q.enqueue_bulk(in, span);
    next_in += span;
    q.enqueue(next_in++ % cap);
    std::size_t got = 0;
    while (got < span) {
      const std::size_t k = q.dequeue_bulk(out + got, span - got);
      if (k == 0) break;
      got += k;
    }
    ASSERT_EQ(got, span);
    for (std::size_t i = 0; i < span; ++i) {
      ASSERT_EQ(out[i], next_out % cap);
      ++next_out;
    }
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, next_out++ % cap);
  }
  ASSERT_FALSE(q.dequeue().has_value());
}

// Explicit ring sessions: same FIFO contract through handle-taking ops.
TYPED_TEST(RingTypedTest, HandleOpsRoundTrip) {
  TypeParam q(5);
  auto h = q.handle();
  for (u64 i = 0; i < 4 * q.capacity(); ++i) {
    q.enqueue(h, i % q.capacity());
    auto v = q.dequeue(h);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
}

// Appendix A's finalize (BasicScq::finalize): every reservation drawn
// after it fails, so single and bulk enqueues insert nothing, while the
// elements inserted before it still drain in FIFO order.
TYPED_TEST(RingTypedTest, FinalizeRefusesEnqueueAndKeepsElements) {
  TypeParam q(4);
  for (u64 i = 0; i < 3; ++i) ASSERT_TRUE(q.enqueue(i));
  q.finalize();
  q.finalize();  // idempotent
  EXPECT_FALSE(q.enqueue(7));
  const u64 more[4] = {8, 9, 10, 11};
  q.enqueue_bulk(more, 4);
  for (u64 i = 0; i < 3; ++i) EXPECT_EQ(q.dequeue(), std::optional<u64>{i});
  EXPECT_FALSE(q.dequeue().has_value());
}

// catchup() compares a FIN-masked Tail rank, so its CAS fails against a
// finalized Tail: empty dequeues past the end never reopen the ring.
TYPED_TEST(RingTypedTest, EmptyDequeuesKeepRingFinalized) {
  TypeParam q(3);
  ASSERT_TRUE(q.enqueue(0));
  q.finalize();
  ASSERT_EQ(q.dequeue(), std::optional<u64>{0});
  for (u64 i = 0; i < 2 * q.ring_size(); ++i) {
    ASSERT_FALSE(q.dequeue().has_value());
  }
  EXPECT_FALSE(q.enqueue(1));
  EXPECT_FALSE(q.dequeue().has_value());
}

// reset() is the exclusive-access reopen (a recycled segment's ring): it
// clears FIN and every slot, and the ring works as if freshly built.
TYPED_TEST(RingTypedTest, ResetReopensFinalizedRing) {
  TypeParam q(4);
  ASSERT_TRUE(q.enqueue(1));
  q.finalize();
  ASSERT_FALSE(q.enqueue(2));
  q.reset();
  EXPECT_EQ(q.threshold(), -1);
  EXPECT_EQ(q.head(), q.tail());
  EXPECT_FALSE(q.dequeue().has_value());
  for (u64 i = 0; i < q.capacity(); ++i) ASSERT_TRUE(q.enqueue(i));
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_EQ(q.dequeue(), std::optional<u64>{i});
  }
}

TYPED_TEST(RingTypedTest, EmptyDequeueStorm) {
  // Many threads hammering an empty ring must all observe empty and leave
  // the ring usable.
  TypeParam q(6);
  std::vector<std::thread> ts;
  std::atomic<u64> nonempty{0};
  for (int t = 0; t < 6; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        if (q.dequeue()) nonempty.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(nonempty.load(), 0u);
  q.enqueue(5);
  EXPECT_EQ(q.dequeue().value(), 5u);
}

}  // namespace
}  // namespace wcq
