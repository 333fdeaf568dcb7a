// Native LL/SC backend suite (DESIGN.md §15, LLSC-NATIVE).
//
// Compiles on every ISA: the typed entry-ops suite always runs against the
// simulator, and additionally against LLSCNative (real LDAXP/STLXP) when the
// build is aarch64. The aarch64-qemu CI job is where the native rows
// actually execute; on real hardware the same assertions hold because every
// success check is written as a bounded retry (spurious monitor loss is
// legal; *persistent* success never arriving is the bug).
//
// Storm tests arm llsc_inject — the shared injection knob — so the same
// spurious-failure population exercises the simulator's CAS2 path and the
// native backend's genuine early-return-before-STXP path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/dwcas.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"
#include "portability/llsc_native.hpp"

namespace wcq {
namespace {

// The backend matrix the binary selected is part of every bench/CI result;
// pin the reporting strings so a stray edit can't silently rename a column.
TEST(NativeBackendMatrix, ReportsSelectedBackends) {
  const std::string llsc = llsc_backend_name();
  const std::string cas2 = dwcas_backend_name();
#if defined(WCQ_HAS_NATIVE_LLSC)
  EXPECT_EQ(llsc, "ldxp-stxp");
#else
  EXPECT_EQ(llsc, "sim-cas2");
#endif
  EXPECT_TRUE(cas2 == "cmpxchg16b" || cas2 == "lse-casp" ||
              cas2 == "__atomic")
      << cas2;
#if defined(__x86_64__) && !defined(WCQ_NO_INLINE_CAS2)
  EXPECT_EQ(cas2, "cmpxchg16b");
#endif
}

// ---- typed suite over the entry-op backends -------------------------------

template <typename Backend>
class LlscBackendTyped : public ::testing::Test {
 protected:
  void TearDown() override { llsc_inject::set_rate(0.0); }
};

class BackendNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, LLSCSim>) {
      return "Sim";
    } else {
      return "Native";
    }
  }
};

#if defined(WCQ_HAS_NATIVE_LLSC)
using BackendTypes = ::testing::Types<LLSCSim, LLSCNative>;
#else
using BackendTypes = ::testing::Types<LLSCSim>;
#endif
TYPED_TEST_SUITE(LlscBackendTyped, BackendTypes, BackendNames);

// CAS-shaped helpers the ring actually calls; success is retried because a
// native SC may fail spuriously even uncontended (monitor loss is legal).
template <typename Backend>
bool eventually_update_value(AtomicPair128& g, const Pair128& expected,
                             u64 new_value) {
  for (int i = 0; i < 1000; ++i) {
    if (Backend::update_value(g, expected, new_value)) {
      return true;
    }
    // A failed attempt must not have mutated the granule.
    if (g.lo.load() != expected.lo || g.hi.load() != expected.hi) return false;
  }
  return false;
}

template <typename Backend>
bool eventually_update_note(AtomicPair128& g, const Pair128& expected,
                            u64 new_note) {
  for (int i = 0; i < 1000; ++i) {
    if (Backend::update_note(g, expected, new_note)) {
      return true;
    }
    if (g.lo.load() != expected.lo || g.hi.load() != expected.hi) return false;
  }
  return false;
}

TYPED_TEST(LlscBackendTyped, UpdateValuePreservesNoteWord) {
  AtomicPair128 g;
  g.lo.store(11);
  g.hi.store(22);
  ASSERT_TRUE(eventually_update_value<TypeParam>(g, Pair128{11, 22}, 100));
  EXPECT_EQ(g.lo.load(), 100u);
  EXPECT_EQ(g.hi.load(), 22u);
}

TYPED_TEST(LlscBackendTyped, UpdateNotePreservesValueWord) {
  AtomicPair128 g;
  g.lo.store(7);
  g.hi.store(8);
  ASSERT_TRUE(eventually_update_note<TypeParam>(g, Pair128{7, 8}, 99));
  EXPECT_EQ(g.lo.load(), 7u);
  EXPECT_EQ(g.hi.load(), 99u);
}

TYPED_TEST(LlscBackendTyped, MismatchFailsWithoutMutating) {
  AtomicPair128 g;
  g.lo.store(5);
  g.hi.store(6);
  // Either word differing must fail — deterministically, on every backend:
  // the compare happens under the reservation before any store issues.
  EXPECT_FALSE(TypeParam::update_value(g, Pair128{50, 6}, 1));
  EXPECT_FALSE(TypeParam::update_value(g, Pair128{5, 60}, 1));
  EXPECT_FALSE(TypeParam::update_note(g, Pair128{50, 60}, 1));
  EXPECT_EQ(g.lo.load(), 5u);
  EXPECT_EQ(g.hi.load(), 6u);
}

TYPED_TEST(LlscBackendTyped, SpuriousScInjectionFiresAndIsCounted) {
  AtomicPair128 g;
  g.lo.store(0);
  g.hi.store(0);
  llsc_inject::set_rate(0.5);
  const u64 injected_before = llsc_inject::injected();
  const u64 attempts_before = llsc_inject::attempts();
  constexpr int kTries = 4000;
  u64 next = 0;
  for (int i = 0; i < kTries; ++i) {
    if (TypeParam::update_value(g, Pair128{next, 0}, next + 1)) {
      ++next;
    }
  }
  llsc_inject::set_rate(0.0);
  const u64 injected = llsc_inject::injected() - injected_before;
  const u64 attempts = llsc_inject::attempts() - attempts_before;
  // Every injected failure left the granule untouched: successes alone
  // advanced the counter.
  EXPECT_EQ(g.lo.load(), next);
  EXPECT_GE(attempts, static_cast<u64>(kTries));
  EXPECT_GT(injected, static_cast<u64>(kTries) / 4);
  EXPECT_LT(injected, 3 * static_cast<u64>(kTries) / 4);
}

TYPED_TEST(LlscBackendTyped, SpuriousScStormCountersStayExact) {
  // Concurrent LL/SC counters with a 30% injected failure rate: exactness
  // must be insensitive to spurious SC failure (real stxp early-outs on the
  // native backend, CAS2 snapshot misses on the simulator).
  AtomicPair128 g;
  g.lo.store(0);
  g.hi.store(0);
  llsc_inject::set_rate(0.3);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 8000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          // The update compares the whole granule, so a torn snapshot can
          // only fail it.
          const Pair128 snap = g.load_torn();
          const bool ok = (t % 2 == 0)
                              ? TypeParam::update_value(g, snap, snap.lo + 1)
                              : TypeParam::update_note(g, snap, snap.hi + 1);
          if (ok) break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  llsc_inject::set_rate(0.0);
  EXPECT_EQ(g.lo.load() + g.hi.load(),
            static_cast<u64>(kThreads) * kIncrements);
}

#if defined(WCQ_HAS_NATIVE_LLSC)

// ---- whole-ring exercise over the native backend ---------------------------

TEST(NativeBackendWcq, MpmcExactCountsUnderInjectedFailures) {
  llsc_inject::set_rate(0.3);
  WCQLLSCNative::Options o;
  o.order = 4;
  o.enq_patience = 1;  // slow path everywhere: all updates via native LL/SC
  o.deq_patience = 1;
  o.help_delay = 1;
  WCQLLSCNative q(o);
  testing::run_mpmc_count_exact(q, 3, 3, 3000);
  llsc_inject::set_rate(0.0);
}

TEST(NativeBackendWcq, SingleThreadFifoAcrossWraparound) {
  WCQLLSCNative q(4);
  const u64 cap = q.capacity();
  for (u64 i = 0; i < 6 * cap; ++i) {
    q.enqueue(i % cap);
    const auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % cap);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

#endif  // WCQ_HAS_NATIVE_LLSC

}  // namespace
}  // namespace wcq
