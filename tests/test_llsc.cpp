// Simulated weak LL/SC (paper §4) behavioral tests.
//
// LLSCSim has no genuine spurious failures, so every outcome here is
// deterministic: an update fails only on a granule mismatch or an armed
// injector. The cross-backend contract (either word preserved, mismatch
// fails without mutating, injection storms) is in test_llsc_native.cpp.
#include "portability/llsc.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace wcq {
namespace {

class LlscTest : public ::testing::Test {
 protected:
  void TearDown() override { llsc_inject::set_rate(0.0); }
};

TEST_F(LlscTest, UpdateSucceedsFirstTryWhenUntouched) {
  AtomicPair128 g;
  g.lo.store(1);
  g.hi.store(2);
  EXPECT_TRUE(LLSCSim::update_value(g, Pair128{1, 2}, 100));
  EXPECT_TRUE(LLSCSim::update_note(g, Pair128{100, 2}, 200));
  EXPECT_EQ(g.lo.load(), 100u);
  EXPECT_EQ(g.hi.load(), 200u);
}

TEST_F(LlscTest, SnapshotIsSingleShot) {
  // The fused analogue of a consumed reservation: once an update lands, the
  // snapshot it was taken from no longer matches the granule.
  AtomicPair128 g;
  g.lo.store(1);
  g.hi.store(2);
  const Pair128 snap{1, 2};
  EXPECT_TRUE(LLSCSim::update_value(g, snap, 10));
  EXPECT_FALSE(LLSCSim::update_value(g, snap, 20));
  EXPECT_FALSE(LLSCSim::update_note(g, snap, 20));
  EXPECT_EQ(g.lo.load(), 10u);
  EXPECT_EQ(g.hi.load(), 2u);
}

TEST_F(LlscTest, UpdateNoteFailsIfOtherWordInGranuleChanged) {
  // The reservation granule spans both words: a write to the value word
  // must kill a note update — the false-sharing semantics §4 relies on.
  AtomicPair128 g;
  g.lo.store(5);
  g.hi.store(6);
  const Pair128 snap = g.load_torn();
  g.lo.store(50);  // interference
  EXPECT_FALSE(LLSCSim::update_note(g, snap, 7));
  EXPECT_EQ(g.lo.load(), 50u);
  EXPECT_EQ(g.hi.load(), 6u);
}

TEST_F(LlscTest, UpdateTouchesOnlyItsGranule) {
  AtomicPair128 row[3];
  for (u64 i = 0; i < 3; ++i) {
    row[i].lo.store(10 * i);
    row[i].hi.store(10 * i + 1);
  }
  EXPECT_TRUE(LLSCSim::update_value(row[1], Pair128{10, 11}, 99));
  EXPECT_TRUE(LLSCSim::update_note(row[1], Pair128{99, 11}, 98));
  EXPECT_EQ(row[0].lo.load(), 0u);
  EXPECT_EQ(row[0].hi.load(), 1u);
  EXPECT_EQ(row[1].lo.load(), 99u);
  EXPECT_EQ(row[1].hi.load(), 98u);
  EXPECT_EQ(row[2].lo.load(), 20u);
  EXPECT_EQ(row[2].hi.load(), 21u);
}

TEST_F(LlscTest, DisarmedInjectorCountsNothing) {
  // Benchmarks run with injection off and must not pay for the contended
  // counter lines: no attempt or failure is tallied at rate 0.
  AtomicPair128 g;
  g.lo.store(0);
  g.hi.store(0);
  const u64 injected_before = llsc_inject::injected();
  const u64 attempts_before = llsc_inject::attempts();
  for (u64 i = 0; i < 100; ++i) {
    ASSERT_TRUE(LLSCSim::update_value(g, Pair128{i, 0}, i + 1));
  }
  EXPECT_EQ(llsc_inject::injected(), injected_before);
  EXPECT_EQ(llsc_inject::attempts(), attempts_before);
}

TEST_F(LlscTest, SetRateClampsToUnitInterval) {
  llsc_inject::set_rate(-0.5);
  EXPECT_EQ(llsc_inject::rate(), 0.0);
  llsc_inject::set_rate(2.0);
  EXPECT_EQ(llsc_inject::rate(), 1.0);
  llsc_inject::set_rate(0.25);
  EXPECT_EQ(llsc_inject::rate(), 0.25);
}

TEST_F(LlscTest, FullRateInjectionFailsEveryUpdate) {
  AtomicPair128 g;
  g.lo.store(3);
  g.hi.store(4);
  llsc_inject::set_rate(1.0);
  const u64 injected_before = llsc_inject::injected();
  const u64 attempts_before = llsc_inject::attempts();
  constexpr u64 kTries = 200;
  for (u64 i = 0; i < kTries; ++i) {
    EXPECT_FALSE(LLSCSim::update_value(g, Pair128{3, 4}, i));
    EXPECT_FALSE(LLSCSim::update_note(g, Pair128{3, 4}, i));
  }
  llsc_inject::set_rate(0.0);
  EXPECT_EQ(llsc_inject::injected() - injected_before, 2 * kTries);
  EXPECT_EQ(llsc_inject::attempts() - attempts_before, 2 * kTries);
  EXPECT_EQ(g.lo.load(), 3u);
  EXPECT_EQ(g.hi.load(), 4u);
}

TEST_F(LlscTest, InjectionIsConsultedBeforeTheCompare) {
  // The simulator checks the injector first, the order the native backend
  // uses (an injected failure there returns before the exclusive store), so
  // an update that would fail its compare still counts as an attempt.
  AtomicPair128 g;
  g.lo.store(5);
  g.hi.store(6);
  llsc_inject::set_rate(1.0);
  const u64 attempts_before = llsc_inject::attempts();
  const u64 injected_before = llsc_inject::injected();
  EXPECT_FALSE(LLSCSim::update_value(g, Pair128{50, 60}, 1));
  llsc_inject::set_rate(0.0);
  EXPECT_EQ(llsc_inject::attempts() - attempts_before, 1u);
  EXPECT_EQ(llsc_inject::injected() - injected_before, 1u);
  EXPECT_EQ(g.lo.load(), 5u);
  EXPECT_EQ(g.hi.load(), 6u);
}

TEST_F(LlscTest, InjectedFailuresOccurAtConfiguredRate) {
  // Without interference, every failure is an injected one.
  AtomicPair128 g;
  g.lo.store(0);
  g.hi.store(0);
  llsc_inject::set_rate(0.5);
  const u64 before = llsc_inject::injected();
  int failures = 0;
  constexpr int kTries = 4000;
  u64 next = 0;
  for (int i = 0; i < kTries; ++i) {
    if (LLSCSim::update_value(g, Pair128{next, 0}, next + 1)) {
      ++next;
    } else {
      ++failures;
    }
  }
  llsc_inject::set_rate(0.0);
  EXPECT_EQ(static_cast<u64>(failures), llsc_inject::injected() - before);
  EXPECT_EQ(g.lo.load(), static_cast<u64>(kTries - failures));
  EXPECT_GT(failures, kTries / 4);
  EXPECT_LT(failures, 3 * kTries / 4);
}

TEST_F(LlscTest, ConcurrentCountersAreExact) {
  // Disarmed injector: only genuine granule conflicts fail an update, and
  // each failure leaves the granule for the retry.
  AtomicPair128 g;
  g.lo.store(0);
  g.hi.store(0);
  constexpr int kThreads = 6;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          const Pair128 snap = g.load_torn();
          const bool ok = (t % 2 == 0)
                              ? LLSCSim::update_value(g, snap, snap.lo + 1)
                              : LLSCSim::update_note(g, snap, snap.hi + 1);
          if (ok) break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(g.lo.load(), static_cast<u64>(kThreads / 2) * kIncrements);
  EXPECT_EQ(g.hi.load(), static_cast<u64>(kThreads / 2) * kIncrements);
}

}  // namespace
}  // namespace wcq
