// Backoff helper: the escalation ladder (spin rounds, then yield) and reset
// semantics that the livelock fixes in the test harness and queues rely on.
#include "common/backoff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace wcq {
namespace {

TEST(Backoff, StartsInSpinPhase) {
  Backoff bo;
  EXPECT_EQ(bo.round(), 0u);
  EXPECT_EQ(bo.yields(), 0u);
}

TEST(Backoff, EscalatesToYieldAfterSpinRounds) {
  Backoff bo;
  for (std::uint32_t i = 0; i < Backoff::kSpinRounds; ++i) {
    bo.pause();
    EXPECT_EQ(bo.yields(), 0u) << "escalated early at round " << i;
  }
  EXPECT_EQ(bo.round(), Backoff::kSpinRounds);
  bo.pause();
  EXPECT_EQ(bo.yields(), 1u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 2u);
}

TEST(Backoff, ResetRestartsTheLadder) {
  Backoff bo;
  for (std::uint32_t i = 0; i < Backoff::kSpinRounds + 3; ++i) bo.pause();
  EXPECT_EQ(bo.yields(), 3u);
  bo.reset();
  EXPECT_EQ(bo.round(), 0u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 3u) << "reset must not erase the yield count";
  EXPECT_EQ(bo.round(), 1u);
}

TEST(Backoff, CustomSpinRounds) {
  Backoff bo(2);
  EXPECT_EQ(bo.spin_rounds(), 2u);
  bo.pause();
  bo.pause();
  EXPECT_EQ(bo.yields(), 0u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 1u);
  Backoff eager(0);  // yield immediately: pure-yield waiter
  eager.pause();
  EXPECT_EQ(eager.yields(), 1u);
}

TEST(Backoff, CpuRelaxExecutesOnThisIsa) {
  // cpu_relax() must emit a real instruction on every supported ISA (PAUSE
  // on x86, ISB on AArch64 — the aarch64 qemu CI job executes this path;
  // compiler barrier elsewhere) and never trap or block. One full spin
  // round's worth of calls is the smoke budget.
  for (int i = 0; i < (1 << Backoff::kMaxRelaxShift); ++i) cpu_relax();
  SUCCEED();
}

TEST(Backoff, LadderStillEscalatesPastTheSpinHint) {
  // Regression guard for the AArch64 ISB spin hint: a stronger (slower)
  // cpu_relax must not change the escalation contract — after kSpinRounds
  // pause() calls the ladder donates the quantum via
  // std::this_thread::yield(), which the 1-core livelock fix relies on.
  Backoff bo;
  while (bo.round() < bo.spin_rounds()) bo.pause();
  EXPECT_EQ(bo.round(), Backoff::kSpinRounds);
  EXPECT_EQ(bo.yields(), 0u);
  bo.pause();
  EXPECT_EQ(bo.yields(), 1u);
}

TEST(Backoff, HandoffCompletesOnOversubscribedHost) {
  // The livelock regression in miniature: two threads ping-pong a flag more
  // times than any plausible scheduling-quantum budget would allow if the
  // waiters never yielded. Completing at all (under the CTest timeout) is
  // the assertion; on a 1-core host this hangs without the yield escalation.
  std::atomic<int> turn{0};
  constexpr int kRounds = 2000;
  std::thread a([&] {
    Backoff bo;
    for (int i = 0; i < kRounds; ++i) {
      while (turn.load(std::memory_order_acquire) != 0) bo.pause();
      bo.reset();
      turn.store(1, std::memory_order_release);
    }
  });
  std::thread b([&] {
    Backoff bo;
    for (int i = 0; i < kRounds; ++i) {
      while (turn.load(std::memory_order_acquire) != 1) bo.pause();
      bo.reset();
      turn.store(0, std::memory_order_release);
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(turn.load(), 0);
}

}  // namespace
}  // namespace wcq
