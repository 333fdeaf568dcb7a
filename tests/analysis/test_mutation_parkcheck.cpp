// Mutation self-test (DESIGN.md §14): skip the re-check between prepare and
// park. This binary compiles runtime/channel.hpp with
// WCQ_ANALYSIS_MUTATE_SKIP_RECHECK, which removes the re-check between
// prepare_wait and commit_wait (the try-op, with its closed re-check, in
// either direction's blocking loop) — the check-then-park race every
// condition-wait protocol must close. The window: the sender's final
// send+notify lands after the receiver's last failed attempt (or after its
// spin budget passed unclaimed) but before its prepare_wait; the notify
// finds no spinner and zero announced waiters and stays silent, the
// receiver then parks on an epoch that will never move.
//
// The window is a handful of scheduling points wide (failed attempt ->
// prepare), so unlike the dropped-wake mutation it needs a demotion to land
// inside it; PCT's change points and the spin-quota demotions hit it within
// the seed budget. Detection is the same currency: EventCount's budget-
// bounded virtual park turns the eternal sleep into stranded > 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>

#include "channel_explore.hpp"

#if !defined(WCQ_ANALYSIS_MUTATE_SKIP_RECHECK)
#error "this binary must be compiled with WCQ_ANALYSIS_MUTATE_SKIP_RECHECK"
#endif

namespace wcq {
namespace {

using analysis_test::run_prodcon_channel;

constexpr std::uint64_t kMaxSchedules = 512;

TEST(ChannelMutation, SkippedRecheckCaught) {
  std::uint64_t parked_schedules = 0;
  for (std::uint64_t seed = 1; seed <= kMaxSchedules; ++seed) {
    const auto r = run_prodcon_channel(seed, 8, /*close_at_end=*/false);
    ASSERT_FALSE(r.watchdog) << "scheduler wedged, seed " << seed;
    ASSERT_EQ(r.received, 8u) << "seed " << seed;
    if (r.recv_parks + r.send_parks > 0) ++parked_schedules;
    if (r.stranded > 0) {
      std::cout << "skipped pre-park re-check caught at schedule " << seed
                << " of " << kMaxSchedules << " (stranded=" << r.stranded
                << ", parked schedules so far " << parked_schedules << ")\n";
      SUCCEED();
      return;
    }
  }
  FAIL() << kMaxSchedules
         << " schedules missed the skipped re-check (schedules that parked: "
         << parked_schedules
         << ") — the park/wake explorer has lost its detection power";
}

// Single-threaded (never-parking) sanity: the skipped re-check only matters
// on the park path, so an unscheduled run stays fully correct.
TEST(ChannelMutation, PassThroughWithoutScheduler) {
  Channel<std::uint64_t> ch(2u);
  auto h = ch.acquire();
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(ch.send(h, i), ChanStatus::kOk);
    ASSERT_EQ(ch.recv(h, out), ChanStatus::kOk);
    ASSERT_EQ(out, i);
  }
  EXPECT_EQ(ch.stats().stranded, 0u);
}

}  // namespace
}  // namespace wcq
