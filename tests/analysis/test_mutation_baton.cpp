// Mutation self-test (DESIGN.md §14): drop the spinner's baton. This binary
// compiles runtime/channel.hpp with WCQ_ANALYSIS_MUTATE_SPIN_BATON, which
// removes the notify_one a spinner owes when its post-registration re-check
// succeeded but its deregistration finds a claim. That claim was a send's
// wake; no parked receiver got it, and the spinner's caller may never come
// back for the element.
//
// The shape is run_baton_channel: one receiver leaves after its first
// element, the other needs the rest. The catching schedule has the leaving
// receiver take an element in its re-check, the last send claim it before
// it deregisters, and the other receiver parked by then. The spinner is
// suspended at its kSpinDeregister point, which only the baton window
// carries, so PCT has to order only the sends and the other receiver's
// park around it. Detection is EventCount's budget-bounded virtual park:
// the lost wake shows as stranded > 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>

#include "channel_explore.hpp"

#if !defined(WCQ_ANALYSIS_MUTATE_SPIN_BATON)
#error "this binary must be compiled with WCQ_ANALYSIS_MUTATE_SPIN_BATON"
#endif

namespace wcq {
namespace {

using analysis_test::run_baton_channel;

constexpr std::uint64_t kMaxSchedules = 512;

TEST(ChannelMutation, DroppedBatonCaught) {
  for (std::uint64_t seed = 1; seed <= kMaxSchedules; ++seed) {
    const auto r = run_baton_channel(seed, 3, /*stall_spinner=*/true);
    ASSERT_FALSE(r.watchdog) << "scheduler wedged, seed " << seed;
    // The virtual park returns spuriously after its budget, so the mutated
    // run still delivers everything; only stranded tells it apart.
    ASSERT_EQ(r.received, 3u) << "seed " << seed;
    if (r.stranded > 0) {
      std::cout << "dropped baton caught at schedule " << seed << " of "
                << kMaxSchedules << " (stranded=" << r.stranded << ")\n";
      SUCCEED();
      return;
    }
  }
  FAIL() << kMaxSchedules
         << " schedules missed the dropped baton — the park/wake explorer "
            "has lost its detection power";
}

// Without a scheduler nothing parks virtually, and a single thread never
// finds a claim: the mutation leaves an unscheduled run fully correct.
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
