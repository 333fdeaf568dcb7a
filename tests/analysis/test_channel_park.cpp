// Park/wake schedule exploration (DESIGN.md §14): the lost-wakeup-freedom
// proof for the eventcount protocol under the blocking Channel facade, run
// the same way PR 6/8 proved ring properties — PCT exploration over the
// WCQ_SCHED_POINT annotations, here including the kParkPrepare / kParkCancel
// / kParkCommit / kParkWake / kChanClose edges and the spinner's
// kSpinRegister / kSpinClaim / kSpinDeregister edges compiled into this
// binary.
//
// The assertion per schedule is threefold:
//   * completeness — every element sent is received exactly once (count and
//     checksum), so no schedule loses or duplicates across the park edges;
//   * stranded == 0 — no virtual park ever exhausted its budget: every
//     committed park had a wake coming (see channel_explore.hpp for why a
//     pending wake always lands well inside the budget);
//   * no watchdog — the blocking loops kept passing scheduling points.
// The companion mutation binaries (test_mutation_dropwake,
// test_mutation_parkcheck, test_mutation_baton) break one protocol edge
// each and demand the OPPOSITE verdict from the same driver, which is what
// makes a pass here evidence rather than vacuity.
#include <gtest/gtest.h>

#include <cstdint>

#include "channel_explore.hpp"

namespace wcq {
namespace {

using analysis_test::run_mpmc_channel;
using analysis_test::run_prodcon_channel;

constexpr std::uint64_t kSeeds = 64;

// Exact-count shape, no close: every wake must come from a per-send notify,
// nothing is mopped up by a close()-time broadcast. The mutation binaries
// run this exact shape.
TEST(ChannelPark, ProdConExactCountEverySeed) {
  constexpr unsigned kCount = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = run_prodcon_channel(seed, kCount, /*close_at_end=*/false);
    ASSERT_FALSE(r.watchdog) << "scheduler wedged, seed " << seed;
    ASSERT_EQ(r.received, kCount) << "lost element, seed " << seed;
    ASSERT_EQ(r.checksum, std::uint64_t{kCount} * (kCount - 1) / 2)
        << "corrupted delivery, seed " << seed;
    ASSERT_EQ(r.stranded, 0u)
        << "park outlived its wake (lost wakeup), seed " << seed;
  }
}

// Close-driven drain: the receiver leaves through the kClosed path, so every
// schedule also exercises the close linearization point, the post-close
// authoritative re-dequeue, and the notify_all storm against parked waiters.
TEST(ChannelPark, ProdConCloseDrainEverySeed) {
  constexpr unsigned kCount = 8;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const auto r = run_prodcon_channel(seed, kCount, /*close_at_end=*/true);
    ASSERT_FALSE(r.watchdog) << "scheduler wedged, seed " << seed;
    ASSERT_EQ(r.received, kCount) << "close lost residual, seed " << seed;
    ASSERT_EQ(r.checksum, std::uint64_t{kCount} * (kCount - 1) / 2)
        << "corrupted delivery, seed " << seed;
    ASSERT_EQ(r.stranded, 0u)
        << "close() left a waiter parked, seed " << seed;
  }
}

// MPMC: notify_one must route wakes correctly with multiple parked waiters
// per direction, and the last sender's close must terminate every receiver.
TEST(ChannelPark, MpmcCloseEverySeed) {
  constexpr unsigned kSenders = 2, kReceivers = 2, kPer = 4;
  constexpr std::uint64_t kN = kSenders * kPer;
  for (std::uint64_t seed = 1; seed <= kSeeds / 2; ++seed) {
    const auto r = run_mpmc_channel(seed, kSenders, kReceivers, kPer);
    ASSERT_FALSE(r.watchdog) << "scheduler wedged, seed " << seed;
    ASSERT_EQ(r.received, kN) << "lost element, seed " << seed;
    ASSERT_EQ(r.checksum, kN * (kN - 1) / 2)
        << "corrupted delivery, seed " << seed;
    ASSERT_EQ(r.stranded, 0u) << "lost wakeup, seed " << seed;
  }
}

// Two receivers, one of which leaves after its first element: a claim
// handed to that receiver's spinner after its re-check already succeeded
// must be passed on, or the other receiver sleeps through the last element.
// Plain PCT, then with the spinner suspended inside the baton window.
TEST(ChannelPark, BatonShapeEverySeed) {
  constexpr unsigned kCount = 3;
  for (const bool stall : {false, true}) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const auto r = analysis_test::run_baton_channel(seed, kCount, stall);
      ASSERT_FALSE(r.watchdog) << "scheduler wedged, seed " << seed;
      ASSERT_EQ(r.received, kCount) << "lost element, seed " << seed;
      ASSERT_EQ(r.checksum, std::uint64_t{kCount} * (kCount - 1) / 2)
          << "corrupted delivery, seed " << seed;
      ASSERT_EQ(r.stranded, 0u)
          << "claimed wake not passed on, seed " << seed << " stall " << stall;
    }
  }
}

// Meta-assertion: the exploration actually drives the park edges. If no
// schedule ever parks, every stranded == 0 above is vacuous.
TEST(ChannelPark, SchedulesActuallyPark) {
  std::uint64_t parks = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto r = run_prodcon_channel(seed, 8, /*close_at_end=*/false);
    parks += r.recv_parks + r.send_parks;
  }
  EXPECT_GT(parks, 0u) << "no schedule parked: the park/wake edges are not "
                          "being explored and the suite proves nothing";
}

}  // namespace
}  // namespace wcq
