// Mutation self-test for the MPSC consumer path (DESIGN.md §13): this
// binary is compiled with WCQ_ANALYSIS_MUTATE_MPSC, which makes the
// consumer's dead-rank walk skip a not-yet-filled rank WITHOUT ⊥-marking
// the slot. The window: a producer holds Tail rank h but is descheduled
// before its entry CAS; a second producer delivers rank h+1; the consumer
// walks past rank h (Tail > h proves producers exist beyond it) and, under
// the mutation, leaves the slot open. The descheduled producer then lands
// its element behind Head, where it is lost forever — every later dequeue
// on the provably non-empty queue returns empty, which the linearizability
// checker rejects.
//
// This is the detection-power half of the §13 deletion argument: the same
// explorer that finds nothing wrong with the threshold-free consumer
// (test_analysis_mpsc) demonstrably catches a real consumer-path bug when
// one is seeded, so the clean pass is evidence, not blindness.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>

#include "core/scq.hpp"
#include "explore.hpp"

#if !defined(WCQ_ANALYSIS_MUTATE_MPSC)
#error "this binary must be compiled with WCQ_ANALYSIS_MUTATE_MPSC"
#endif

namespace wcq {
namespace {

using analysis_test::OpKind;
using analysis_test::PctScheduler;
using analysis_test::Script;
using analysis_test::linearizable_fifo;
using analysis_test::run_schedule;

// The catching interleaving needs one specific preemption (w0 parked
// between its Tail F&A and its entry CAS while w1 and the consumer run to
// completion) plus the consumer outliving w0's resume — a rarer draw than
// the threshold mutation's, so the budget is wider than its 256.
constexpr std::uint64_t kMaxSchedules = 512;

// w0 and w1 race one enqueue each; w2 — the unique consumer — dequeues four
// times. In the window above the consumer sees exactly one element, w0's
// lands dead behind Head, and at least one of the trailing empty dequeues
// starts after both enqueues responded: two committed enqueues, one
// successful dequeue, empty anyway — non-linearizable.
std::vector<Script> mutation_scripts() {
  std::vector<Script> scripts(3);
  scripts[0] = {{OpKind::kEnq, 0}};
  scripts[1] = {{OpKind::kEnq, 1}};
  scripts[2] = {{OpKind::kDeq, 0}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0},
                {OpKind::kDeq, 0}};
  return scripts;
}

TEST(SchedMutationMpsc, UnmarkedDeadRankSkipCaught) {
  const auto scripts = mutation_scripts();
  for (std::uint64_t seed = 1; seed <= kMaxSchedules; ++seed) {
    auto q = std::make_unique<MpscRing>(2);
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    const auto r =
        run_schedule<analysis_test::RingAdapter<MpscRing>>(*q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    if (!linearizable_fifo(r.history, 4, false)) {
      std::cout << "MpscRing: unmarked dead-rank skip caught at schedule "
                << seed << " of " << kMaxSchedules << "\n";
      SUCCEED();
      return;
    }
  }
  FAIL() << kMaxSchedules
         << " schedules missed the unmarked dead-rank skip — the explorer "
            "has lost its detection power over the MPSC consumer path";
}

// With no scheduler installed the mutated branch still runs, but without
// forced preemption the lost-element window needs a mid-enqueue stall that
// a sequential test never produces: the binary stays correct outside the
// harness and its ordinary round-trip behavior holds.
TEST(SchedMutationMpsc, PassThroughWithoutScheduler) {
  MpscRing q(2);
  q.enqueue(1);
  const auto v = q.dequeue();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);
  EXPECT_FALSE(q.dequeue().has_value());
  q.enqueue(2);
  const auto w = q.dequeue();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 2u);
}

}  // namespace
}  // namespace wcq
