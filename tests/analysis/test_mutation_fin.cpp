// Mutation self-test for segment finalization (DESIGN.md §4, §11 RING-FIN):
// this binary is compiled with WCQ_ANALYSIS_MUTATE_FIN, which makes the
// ring's Tail reservation ignore the FIN bit and use the rank anyway. The
// window: an enqueuer claims an index in its segment and is preempted
// before its ring Tail F&A; a peer fills the segment, finalizes it and
// appends a new one; a dequeuer drains the old segment and unlinks it.
// The stalled enqueuer's F&A then draws a FIN'd Tail, and under the
// mutation it lands its element past the ranks the drain walked, in the
// unlinked segment, where no dequeue can ever reach it. Its own later
// dequeues on the provably non-empty queue return empty, which the
// linearizability checker rejects.
//
// This is the detection-power half of the FIN argument: the same explorer
// that finds nothing wrong with the unmutated queue
// (SchedExplore.UnboundedTinySegments, UnboundedClaimStallKeepsElement)
// demonstrably catches the lost element once a reservation ignores FIN.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>

#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "explore.hpp"

#if !defined(WCQ_ANALYSIS_MUTATE_FIN)
#error "this binary must be compiled with WCQ_ANALYSIS_MUTATE_FIN"
#endif

namespace wcq {
namespace {

using analysis_test::OpKind;
using analysis_test::PctScheduler;
using analysis_test::Script;
using analysis_test::linearizable_fifo;
using analysis_test::run_schedule;

using UnboundedU64 = UnboundedQueue<std::uint64_t, WCQ>;
using Adapter = analysis_test::UnboundedAdapter<UnboundedU64>;

// The catching interleaving needs w0 parked between its segment claim and
// its ring Tail F&A while w1 fills and finalizes the segment and w2 drains
// and unlinks it — the same order of constraint as the MPSC dead-rank
// mutation, so the same budget.
constexpr std::uint64_t kMaxSchedules = 512;

// PCT draws its change points from [1, horizon]; the default 600 is several
// times this shape's whole run, so most demotions would land after the
// last step. Matching the horizon to the run length is the PCT bound's own
// parameterization, not a seed hunt.
constexpr std::size_t kHorizon = 120;

// Two-item segments. w0 enqueues one element, then dequeues twice; w1
// enqueues three (its third overflows whatever w0 left room for and opens
// the next segment); w2 dequeues four times. In the window above w0's
// element is lost, and w0's own trailing dequeues — which start after its
// enqueue responded — come back empty once w2 has taken w1's elements.
std::vector<Script> mutation_scripts() {
  std::vector<Script> scripts(3);
  scripts[0] = {{OpKind::kEnq, 100}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0}};
  scripts[1] = {{OpKind::kEnq, 1}, {OpKind::kEnq, 2}, {OpKind::kEnq, 3}};
  scripts[2] = {{OpKind::kDeq, 0}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0},
                {OpKind::kDeq, 0}};
  return scripts;
}

TEST(SchedMutationFin, LateEnqueuePastFinCaught) {
  const auto scripts = mutation_scripts();
  for (std::uint64_t seed = 1; seed <= kMaxSchedules; ++seed) {
    auto q = std::make_unique<UnboundedU64>(
        UnboundedU64::Options{.segment_order = 1});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    cfg.horizon = kHorizon;
    const auto r = run_schedule<Adapter>(*q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    if (!linearizable_fifo(r.history, 64, false)) {
      std::cout << "UnboundedQueue: enqueue past FIN caught at schedule "
                << seed << " of " << kMaxSchedules << "\n";
      SUCCEED();
      return;
    }
  }
  FAIL() << kMaxSchedules
         << " schedules missed the lost enqueue — the explorer has lost its "
            "detection power over the segment finalize/unlink path";
}

// The same window, scripted: w0 is suspended at its first ring Tail F&A —
// after its segment claim, before its index reaches the ring — and resumes
// only once w1 and w2 have finished. A schedule loses w0's element when w0
// claimed before w1 filled the segment and w2 drained it after w1
// finalized it, so the catch does not rest on PCT drawing a preemption
// inside that two-step window.
constexpr std::uint64_t kMaxScriptedSchedules = 32;

TEST(SchedMutationFin, ScriptedClaimStallCaught) {
  const auto scripts = mutation_scripts();
  for (std::uint64_t seed = 1; seed <= kMaxScriptedSchedules; ++seed) {
    auto q = std::make_unique<UnboundedU64>(
        UnboundedU64::Options{.segment_order = 1});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    cfg.horizon = kHorizon;
    cfg.stall_victim = 0;
    cfg.stall_site = analysis::Site::kTailFaa;
    const auto r = run_schedule<Adapter>(*q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    if (!linearizable_fifo(r.history, 64, false)) {
      std::cout << "UnboundedQueue: stalled-claim enqueue past FIN caught "
                   "at schedule "
                << seed << " of " << kMaxScriptedSchedules << "\n";
      SUCCEED();
      return;
    }
  }
  FAIL() << kMaxScriptedSchedules
         << " scripted-stall schedules missed the lost enqueue";
}

// With no scheduler installed the mutated reservation still runs, but the
// lost-element window needs an enqueuer stalled before its F&A while peers
// finalize, drain and unlink its segment, which a sequential run never
// produces: elements still cross segments in FIFO order.
TEST(SchedMutationFin, PassThroughWithoutScheduler) {
  UnboundedU64 q(UnboundedU64::Options{.segment_order = 1});
  for (std::uint64_t v = 0; v < 7; ++v) q.enqueue(v);
  for (std::uint64_t v = 0; v < 7; ++v) {
    const auto got = q.dequeue();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

}  // namespace
}  // namespace wcq
