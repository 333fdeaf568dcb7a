// Mutation self-test (DESIGN.md §15): every fence-diet downgrade must ship
// with a falsifiable check, not just prose. This binary is compiled with
// WCQ_ANALYSIS_MUTATE_RELAXED, which over-weakens the §15 SPMC-REARM site —
// the argued seq_cst → release threshold re-arm store in
// SpmcRing::reset_threshold() — one step further, to a relaxed store whose
// visibility is deferred past the arming thread's next scheduling point
// (analysis::mutate_deferred_store, the same store-buffer model the
// THLD-ARM mutation uses).
//
// The window it opens is exactly what the SPMC-REARM argument says release
// still forbids: the producer inserts an element and re-arms, but the arm
// is not yet visible; a consumer that starts *after* the enqueue's response
// still reads the exhausted threshold and returns empty — a false empty on
// a provably non-empty queue, rejected by the linearizability checker. The
// suite asserts the PCT explorer catches this within a bounded number of
// schedules and reports the schedule index, closing the §15 detection-power
// loop for the diet.
#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <memory>

#include "core/scq.hpp"
#include "explore.hpp"

#if !defined(WCQ_ANALYSIS_MUTATE_RELAXED)
#error "this binary must be compiled with WCQ_ANALYSIS_MUTATE_RELAXED"
#endif

namespace wcq {
namespace {

using analysis_test::OpKind;
using analysis_test::PctScheduler;
using analysis_test::Script;
using analysis_test::linearizable_fifo;
using analysis_test::run_schedule;

// Same budget reasoning as test_mutation_threshold: the catching
// interleaving (producer runs to completion before the consumer starts)
// needs the producer to hold the higher PCT priority throughout — roughly
// half of all seeds — so 256 is vast headroom.
constexpr std::uint64_t kMaxSchedules = 256;

// Degree-respecting shape (exactly one worker ever enqueues an SpmcRing):
// w0 is the producer whose single enqueue arms the threshold from its
// empty-start -1, and that arm is the deferred store. Because it is w0's
// *last* operation, no later sched point of w0 ever drains the parked
// store: in every schedule where w0 runs to completion first, both of w1's
// dequeues start after the enqueue's response yet still read the exhausted
// threshold — deq->empty with one element committed, non-linearizable.
std::vector<Script> mutation_scripts() {
  std::vector<Script> scripts(2);
  scripts[0] = {{OpKind::kEnq, 0}};
  scripts[1] = {{OpKind::kDeq, 0}, {OpKind::kDeq, 0}};
  return scripts;
}

TEST(SchedMutationRelaxed, SpmcRearmOverWeakeningCaught) {
  const auto scripts = mutation_scripts();
  for (std::uint64_t seed = 1; seed <= kMaxSchedules; ++seed) {
    auto q = std::make_unique<SpmcRing>(2);
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    const auto r =
        run_schedule<analysis_test::RingAdapter<SpmcRing>>(*q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    if (!linearizable_fifo(
            r.history, 4,
            analysis_test::RingAdapter<SpmcRing>::kAllowSpuriousFull)) {
      std::cout << "SPMC: over-weakened re-arm store caught at schedule "
                << seed << " of " << kMaxSchedules << "\n";
      SUCCEED();
      return;
    }
  }
  FAIL() << "SPMC: " << kMaxSchedules
         << " schedules missed the injected re-arm over-weakening — the "
            "explorer has lost its §15 detection power";
}

// With no scheduler installed the mutation hook must pass straight through
// to the release store: a mutated binary still behaves correctly outside
// the harness, so its ordinary unit tests (and this sanity check) stay
// green.
TEST(SchedMutationRelaxed, PassThroughWithoutScheduler) {
  SpmcRing q(2);
  q.enqueue(1);
  const auto v = q.dequeue();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 1u);
  EXPECT_FALSE(q.dequeue().has_value());
  q.enqueue(2);  // re-arm after empty: the mutated path, un-deferred
  const auto w = q.dequeue();
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(*w, 2u);
}

}  // namespace
}  // namespace wcq
