// The degree-specialized ring under the schedule explorer (DESIGN.md §13):
// PCT-randomized interleavings over small-scope MpscRing configurations,
// asserting linearizability and the bounded-step budget.
//
// Script shapes respect the degree contract — exactly one worker ever
// dequeues an MpscRing (the pairs_scripts shape, where every worker does
// both, would trip the SessionGuard trap by design, so it is deliberately
// absent here).
//
// The load-bearing case is the re-arm comparison: the SAME seeds and the
// SAME script run over SCQ (which re-arms the threshold on every enqueue)
// and over MpscRing (threshold deleted outright, empty decided by a Tail
// comparison). Both explore clean. Paired with test_mutation_threshold —
// where deferring that re-arm on SCQ IS caught — and test_mutation_mpsc —
// where a seeded consumer-path bug in MpscRing IS caught — this is the
// §11-style detection-power argument that the deletion removed a referee
// the single consumer never needed, not a safety net the explorer cannot
// see through.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/scq.hpp"
#include "explore.hpp"

namespace wcq {
namespace {

using analysis_test::OpKind;
using analysis_test::PctScheduler;
using analysis_test::Script;
using analysis_test::linearizable_fifo;
using analysis_test::prodcon_scripts;
using analysis_test::run_schedule;

// Same ceilings as test_schedule_exploration: the budget is a livelock
// tripwire far above any legitimate small-scope op, and 48 seeds at 1-4
// change points cover the few-preemption windows PCT is built to hit.
constexpr std::size_t kOpBudget = 20000;
constexpr unsigned kSeeds = 48;

template <typename Adapter, typename MakeQueue>
void explore(MakeQueue make_queue, const std::vector<Script>& scripts,
             std::size_t capacity) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto q = make_queue();
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    const auto r = run_schedule<Adapter>(*q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    ASSERT_LE(r.max_op_steps, kOpBudget)
        << "per-op step budget blown, seed " << seed;
    ASSERT_TRUE(linearizable_fifo(r.history, capacity,
                                  Adapter::kAllowSpuriousFull))
        << "non-linearizable history, seed " << seed;
  }
}

// Two producers racing one consumer — the smallest shape where the
// consumer's dead-rank walk (a producer holds a Tail rank it has not filled
// while a later rank is already delivered) can occur. Values stay below the
// order-2 ring's capacity of 4 and at most 4 elements are ever in flight.
std::vector<Script> two_prod_one_con_scripts() {
  std::vector<Script> scripts(3);
  scripts[0] = {{OpKind::kEnq, 0}, {OpKind::kEnq, 1}};
  scripts[1] = {{OpKind::kEnq, 2}, {OpKind::kEnq, 3}};
  scripts[2] = {{OpKind::kDeq, 0}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0},
                {OpKind::kDeq, 0}, {OpKind::kDeq, 0}};
  return scripts;
}

TEST(SchedExploreDegree, MpscProdCon) {
  explore<analysis_test::RingAdapter<MpscRing>>(
      [] { return std::make_unique<MpscRing>(2); }, prodcon_scripts(3), 4);
}

TEST(SchedExploreDegree, MpscTwoProducersOneConsumer) {
  explore<analysis_test::RingAdapter<MpscRing>>(
      [] { return std::make_unique<MpscRing>(2); }, two_prod_one_con_scripts(),
      4);
}

// The re-arm comparison itself: identical seeds, identical script, SCQ with
// its threshold re-arm vs MpscRing without any threshold at all. SCQ passing
// shows the schedules exercise the re-arm path (deferring it there is caught
// by test_mutation_threshold); MpscRing passing over the same schedules
// shows no interleaving needs it once the consumer is unique — its false
// empties are ruled out by the seq_cst Tail comparison instead.
TEST(SchedExploreDegree, ThresholdRearmRedundantForSingleConsumer) {
  const auto scripts = prodcon_scripts(3);
  explore<analysis_test::RingAdapter<SCQ>>(
      [] { return std::make_unique<SCQ>(2); }, scripts, 4);
  explore<analysis_test::RingAdapter<MpscRing>>(
      [] { return std::make_unique<MpscRing>(2); }, scripts, 4);
}

}  // namespace
}  // namespace wcq
