// Schedule-exploration suite (DESIGN.md §11): PCT-randomized, preemption-
// bounded interleavings over small-scope configurations of every ring type,
// asserting linearizability and a bounded-step wait-freedom budget per op.
//
// This binary compiles the (header-only) rings with WCQ_ANALYSIS=1 via a
// per-target define, so the suite runs in the fast tier under every preset;
// the `analysis` preset additionally instruments the library TUs (registry,
// hazard domain) for deeper coverage.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/op_counters.hpp"

#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "core/wcq_llsc.hpp"
#include "explore.hpp"

namespace wcq {
namespace {

using analysis_test::OpKind;
using analysis_test::PctScheduler;
using analysis_test::Script;
using analysis_test::burst_scripts;
using analysis_test::linearizable_fifo;
using analysis_test::pairs_scripts;
using analysis_test::prodcon_scripts;
using analysis_test::run_schedule;

// Per-op own-step ceiling. Far above any legitimate small-scope op (tens to
// a few hundred steps, slow path included) and far below anything a livelock
// would produce before the watchdog trips — a bounded-step budget, not a
// tight wait-freedom bound.
constexpr std::size_t kOpBudget = 20000;

constexpr unsigned kSeeds = 48;

// `after_run(q)` inspects each queue once its schedule has completed.
template <typename Adapter, typename MakeQueue, typename AfterRun>
void explore(MakeQueue make_queue, const std::vector<Script>& scripts,
             std::size_t capacity, AfterRun after_run) {
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
    after_run(*q);
  }
}

template <typename Adapter, typename MakeQueue>
void explore(MakeQueue make_queue, const std::vector<Script>& scripts,
             std::size_t capacity) {
  explore<Adapter>(make_queue, scripts, capacity,
                   [](typename Adapter::Queue&) {});
}

TEST(SchedExplore, ScqPairs) {
  explore<analysis_test::RingAdapter<SCQ>>(
      [] { return std::make_unique<SCQ>(2); }, pairs_scripts(3, 2, false), 4);
}

TEST(SchedExplore, ScqProdCon) {
  explore<analysis_test::RingAdapter<SCQ>>(
      [] { return std::make_unique<SCQ>(2); }, prodcon_scripts(3), 4);
}

TEST(SchedExplore, WcqPairs) {
  explore<analysis_test::RingAdapter<WCQ>>(
      [] { return std::make_unique<WCQ>(2); }, pairs_scripts(3, 2, false), 4);
}

TEST(SchedExplore, WcqProdCon) {
  explore<analysis_test::RingAdapter<WCQ>>(
      [] { return std::make_unique<WCQ>(2); }, prodcon_scripts(3), 4);
}

// Patience 1 sends an op to the helped slow path (Fig 7) after its first
// failed fast-path attempt, but these scripts never fail one: two threads
// running enqueue/dequeue pairs on a 4-slot ring hold at most two elements,
// and an instrumented run counted 0 failed attempts, hence 0 enqueue_slow
// and 0 dequeue_slow entries, over every explored schedule. What this
// checks is FIFO linearizability of the patience-1 ring's fast path, empty
// exits and no-op help_threads scans under preemption. Reaching the slow
// path needs a script or hook that makes a fast-path attempt fail.
TEST(SchedExplore, WcqSlowPath) {
  explore<analysis_test::RingAdapter<WCQ>>(
      [] {
        return std::make_unique<WCQ>(
            WCQ::Options{.order = 2, .enq_patience = 1, .deq_patience = 1});
      },
      pairs_scripts(2, 2, false), 4);
}

TEST(SchedExplore, WcqLlscPairs) {
  explore<analysis_test::RingAdapter<WCQLLSC>>(
      [] { return std::make_unique<WCQLLSC>(2); }, pairs_scripts(3, 2, false),
      4);
}

using BoundedU64 = BoundedQueue<std::uint64_t, WCQ>;

TEST(SchedExplore, BoundedMagazinesOff) {
  explore<analysis_test::BoundedAdapter<BoundedU64, false>>(
      [] {
        return std::make_unique<BoundedU64>(BoundedU64::Options{
            .order = 2, .magazine = {.enabled = false, .capacity = 0}});
      },
      pairs_scripts(3, 2, true), 4);
}

// With magazines on, a free index parked mid-put can slip past the reclaim
// sweep, so "full" may be spurious (DESIGN.md §9) — the checker accepts
// full in any state here; loss, duplication and FIFO breaks still fail.
TEST(SchedExplore, BoundedMagazinesOn) {
  explore<analysis_test::BoundedAdapter<BoundedU64, true>>(
      [] {
        return std::make_unique<BoundedU64>(BoundedU64::Options{
            .order = 2, .magazine = {.enabled = true, .capacity = 16}});
      },
      pairs_scripts(3, 2, true), 4);
}

using UnboundedU64 = UnboundedQueue<std::uint64_t, WCQ>;

// Two-item segments under three-element bursts: every schedule finalizes a
// segment and appends the next, and dequeues drain and unlink finalized
// segments — the Tail FIN bit (RING-FIN) under the preemption schedule.
// The queue is unbounded; occupancy never exceeds the nine scripted elements,
// so any larger capacity makes the checker's full rule inert. The after-run
// check confirms the run really crossed segments.
TEST(SchedExplore, UnboundedTinySegments) {
  unsigned grew = 0;
  explore<analysis_test::UnboundedAdapter<UnboundedU64>>(
      [] {
        return std::make_unique<UnboundedU64>(
            UnboundedU64::Options{.segment_order = 1});
      },
      burst_scripts(3, 3), 64, [&grew](UnboundedU64& q) {
        q.reclaim_flush();  // retired segments park in the pool
        if (q.live_segments() + q.pooled_segments() > 1) ++grew;
      });
  EXPECT_EQ(grew, kSeeds) << "a schedule never left the first segment";
}

// The FIN window held open (the unmutated twin of
// SchedMutationFin.ScriptedClaimStallCaught): w0 stalls between its
// segment claim and its ring Tail F&A while w1 fills and finalizes the
// two-element segment and w2 drains it. The stall lasts until w1 and w2
// have finished their scripts: w2 unlinks the segment without waiting for
// w0, whose F&A then draws FIN and moves its element to the successor, so
// it is delivered and every history stays linearizable.
TEST(SchedExplore, UnboundedClaimStallKeepsElement) {
  std::vector<Script> scripts(3);
  scripts[0] = {{OpKind::kEnq, 100}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0}};
  scripts[1] = {{OpKind::kEnq, 1}, {OpKind::kEnq, 2}, {OpKind::kEnq, 3}};
  scripts[2] = {{OpKind::kDeq, 0}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0},
                {OpKind::kDeq, 0}};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto q = std::make_unique<UnboundedU64>(
        UnboundedU64::Options{.segment_order = 1});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    cfg.horizon = 120;
    cfg.stall_victim = 0;
    cfg.stall_site = analysis::Site::kTailFaa;
    const auto r =
        run_schedule<analysis_test::UnboundedAdapter<UnboundedU64>>(
            *q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    ASSERT_TRUE(linearizable_fifo(r.history, 64, false))
        << "non-linearizable history, seed " << seed;
  }
}

// The same FIN window with every worker on an owned session, whose hazard
// slot stays published between its ops: w0's slot keeps the segment its
// stalled enqueue claimed in, so w2 retires that segment under it. The
// history must linearize, and the dequeued elements plus a post-run drain
// must hold each enqueued element exactly once.
TEST(SchedExplore, UnboundedClaimStallOwnedSessionsExactlyOnce) {
  std::vector<Script> scripts(3);
  scripts[0] = {{OpKind::kEnq, 100}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0}};
  scripts[1] = {{OpKind::kEnq, 1}, {OpKind::kEnq, 2}, {OpKind::kEnq, 3}};
  scripts[2] = {{OpKind::kDeq, 0}, {OpKind::kDeq, 0}, {OpKind::kDeq, 0},
                {OpKind::kDeq, 0}};
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    auto q = std::make_unique<UnboundedU64>(
        UnboundedU64::Options{.segment_order = 1});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    cfg.horizon = 120;
    cfg.stall_victim = 0;
    cfg.stall_site = analysis::Site::kTailFaa;
    const auto r =
        run_schedule<analysis_test::OwnedUnboundedAdapter<UnboundedU64>>(
            *q, scripts, cfg);
    ASSERT_FALSE(r.watchdog_fired) << "scheduler wedged, seed " << seed;
    ASSERT_TRUE(linearizable_fifo(r.history, 64, false))
        << "non-linearizable history, seed " << seed;
    std::multiset<std::uint64_t> sent, got;
    for (const auto& op : r.history) {
      if (op.is_enq) sent.insert(op.value);
      if (!op.is_enq && op.ok) got.insert(op.value);
    }
    while (auto v = q->dequeue()) got.insert(*v);
    ASSERT_EQ(got, sent) << "lost or duplicated element, seed " << seed;
    ASSERT_EQ(q->live_handles(), 0) << "seed " << seed;
  }
}

// A slow-path enqueue that meets FIN. w0's fast path (patience 1) draws a
// rank and stalls at its entry update; w1's dequeue claims that rank,
// ⊥-marks its slot and pulls Tail past it, then w1 finalizes the ring.
// w0 resumes, fails the rank, and its slow-path request reads a FIN'd
// Tail in slow_faa: the request closes instead of reserving, and the
// enqueue returns false with nothing inserted. Where w1 runs first, w0's
// fast-path F&A draws FIN and fails before any entry update. Either way
// the enqueue is refused and the ring stays empty; the first shape must
// occur in some schedule.
TEST(SchedExplore, WcqSlowEnqueueClosedByFin) {
  unsigned slow_closes = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    WCQ q(WCQ::Options{.order = 1, .enq_patience = 1, .deq_patience = 1});
    // Arm the threshold, so w1's dequeue claims a rank instead of taking
    // the empty fast exit.
    q.enqueue(0);
    ASSERT_EQ(q.dequeue(), std::optional<u64>{0});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 2;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    cfg.stall_victim = 0;
    cfg.stall_site = analysis::Site::kEntryUpdate;
    bool enqueued = true;
    bool slow = false;
    {
      PctScheduler sched(cfg);
      std::thread enq([&] {
        sched.attach(0);
        const auto before = opcount::snapshot();
        enqueued = q.enqueue(1);
        slow = (opcount::snapshot() - before).wcq_enq_slow != 0;
        sched.finish();
      });
      std::thread fin([&] {
        sched.attach(1);
        (void)q.dequeue();
        q.finalize();
        sched.finish();
      });
      enq.join();
      fin.join();
      ASSERT_FALSE(sched.watchdog_fired()) << "seed " << seed;
    }
    EXPECT_FALSE(enqueued) << "seed " << seed;
    EXPECT_EQ(q.dequeue(), std::nullopt) << "seed " << seed;
    if (slow) ++slow_closes;
  }
  EXPECT_GT(slow_closes, 0u) << "no schedule closed a slow-path request";
}

// wCQ's slow dequeue (Fig 5 lines 40-54, Fig 7 try_deq_slow). w0's dequeue
// (patience 1) draws a Head rank and stalls before looking at its slot,
// which w1's first enqueue then fills. w1's three dequeues find nothing
// past that rank, and their catchups pull Tail a lap ahead. w1's next
// enqueue meets the stalled rank's element, still live, in its next-lap
// slot, so it abandons that rank and lands one further. w1's last dequeue
// draws the abandoned rank: an older live element with Tail past it is a
// retry, and with patience spent the dequeue takes the slow path. The
// stall sits after the Head F&A, not before it: a victim held before
// drawing its rank leaves w1 running alone, and a lone thread never fails
// a fast-path attempt. Every element is delivered exactly once on every
// seed; the slow shape must occur in some schedule.
template <typename Ring>
void slow_dequeue_after_stalled_claim() {
  unsigned slow_dequeues = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Ring q(typename Ring::Options{.order = 1, .deq_patience = 1});
    // Arm the threshold, so w0's dequeue claims a rank instead of taking
    // the empty fast exit.
    q.enqueue(0);
    ASSERT_EQ(q.dequeue(), std::optional<u64>{0});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 2;
    cfg.change_points = 1 + static_cast<unsigned>(seed % 4);
    cfg.horizon = 60;
    cfg.stall_victim = 0;
    cfg.stall_site = analysis::Site::kEntryUpdate;
    std::multiset<u64> got;
    std::optional<u64> stalled_got;
    bool slow = false;
    {
      PctScheduler sched(cfg);
      std::thread victim([&] {
        sched.attach(0);
        stalled_got = q.dequeue();
        sched.finish();
      });
      std::thread peer([&] {
        sched.attach(1);
        const auto before = opcount::snapshot();
        q.enqueue(0);
        for (int i = 0; i < 3; ++i) {
          if (auto v = q.dequeue()) got.insert(*v);
        }
        q.enqueue(1);
        if (auto v = q.dequeue()) got.insert(*v);
        slow = (opcount::snapshot() - before).wcq_deq_slow != 0;
        sched.finish();
      });
      victim.join();
      peer.join();
      ASSERT_FALSE(sched.watchdog_fired()) << "seed " << seed;
    }
    if (stalled_got) got.insert(*stalled_got);
    while (auto v = q.dequeue()) got.insert(*v);
    EXPECT_EQ(got, (std::multiset<u64>{0, 1}))
        << "lost or duplicated element, seed " << seed;
    if (slow) ++slow_dequeues;
  }
  EXPECT_GT(slow_dequeues, 0u) << "no schedule took the slow dequeue";
}

TEST(SchedExplore, WcqSlowDequeueAfterStalledClaim) {
  slow_dequeue_after_stalled_claim<WCQ>();
}

// The same shape over the LL/SC entry-op backend (Fig 9).
TEST(SchedExplore, WcqLlscSlowDequeueAfterStalledClaim) {
  slow_dequeue_after_stalled_claim<WCQLLSC>();
}

}  // namespace
}  // namespace wcq
