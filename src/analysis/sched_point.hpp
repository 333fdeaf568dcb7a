// Schedule-exploration hooks (DESIGN.md §11, the memory-model analysis tier).
//
// Every shared Head/Tail/threshold/entry/hazard/magazine transition in the
// rings and their support layers is annotated with WCQ_SCHED_POINT(site).
// In normal builds the macro expands to nothing — the analysis tier costs
// zero in the configurations the throughput gates measure. Under the
// `analysis` CMake preset (WCQ_ANALYSIS=1), every annotation becomes a call
// into this hook layer, where a cooperative scheduler (tests/analysis/
// pct_scheduler.hpp) can suspend the calling thread and hand the processor
// to a different one — turning the annotations into preemption points for
// PCT-style randomized, preemption-bounded interleaving exploration.
//
// The hook dispatch itself is installed at runtime: with no scheduler
// installed, an analysis-build sched point is one acquire load and a
// predictable branch, so analysis binaries still run at full speed outside
// exploration harnesses (their functional tests share the tier-1 suite).
//
// Mutation self-test support: the schedule explorer must be able to detect a
// deliberately broken memory ordering, otherwise a pass proves nothing.
// mutate_deferred_store() models the visibility a downgraded (relaxed)
// threshold re-arm is allowed to have — the store parks in the calling
// thread's "store buffer" and drains only at that thread's next scheduling
// point, after the scheduler has had the chance to run other threads against
// the stale value. Ring code routes exactly one store through it, and only
// when compiled with WCQ_ANALYSIS_MUTATE_THRESHOLD (a test-only binary); see
// tests/analysis/test_mutation_threshold.cpp.
#pragma once

#include <atomic>
#include <cstdint>

namespace wcq::analysis {

// One value per *kind* of shared-memory transition. The taxonomy mirrors the
// DESIGN.md §11 argument groups, so an exploration trace can be read against
// the per-site ordering table.
enum class Site : std::uint8_t {
  kTailFaa = 0,    // shared Tail F&A (fast path, bulk span reservation)
  kHeadFaa,        // shared Head F&A
  kEntryUpdate,    // ring entry word CAS / consume-OR / Note watermark
  kThresholdCheck, // empty fast-exit load of Threshold
  kThresholdArm,   // Threshold re-arm store (the PR 4 / §11 THLD-ARM site)
  kThresholdDec,   // Threshold decrement RMW
  kCatchup,        // Tail catchup CAS
  kSlowLocal,      // slow-path localTail/localHead CAS (incl. FIN edges)
  kSlowPublish,    // slow_F&A global {counter, ref} CAS2 publish/clear
  kSlowHelp,       // load_global_help_phase2 loop head
  kMagazinePut,    // magazine slot release-store
  kMagazineTake,   // magazine slot take-CAS (owner or stealer)
  kMagazineSteal,  // reclaim-sweep scan step
  kHazardProtect,  // hazard slot publish/validate
  kHazardClear,    // hazard slot clear
  kHazardRetire,   // retire-list append / scan trigger
  kHazardScan,     // scan's cross-thread hazard reads
  kPoolOp,         // segment pool take/put edge
  kRegistry,       // registry slot acquire / high-water advance
  kOpBoundary,     // harness-injected operation invocation/response marker
  kParkPrepare,    // eventcount prepare_wait: waiter count published
  kParkCancel,     // eventcount cancel_wait: waiter count retracted
  kParkCommit,     // eventcount commit_wait: park edge (and each cooperative
                   //   re-check iteration under the analysis scheduler)
  kParkWake,       // eventcount notify: epoch bump / futex wake edge
  kChanClose,      // channel close: closed-flag publish before the wake storm
  kSegmentClaim,   // unbounded segment's fresh-index span F&A
  kSpinRegister,   // eventcount spinner registration CAS
  kSpinClaim,      // notify_one's claim of a registered spinner (and each
                   //   step of a spinner's watch under the scheduler)
  kSpinDeregister, // eventcount spinner deregistration CAS
  kSiteCount,
};

// Installed scheduler callbacks. `yield` is invoked by the instrumented
// thread itself at each sched point; a cooperative scheduler blocks inside
// it until the thread is granted the processor again. Implementations must
// tolerate calls from threads they never registered (queue construction on
// a test's main thread, detached teardown work) by returning immediately.
struct SchedHooks {
  void (*yield)(void* ctx, Site site);
  void* ctx;
};

namespace detail {
// Single global installation point. Exploration is a whole-process activity
// (the registry and hazard tables are process-wide too); tests install one
// scheduler at a time.
extern std::atomic<const SchedHooks*> g_hooks;
// Out-of-line slow path: dispatch to the hooks, then drain this thread's
// deferred (mutation-model) store if one is parked.
void sched_point_slow(Site site);
}  // namespace detail

inline bool hooks_installed() {
  return detail::g_hooks.load(std::memory_order_acquire) != nullptr;
}

// The annotation target. One acquire load when no scheduler is installed.
inline void sched_point(Site site) {
  if (hooks_installed()) detail::sched_point_slow(site);
}

// Install/uninstall the process-wide scheduler. Callers serialize these with
// worker lifetime themselves (install before spawning instrumented workers,
// uninstall after joining them); the functions only publish the pointer.
void install(const SchedHooks* hooks);
void uninstall();

// --- mutation self-test support (WCQ_ANALYSIS_MUTATE_THRESHOLD) ------------

// Model of a downgraded threshold re-arm: park {target, value} in a
// per-thread buffer instead of storing seq_cst. The buffered store drains at
// this thread's next sched point *after* the scheduler's yield returns — so
// every other thread the scheduler chooses to run in between observes the
// pre-store value, exactly the window a relaxed store's delayed visibility
// opens on weak hardware (and the StoreLoad window x86 store buffers open
// even under TSO). With no scheduler installed the store happens
// immediately, keeping mutated binaries usable outside the harness.
void mutate_deferred_store(std::atomic<std::int64_t>* target,
                           std::int64_t value);

// Drain the calling thread's parked store, if any. The exploration harness
// calls this when a worker leaves the scheduled region, so a schedule's
// trailing deferred store cannot leak into queue teardown.
void flush_deferred();

}  // namespace wcq::analysis

// WCQ_SCHED_POINT(site_token) — annotation macro used by the instrumented
// layers. Compiles to nothing unless the tree (or the including target) is
// built with -DWCQ_ANALYSIS=1.
#if defined(WCQ_ANALYSIS) && WCQ_ANALYSIS
#define WCQ_SCHED_POINT(site) \
  ::wcq::analysis::sched_point(::wcq::analysis::Site::site)
#else
#define WCQ_SCHED_POINT(site) ((void)0)
#endif
