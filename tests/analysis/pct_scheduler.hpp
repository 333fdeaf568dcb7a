// PCT-style cooperative scheduler for the analysis tier (DESIGN.md §11).
//
// Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS'10): give
// every thread a random priority, run the highest-priority runnable thread,
// and at d randomly chosen steps demote the running thread below everyone
// else. For programs whose bugs need k ordering constraints, a single run
// finds them with probability >= 1/(n * t^(k-1)) — so a few hundred seeds
// cover the small-scope configs explored here many times over.
//
// This implementation drives the WCQ_SCHED_POINT annotations compiled into
// src/ under WCQ_ANALYSIS=1 (or into an individual test binary via a
// per-target define — the rings are header-only, so any preset can run it):
//
//  * Execution is *serialized*: exactly one attached worker runs between two
//    scheduling points; everyone else blocks on a condition variable. With
//    decisions drawn from a seeded xoshiro stream, the whole interleaving —
//    and therefore the (worker, site) byte trace — is a deterministic
//    function of the seed. Same seed, byte-identical trace; that is what
//    tests/analysis/test_schedule_determinism.cpp asserts.
//
//  * Plain PCT assumes preempted threads stay preempted; lock-free spin
//    loops (a helper waiting on a peer's phase-1 CAS) would then spin under
//    the scheduler forever. A quota demotes any worker that has taken
//    `quota` consecutive steps below all others, so some other thread always
//    gets the processor — the scheduling-fairness analogue the algorithms'
//    lock-freedom arguments assume.
//
//  * A wall-clock watchdog is the wedge net: once a schedule has run for
//    `watchdog` (a worker blocked in uninstrumented code, a real deadlock,
//    or runnable workers spinning on a stalled peer), the scheduler flips to
//    free-running so the test fails with a diagnosis instead of hanging
//    CTest. It is checked at every step as well as on every idle poll: a
//    schedule that keeps granting steps never times a poll out.
//
// Threads the scheduler never attached (the test's main thread constructing
// the queue, detached teardown work) pass through sched points untouched.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "analysis/sched_point.hpp"
#include "common/rng.hpp"

namespace wcq::analysis_test {

class PctScheduler {
 public:
  struct Config {
    std::uint64_t seed = 1;
    unsigned workers = 2;
    // d: how many forced demotions ("change points") the schedule injects,
    // at step indices sampled uniformly from [1, horizon].
    unsigned change_points = 3;
    std::size_t horizon = 600;
    // Forced-demotion quota: consecutive own-steps before the running
    // worker is dropped below everyone else (spin-loop fairness).
    std::size_t quota = 64;
    std::chrono::milliseconds watchdog{5000};
    // Stall injection (DESIGN.md §14): suspend worker `stall_victim` the
    // first time it reaches its `stall_after`-th own step, as if the OS
    // descheduled it indefinitely mid-operation. A stalled worker is never
    // granted the processor; it resumes only when no other worker can run
    // (everyone else finished or parked in uninstrumented code) — so every
    // op the other workers complete in between is completed *against a
    // suspended peer*, which is precisely the wait-freedom claim under test.
    // A "killed" peer (pipeline consumer that never comes back) is the same
    // mechanism with the victim's script abandoning its remaining ops once
    // it observes stall_resumed() — see tests/analysis/test_stall_injection.
    int stall_victim = -1;        // worker index; -1 disables
    std::size_t stall_after = 1;  // own-step count at which the stall hits
    // Scripted stall: with a site named, the stall hits at the victim's
    // first step at that site from its stall_after-th step on (kSiteCount:
    // any site).
    analysis::Site stall_site = analysis::Site::kSiteCount;
    // Optional bounded-suspension mode: resume the victim once the *other*
    // workers have taken this many scheduling steps since the stall (0 =
    // only the quiescence trigger above). Use it for shapes where the peers
    // cannot reach quiescence without the victim (e.g. the victim owns the
    // close()) — the bound must sit well below EventCount's virtual-park
    // budget so a peer parked against the stalled victim is resumed-at
    // rather than stranded.
    std::size_t stall_duration = 0;
  };

  explicit PctScheduler(const Config& cfg) : cfg_(cfg), ws_(cfg.workers) {
    Xoshiro256 rng(cfg.seed);
    // Distinct initial priorities: a random permutation of the workers,
    // offset high so demotion values (counting down from kDemoteBase) always
    // rank below every never-demoted worker.
    std::vector<unsigned> order(cfg.workers);
    for (unsigned i = 0; i < cfg.workers; ++i) order[i] = i;
    for (unsigned i = cfg.workers; i > 1; --i) {
      const auto j = static_cast<unsigned>(rng.bounded(i));
      const unsigned tmp = order[i - 1];
      order[i - 1] = order[j];
      order[j] = tmp;
    }
    for (unsigned rank = 0; rank < cfg.workers; ++rank) {
      ws_[order[rank]].priority = kPriorityBase + cfg.workers - rank;
    }
    for (unsigned c = 0; c < cfg.change_points; ++c) {
      change_steps_.push_back(1 + rng.bounded(cfg.horizon));
    }
    trace_.reserve(1 << 14);
    start_ = std::chrono::steady_clock::now();
    hooks_.yield = &PctScheduler::yield_tramp;
    hooks_.ctx = this;
    analysis::install(&hooks_);
  }

  ~PctScheduler() { analysis::uninstall(); }
  PctScheduler(const PctScheduler&) = delete;
  PctScheduler& operator=(const PctScheduler&) = delete;

  // Worker-side: bind the calling thread to worker index `w` and block until
  // every worker has attached and this one is granted the processor. The
  // all-attached gate makes grant decisions independent of OS thread startup
  // order — a precondition for trace determinism.
  void attach(unsigned w) {
    std::unique_lock<std::mutex> lk(mu_);
    tl_worker() = static_cast<int>(w);
    ws_[w].attached = true;
    ++attached_;
    if (attached_ == cfg_.workers) schedule_locked();
    cv_.notify_all();
    wait_for_grant(lk, w);
  }

  // Worker-side: the worker's script is done. Hands the processor on, then
  // *holds the thread here* until every worker is finished, so thread-exit
  // work (registry release, magazine flush hooks) never interleaves with
  // scheduled code. Deliberately does NOT drain a parked mutation-model
  // store: a downgraded store that never became visible must stay invisible,
  // that is the window the mutation self-test exists to catch.
  void finish() {
    std::unique_lock<std::mutex> lk(mu_);
    const int w = tl_worker();
    ws_[static_cast<unsigned>(w)].finished = true;
    if (current_ == w) schedule_locked();
    cv_.notify_all();
    while (!all_finished_locked() && !free_run_) {
      if (cv_.wait_for(lk, kPoll) == std::cv_status::timeout) check_watchdog();
    }
    tl_worker() = -1;
    cv_.notify_all();
  }

  // Steps this worker has executed (its own sched points). The worker reads
  // its own counter between ops to enforce the per-op wait-freedom budget.
  std::size_t own_steps(unsigned w) {
    std::lock_guard<std::mutex> lk(mu_);
    return ws_[w].steps;
  }

  // Post-run accessors (call after every worker joined).
  const std::vector<std::uint8_t>& trace() const { return trace_; }
  bool watchdog_fired() const { return watchdog_fired_; }
  std::size_t total_steps() const { return total_steps_; }

  // Stall-injection observability (worker- or post-run-side; locked).
  bool stall_hit() {
    std::lock_guard<std::mutex> lk(mu_);
    return stall_hit_;
  }
  bool stall_resumed() {
    std::lock_guard<std::mutex> lk(mu_);
    return stall_resumed_;
  }
  // Steps every worker other than the victim executed while the victim sat
  // suspended — the quantitative wait-freedom witness (> 0 means real work
  // completed against a stalled peer).
  std::size_t steps_during_stall() {
    std::lock_guard<std::mutex> lk(mu_);
    return steps_during_stall_;
  }

 private:
  static constexpr std::uint64_t kPriorityBase = 1u << 20;
  static constexpr std::uint64_t kDemoteBase = 1u << 19;
  static constexpr std::chrono::milliseconds kPoll{100};
  static constexpr std::size_t kTraceCap = 1u << 22;  // bytes; caps memory

  struct WorkerState {
    bool attached = false;
    bool finished = false;
    bool stalled = false;
    std::uint64_t priority = 0;
    std::size_t steps = 0;
    std::size_t consecutive = 0;
  };

  static int& tl_worker() {
    thread_local int w = -1;
    return w;
  }

  static void yield_tramp(void* ctx, analysis::Site site) {
    static_cast<PctScheduler*>(ctx)->on_point(site);
  }

  void on_point(analysis::Site site) {
    const int w = tl_worker();
    if (w < 0) return;  // not a scheduled worker (main thread, teardown)
    std::unique_lock<std::mutex> lk(mu_);
    if (free_run_) return;
    auto& st = ws_[static_cast<unsigned>(w)];
    if (trace_.size() < kTraceCap) {
      trace_.push_back(static_cast<std::uint8_t>(w));
      trace_.push_back(static_cast<std::uint8_t>(site));
    }
    ++total_steps_;
    ++st.steps;
    ++st.consecutive;
    check_watchdog();
    if (free_run_) return;
    if (stall_hit_ && !stall_resumed_ && w != cfg_.stall_victim) {
      ++steps_during_stall_;
      if (cfg_.stall_duration != 0 &&
          steps_during_stall_ >= cfg_.stall_duration) {
        for (auto& s : ws_) s.stalled = false;
        stall_resumed_ = true;
      }
    }
    if (w == cfg_.stall_victim && !stall_hit_ &&
        st.steps >= cfg_.stall_after &&
        (cfg_.stall_site == analysis::Site::kSiteCount ||
         site == cfg_.stall_site)) {
      // The victim is suspended *at* this sched point: it keeps the grant
      // request below but schedule_locked will never pick it while stalled,
      // so it blocks here until the resume condition fires.
      st.stalled = true;
      stall_hit_ = true;
    }
    bool demote = false;
    for (const std::size_t s : change_steps_) {
      if (s == total_steps_) demote = true;
    }
    if (st.consecutive >= cfg_.quota) demote = true;
    if (demote) {
      st.priority = demote_next_--;
      st.consecutive = 0;
    }
    schedule_locked();
    cv_.notify_all();
    wait_for_grant(lk, static_cast<unsigned>(w));
  }

  // Grant the highest-priority attached, unfinished, unstalled worker (or
  // nobody). When a stall leaves no grantable worker — every peer of the
  // victim finished — the victim resumes: the suspension was "indefinite"
  // from the peers' point of view (they completed all their work against it)
  // and the resume lets the run terminate so finish()/join() can assert on
  // what happened during the stall window.
  void schedule_locked() {
    if (attached_ < cfg_.workers) return;  // start gate still closed
    current_ = pick_locked();
    if (current_ < 0 && stall_hit_ && !stall_resumed_) {
      for (auto& st : ws_) st.stalled = false;
      stall_resumed_ = true;
      current_ = pick_locked();
    }
  }

  int pick_locked() {
    int best = -1;
    std::uint64_t best_prio = 0;
    for (unsigned i = 0; i < cfg_.workers; ++i) {
      const auto& st = ws_[i];
      if (!st.attached || st.finished || st.stalled) continue;
      if (best < 0 || st.priority > best_prio) {
        best = static_cast<int>(i);
        best_prio = st.priority;
      }
    }
    if (best != current_ && best >= 0) {
      ws_[static_cast<unsigned>(best)].consecutive = 0;
    }
    return best;
  }

  void wait_for_grant(std::unique_lock<std::mutex>& lk, unsigned w) {
    while (!free_run_ && current_ != static_cast<int>(w)) {
      if (cv_.wait_for(lk, kPoll) == std::cv_status::timeout) check_watchdog();
    }
  }

  bool all_finished_locked() const {
    for (const auto& st : ws_) {
      if (!st.finished) return false;
    }
    return true;
  }

  // Called with mu_ held at every step and after every poll timeout.
  void check_watchdog() {
    if (std::chrono::steady_clock::now() - start_ > cfg_.watchdog) {
      free_run_ = true;
      watchdog_fired_ = true;
      cv_.notify_all();
    }
  }

  Config cfg_;
  analysis::SchedHooks hooks_{};
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<WorkerState> ws_;
  unsigned attached_ = 0;
  int current_ = -1;
  std::uint64_t demote_next_ = kDemoteBase;
  std::vector<std::size_t> change_steps_;
  std::size_t total_steps_ = 0;
  bool free_run_ = false;
  bool watchdog_fired_ = false;
  bool stall_hit_ = false;
  bool stall_resumed_ = false;
  std::size_t steps_during_stall_ = 0;
  std::vector<std::uint8_t> trace_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace wcq::analysis_test
