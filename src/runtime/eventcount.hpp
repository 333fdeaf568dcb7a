// EventCount — futex-backed parking for the blocking facade (DESIGN.md §14).
//
// The wait-free rings never block, but a server fronting idle traffic cannot
// spin consumers forever. An eventcount is the classic bridge: it lets a
// waiter park on "the queue's state changed" without adding anything to the
// queue's own operations. The protocol is the three-phase prepare/re-check/
// commit shape:
//
//   waiter                                 notifier
//   ------                                 --------
//   t = prepare_wait()   (waiters_++)      publish state (queue op)
//   re-check condition  ----------- race ----------  notify(): read waiters_
//   hit   -> cancel_wait(), done           0  -> done (no wake, no RMW)
//   miss  -> commit_wait(t): park          >0 -> epoch_++, futex wake
//
// Lost-wakeup freedom is a Dekker argument over the two seq_cst fences (one
// in prepare_wait after the waiter-count increment, one in notify() before
// the waiter-count read): whichever fence is later in the fence total order
// S makes the other side's write visible. If the notifier's fence is later,
// it sees the waiter and bumps the epoch — the commit's futex compare (or
// its userspace re-read) observes a ticket mismatch and refuses to sleep.
// If the waiter's fence is later, its re-check sees the published state and
// cancels. There is no third case, so a committed park always has a pending
// wake or a condition the re-check would have caught — the exact argument
// the analysis tier's dropped-wake / skipped-re-check mutations invalidate
// (tests/analysis/test_mutation_{dropwake,parkcheck}.cpp).
//
// Spinner hand-off (PARK-SPIN). One thread at a time may register as the
// direction's spinner: a CAS of its nonzero token into spinner_ from 0, then
// a seq_cst fence — the mirror of PARK-DEKKER's, so either the spinner's
// post-registration re-check sees the notifier's state or the notifier's
// fence makes the registration visible. notify_one() first claims a
// registered spinner (CAS token -> 0): no epoch bump, no syscall. The
// spinner watches spinner_ for kSpinBudget and acts on its claim; a spinner
// that leaves holding a claim it will not act on passes it on with one
// notify_one() (the Channel's baton rule). notify_all() never claims.
//
// The fast path is wait-free and touches no mutex: prepare/cancel are one
// relaxed RMW each plus a fence, notify with no waiter and no spinner is a
// fence + two relaxed loads, and only commit_wait enters the kernel. On
// Linux the park is FUTEX_WAIT_PRIVATE on the 32-bit epoch word (the kernel
// re-validates the ticket under its own lock, closing the check-then-sleep
// window); elsewhere a mutex+condvar fallback provides the same interface
// (the notifier taking the mutex empty-handed before notifying closes the
// same window).
//
// Analysis builds (WCQ_ANALYSIS=1): every protocol edge is a WCQ_SCHED_POINT
// (spinner register, claim and deregister included), and when a cooperative
// scheduler is installed a spinner's watch is bounded by scheduler steps
// rather than time, and commit_wait parks *virtually*
// — it spins at kParkCommit scheduling points re-reading the epoch instead of
// entering the kernel, so the PCT explorer can interleave park/wake edges
// deterministically. A virtual park that exhausts its step budget without
// ever observing an epoch bump returns spuriously (callers re-check by
// contract) and is tallied in stranded(): in a well-formed harness where
// every park has a matching wake, stranded() == 0 over every schedule is the
// lost-wakeup-freedom assertion, and the mutation self-tests demand the
// opposite.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "analysis/sched_point.hpp"
#include "common/cpu.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#define WCQ_HAS_FUTEX 1
#else
#include <condition_variable>
#include <mutex>
#define WCQ_HAS_FUTEX 0
#endif

namespace wcq {

class EventCount {
 public:
  // Epoch snapshot returned by prepare_wait and consumed by commit_wait.
  using Ticket = std::uint32_t;
  // The one "no deadline" value: commit_wait(t) parks until woken.
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();
  // How long a registered spinner watches for a claim before it parks:
  // about one futex wake, the latency a claim saves (a median of 6.0 us on
  // a 4-vCPU x86-64 host, DESIGN.md §14).
  static constexpr std::chrono::nanoseconds kSpinBudget{6000};

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  // Phase 1: announce this thread as a waiter and snapshot the epoch. The
  // caller MUST re-check its wait condition between prepare_wait and
  // commit_wait (that re-check races the notifier's state publication; the
  // fence pair makes exactly one side lose) and MUST follow with exactly one
  // cancel_wait or commit_wait.
  Ticket prepare_wait() {
    waiters_.fetch_add(1, std::memory_order_relaxed);  // PARK-COUNT
    // PARK-DEKKER: orders the waiter announcement before the caller's
    // condition re-check, against notify()'s mirror fence.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    WCQ_SCHED_POINT(kParkPrepare);
    return epoch_.load(std::memory_order_acquire);  // PARK-EPOCH
  }

  // Phase 2a: the re-check found the condition satisfied — retract the
  // announcement without sleeping.
  void cancel_wait() {
    waiters_.fetch_sub(1, std::memory_order_relaxed);  // PARK-COUNT
    WCQ_SCHED_POINT(kParkCancel);
  }

  // Phase 2b: park until the epoch moves past `t` or `deadline` passes.
  // May return spuriously (futex EINTR, a wake aimed at another waiter, the
  // analysis budget); callers re-check their condition and re-prepare in a
  // loop. Returns false iff the park ended because `deadline` passed (a
  // best-effort hint — the caller owns the authoritative deadline check,
  // exactly as it owns the condition re-check); never with kNoDeadline.
  bool commit_wait(
      Ticket t, std::chrono::steady_clock::time_point deadline = kNoDeadline) {
    parks_.fetch_add(1, std::memory_order_relaxed);
#if defined(WCQ_ANALYSIS) && WCQ_ANALYSIS
    if (analysis::hooks_installed()) {
      const bool woke = virtual_park(t);
      waiters_.fetch_sub(1, std::memory_order_relaxed);  // PARK-COUNT
      return woke || std::chrono::steady_clock::now() < deadline;
    }
#endif
    const bool in_time = platform_wait(t, deadline);
    waiters_.fetch_sub(1, std::memory_order_relaxed);  // PARK-COUNT
    return in_time;
  }

  // Notifier side: called *after* publishing the state change the waiters
  // re-check. notify_one hands the wake to a registered spinner if there is
  // one. With no spinner and no waiter this is a fence + two relaxed loads —
  // no RMW, no syscall — which is what keeps the non-contended queue fast
  // path free of parking overhead (the bench gate in tests/test_channel.cpp).
  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

  // --- the spinner (PARK-SPIN) ----------------------------------------------

  // Registers the caller as this direction's one spinner under `token`
  // (nonzero, unique among live threads). False if another thread spins.
  // On success the caller MUST re-try its op (the registration's re-check)
  // and then end with exactly one await_claim or deregister_spinner.
  bool register_spinner(std::uint32_t token) {
    WCQ_SCHED_POINT(kSpinRegister);
    std::uint32_t idle = 0;
    if (!spinner_.compare_exchange_strong(idle, token,
                                          std::memory_order_relaxed)) {
      return false;  // PARK-SPIN
    }
    // PARK-SPIN: PARK-DEKKER's mirror. Orders the registration before the
    // caller's re-check, against notify()'s fence before its spinner read.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return true;
  }

  // Watches for a claim for up to kSpinBudget (a step budget under an
  // analysis scheduler). True iff claimed, either during the watch or by a
  // claim the closing deregistration finds; false leaves the caller
  // deregistered and unclaimed.
  bool await_claim(std::uint32_t token) {
#if defined(WCQ_ANALYSIS) && WCQ_ANALYSIS
    if (analysis::hooks_installed()) {
      for (std::uint32_t i = 0; i < kAnalysisSpinBudget; ++i) {
        WCQ_SCHED_POINT(kSpinClaim);
        if (claimed(token)) return true;
      }
      return !unregister(token);
    }
#endif
    const auto end = std::chrono::steady_clock::now() + kSpinBudget;
    do {
      if (claimed(token)) return true;
      cpu_relax();
    } while (std::chrono::steady_clock::now() < end);
    return !unregister(token);
  }

  // Ends the registration after a re-check that succeeded. True iff a notify
  // claimed the spinner first: the caller then owns that wake and, as it
  // will not act on it, passes it on.
  bool deregister_spinner(std::uint32_t token) {
    WCQ_SCHED_POINT(kSpinDeregister);
    return !unregister(token);
  }

  // --- introspection (tests, bench JSON) ------------------------------------

  // Currently-announced waiters (prepare'd but not yet cancelled/woken).
  std::uint32_t waiters() const {
    return waiters_.load(std::memory_order_relaxed);  // PARK-COUNT
  }
  // commit_wait calls (actual parks, virtual or kernel).
  std::uint64_t parks() const {
    return parks_.load(std::memory_order_relaxed);  // STAT-RELAXED
  }
  // notify calls that found waiters and bumped the epoch.
  std::uint64_t notifies() const {
    return notifies_.load(std::memory_order_relaxed);  // STAT-RELAXED
  }
  // notify_one calls handed to a registered spinner instead of a parked
  // thread.
  std::uint64_t handoffs() const {
    return handoffs_.load(std::memory_order_relaxed);  // STAT-RELAXED
  }
  // Analysis-mode virtual parks that exhausted their step budget without an
  // epoch bump: the lost-wakeup detector (0 over every schedule of a
  // well-formed harness; the mutation self-tests require > 0).
  std::uint64_t stranded() const {
    return stranded_.load(std::memory_order_relaxed);  // STAT-RELAXED
  }

 private:
#if defined(WCQ_ANALYSIS) && WCQ_ANALYSIS
  // Virtual-park step budget under an installed scheduler. Large enough that
  // a pending wake always lands first (PCT's quota demotes the spinner every
  // 64 steps, so every peer gets the processor thousands of times within the
  // budget), small enough that a genuinely stranded waiter terminates the
  // schedule promptly instead of wedging the explorer.
  static constexpr std::uint32_t kAnalysisParkBudget = 4096;
  // A spinner's watch under an installed scheduler, in steps. It must stay
  // below the scheduler's 64-step quota, so whether a notifier's claim
  // lands inside the watch is PCT's choice: a watch past the quota lets the
  // peer run on every schedule, receivers always find the ring refilled,
  // and no schedule parks.
  static constexpr std::uint32_t kAnalysisSpinBudget = 32;

  // Cooperative park: spin at scheduling points until the epoch moves.
  // Returns true if a bump was observed, false on budget exhaustion (tallied
  // as stranded — the caller's contract turns it into a spurious wake).
  bool virtual_park(Ticket t) {
    for (std::uint32_t i = 0; i < kAnalysisParkBudget; ++i) {
      WCQ_SCHED_POINT(kParkCommit);
      if (epoch_.load(std::memory_order_acquire) != t) {  // PARK-EPOCH
        return true;
      }
    }
    stranded_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
#endif

  void notify(bool all) {
    // PARK-DEKKER: orders the caller's state publication before the waiter
    // read, against prepare_wait's mirror fence.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!all) {
      WCQ_SCHED_POINT(kSpinClaim);
      std::uint32_t s = spinner_.load(std::memory_order_relaxed);  // PARK-SPIN
      if (s != 0 &&
          spinner_.compare_exchange_strong(s, 0, std::memory_order_release,
                                           std::memory_order_relaxed)) {
        handoffs_.fetch_add(1, std::memory_order_relaxed);  // STAT-RELAXED
        return;  // PARK-SPIN
      }
    }
    WCQ_SCHED_POINT(kParkWake);
    if (waiters_.load(std::memory_order_relaxed) == 0) {  // PARK-COUNT
      return;
    }
    notifies_.fetch_add(1, std::memory_order_relaxed);  // STAT-RELAXED
#if WCQ_HAS_FUTEX
    epoch_.fetch_add(1, std::memory_order_acq_rel);  // PARK-EPOCH
    futex(&epoch_, FUTEX_WAKE_PRIVATE, all ? INT32_MAX : 1, nullptr);
#else
    epoch_.fetch_add(1, std::memory_order_acq_rel);  // PARK-EPOCH
    // Empty critical section: a waiter past its epoch check but not yet in
    // cv.wait holds the mutex, so acquiring it here orders the bump before
    // that waiter blocks — the condvar analogue of the kernel's futex
    // re-validation.
    { std::lock_guard<std::mutex> lk(mu_); }
    if (all) {
      cv_.notify_all();
    } else {
      cv_.notify_one();
    }
#endif
  }

  // Kernel park. Returns false iff the wait ended on a timed-out deadline.
  bool platform_wait(Ticket t, std::chrono::steady_clock::time_point deadline) {
#if WCQ_HAS_FUTEX
    // kNoDeadline parks with no timeout at all, never a timespec of the
    // ~292 years left until time_point::max().
    timespec ts{};
    timespec* tsp = nullptr;
    if (deadline != kNoDeadline) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline - now);
      ts.tv_sec = static_cast<time_t>(left.count() / 1000000000);
      ts.tv_nsec = static_cast<long>(left.count() % 1000000000);
      tsp = &ts;
    }
    // The kernel re-reads the epoch word under its internal lock and refuses
    // to sleep on a mismatch (EAGAIN) — this is the atomic check-and-park
    // that closes the window between our ticket snapshot and the sleep.
    const long rc = futex(&epoch_, FUTEX_WAIT_PRIVATE,
                          static_cast<int>(t), tsp);
    return !(rc == -1 && errno == ETIMEDOUT);
#else
    std::unique_lock<std::mutex> lk(mu_);
    while (epoch_.load(std::memory_order_acquire) == t) {  // PARK-EPOCH
      if (deadline == kNoDeadline) {
        cv_.wait(lk);
        break;  // one wait per commit: spurious condvar wakes surface as
                // spurious commit returns, which the caller's loop absorbs
      }
      if (cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
        return false;
      }
    }
    return true;
#endif
  }

#if WCQ_HAS_FUTEX
  static long futex(std::atomic<std::uint32_t>* addr, int op, int val,
                    timespec* timeout) {
    return syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(addr), op, val,
                   timeout, nullptr, 0);
  }
#endif

  // A registered spinner's acquire re-read of its claim (PARK-SPIN).
  bool claimed(std::uint32_t token) const {
    return spinner_.load(std::memory_order_acquire) != token;  // PARK-SPIN
  }

  // The deregistration CAS; false iff a claim got there first. An expired
  // watch calls it straight after its last kSpinClaim step, so only the
  // baton window (deregister_spinner) carries a kSpinDeregister point.
  bool unregister(std::uint32_t token) {
    return spinner_.compare_exchange_strong(token, 0,
                                            std::memory_order_acquire,
                                            std::memory_order_acquire);  // PARK-SPIN
  }

  // The futex word: bumped on every delivered notify; waiters sleep on its
  // value. 32-bit by futex contract; wraparound is harmless (a waiter only
  // compares for inequality against a snapshot taken within one park).
  std::atomic<std::uint32_t> epoch_{0};
  // Announced waiters. A stale-high read in notify() costs one spurious epoch
  // bump + wake; a stale-low read is impossible past the fence pair (the
  // PARK-DEKKER argument above), so relaxed RMWs suffice.
  std::atomic<std::uint32_t> waiters_{0};
  // 0, or the token of the one registered spinner. A claim is the CAS back
  // to 0, so a spinner reads any other value as "claimed": tokens are
  // unique among live threads, and a successor's registration can land
  // only after the claim emptied the word.
  std::atomic<std::uint32_t> spinner_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> notifies_{0};
  std::atomic<std::uint64_t> handoffs_{0};
  std::atomic<std::uint64_t> stranded_{0};
#if !WCQ_HAS_FUTEX
  std::mutex mu_;
  std::condition_variable cv_;
#endif
};

}  // namespace wcq
