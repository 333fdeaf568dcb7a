// Channel<T> — the blocking facade over the wait-free queues (DESIGN.md §14).
//
// BoundedQueue and ShardedQueue are non-blocking by construction: full means
// "enqueue returns false", empty means "dequeue returns nullopt", and the
// caller decides what to do about it. A server cannot leave that decision to
// every call site — idle consumers must park, producers hitting a full queue
// must apply backpressure, and shutdown must terminate every waiter exactly
// once. Channel packages those policies without touching the queue itself:
//
//   * send/recv       — block (one spinner per direction, the rest park on
//                       an EventCount) until the op completes or the
//                       channel closes.
//   * try_send/try_recv, *_for/*_until — non-blocking and deadline variants.
//   * close()         — idempotent; senders fail fast (kClosed), receivers
//                       drain the residual elements then get kClosed, every
//                       parked waiter is woken.
//
// The non-contended fast path adds zero ring operations: a successful
// try_send is one closed-flag load, the queue's own enqueue, and a notify
// that — with no waiter announced — is a fence plus one relaxed load (no
// RMW, no syscall). tests/test_channel.cpp pins this with the opcount
// counters: N channel ops cost exactly the same ring F&As as N raw queue
// ops.
//
// Parking protocol (per direction — receivers wait on not_empty_, senders on
// not_full_; one loop, block(), serves both). A blocked op registers as its
// direction's one spinner if nobody spins, re-tries the op, and watches the
// eventcount's spinner word for EventCount::kSpinBudget: a notify_one hands
// it the wake with a CAS, no epoch bump and no syscall, and it re-tries the
// op. A thread that finds a spinner registered, or whose budget ran out,
// enters the eventcount's prepare / re-check / commit sequence. The re-check
// between prepare_wait and commit_wait retries the queue op itself (not a
// size hint), so the element a racing peer published is taken rather than
// slept through; EventCount's seq_cst fence pairs close the remaining
// store-buffer windows (PARK-DEKKER and PARK-SPIN in eventcount.hpp). A
// spinner whose re-check succeeded but who finds a claim on deregistering
// passes the wake on with one notify_one (the baton rule). The analysis
// tier's mutation self-tests break exactly these three edges — a dropped
// post-send wake (WCQ_ANALYSIS_MUTATE_DROPWAKE), a skipped pre-park
// re-check (WCQ_ANALYSIS_MUTATE_SKIP_RECHECK) and a dropped baton
// (WCQ_ANALYSIS_MUTATE_SPIN_BATON) — and the PCT explorer must catch each
// via EventCount::stranded().
//
// Close semantics. close() linearizes at the closed_ CAS (CHAN-CLOSE):
//   * Sends that returned kOk happened-before close() are all drained —
//     receivers observing closed_ re-run one authoritative dequeue before
//     reporting kClosed, and pre-close enqueues are visible to any dequeue
//     that starts after closed_ was observed.
//   * Sends concurrent with close() may land after the flag: they still
//     return kOk and their elements are still drained by any receiver that
//     keeps looping, but they are tallied in accepted_after_close (and the
//     sender re-notifies) so a shutdown sequencer can see them.
//   * Sends that begin after close() observe the flag and return kClosed
//     without touching the ring (closed_send_rejects).
//   * Both eventcounts get notify_all() after the flag publish, so every
//     parked waiter wakes, re-checks, and leaves through the closed path.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "analysis/sched_point.hpp"
#include "core/bounded_queue.hpp"
#include "runtime/eventcount.hpp"

namespace wcq {

// Operation outcome. kFull/kEmpty only from try_*; kTimeout only from the
// deadline variants; kClosed from any shape once close() is visible (for
// recv: only after the residual drain is exhausted).
enum class ChanStatus : std::uint8_t {
  kOk = 0,
  kFull,
  kEmpty,
  kClosed,
  kTimeout,
};

template <typename T, typename Q = BoundedQueue<T>>
class Channel {
 public:
  using Queue = Q;

  // Session handle: wraps the queue's own session handle, whose tid names
  // the thread when it registers as a spinner. One per thread, reused
  // across operations (DESIGN.md §10 session discipline applies
  // unchanged). Park counts are per channel direction, in stats().
  class Handle {
    friend class Channel;
    explicit Handle(typename Q::Handle qh) : qh_(std::move(qh)) {}

    typename Q::Handle qh_;
  };

  // Degraded-mode accounting snapshot (surfaced in bench JSON).
  struct Stats {
    std::uint64_t send_parks;           // sender commit_waits (not_full_)
    std::uint64_t recv_parks;           // receiver commit_waits (not_empty_)
    std::uint64_t send_notifies;        // wakes delivered to parked senders
    std::uint64_t recv_notifies;        // wakes delivered to parked receivers
    std::uint64_t send_handoffs;        // wakes handed to a spinning sender
    std::uint64_t recv_handoffs;        // wakes handed to a spinning receiver
    std::uint64_t send_timeouts;        // kTimeout returns from send_*for/until
    std::uint64_t recv_timeouts;        // kTimeout returns from recv_*for/until
    std::uint64_t closed_send_rejects;  // kClosed returns from send paths
    std::uint64_t accepted_after_close; // kOk sends that raced past close()
    std::uint64_t stranded;             // analysis-mode lost-wakeup detector
  };

  template <typename... Args>
  explicit Channel(Args&&... args) : q_(std::forward<Args>(args)...) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  Handle acquire() { return Handle(q_.acquire()); }

  // Pipeline-mode consumer session (ShardedQueue only; SFINAE'd away for
  // queues without acquire_consumer).
  template <typename QQ = Q,
            typename = decltype(std::declval<QQ&>().acquire_consumer(0u))>
  Handle acquire_consumer(unsigned shard) {
    return Handle(q_.acquire_consumer(shard));
  }

  Queue& queue() { return q_; }
  std::uint64_t capacity() const { return q_.capacity(); }

  // --- non-blocking --------------------------------------------------------

  // Moves from `value` only on kOk (the queue layers' enqueue_movable
  // contract), so a rejected element can be re-offered.
  ChanStatus try_send(Handle& h, T& value) {
    if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
      closed_send_rejects_.fetch_add(1, std::memory_order_relaxed);
      return ChanStatus::kClosed;
    }
    return put(h, value) ? ChanStatus::kOk : ChanStatus::kFull;
  }

  ChanStatus try_recv(Handle& h, T& out) {
    if (take(h, out)) return ChanStatus::kOk;
    if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
      // Authoritative drain probe: the failed dequeue above raced pre-close
      // enqueues; one more attempt issued *after* observing the flag sees
      // every element published before close().
      return take(h, out) ? ChanStatus::kOk : ChanStatus::kClosed;
    }
    return ChanStatus::kEmpty;
  }

  // --- blocking ------------------------------------------------------------

  // No deadline is time_point::max() (EventCount::kNoDeadline): the
  // blocking shapes are the deadline shapes that never time out.
  ChanStatus send(Handle& h, T value) {
    return send_impl(h, value, EventCount::kNoDeadline);
  }
  ChanStatus recv(Handle& h, T& out) {
    return recv_impl(h, out, EventCount::kNoDeadline);
  }

  // --- deadline variants ---------------------------------------------------

  ChanStatus send_until(Handle& h, T value,
                        std::chrono::steady_clock::time_point deadline) {
    return send_impl(h, value, deadline);
  }
  template <typename Rep, typename Period>
  ChanStatus send_for(Handle& h, T value,
                      std::chrono::duration<Rep, Period> d) {
    return send_impl(h, value, std::chrono::steady_clock::now() + d);
  }
  ChanStatus recv_until(Handle& h, T& out,
                        std::chrono::steady_clock::time_point deadline) {
    return recv_impl(h, out, deadline);
  }
  template <typename Rep, typename Period>
  ChanStatus recv_for(Handle& h, T& out,
                      std::chrono::duration<Rep, Period> d) {
    return recv_impl(h, out, std::chrono::steady_clock::now() + d);
  }

  // --- shutdown ------------------------------------------------------------

  // Idempotent; safe to race from any number of threads. Returns true for
  // the one caller whose CAS performed the close. The CAS is the close's
  // linearization point; the two notify_all calls behind it guarantee every
  // waiter parked at that point wakes and re-routes through the closed path
  // (the prepare-fence / notify-fence pairing makes a waiter that parks
  // *after* the CAS see the flag in its re-check instead).
  bool close() {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true,
                                         std::memory_order_seq_cst)) {
      return false;  // CHAN-CLOSE
    }
    WCQ_SCHED_POINT(kChanClose);
    not_empty_.notify_all();
    not_full_.notify_all();
    return true;
  }

  bool closed() const {
    return closed_.load(std::memory_order_acquire);  // CHAN-CLOSE
  }

  // --- introspection -------------------------------------------------------

  Stats stats() const {
    Stats s{};
    s.send_parks = not_full_.parks();
    s.recv_parks = not_empty_.parks();
    s.send_notifies = not_full_.notifies();
    s.recv_notifies = not_empty_.notifies();
    s.send_handoffs = not_full_.handoffs();
    s.recv_handoffs = not_empty_.handoffs();
    s.send_timeouts = send_timeouts_.load(std::memory_order_relaxed);
    s.recv_timeouts = recv_timeouts_.load(std::memory_order_relaxed);
    s.closed_send_rejects =
        closed_send_rejects_.load(std::memory_order_relaxed);
    s.accepted_after_close =
        accepted_after_close_.load(std::memory_order_relaxed);
    s.stranded = not_full_.stranded() + not_empty_.stranded();
    return s;
  }

 private:
  // Enqueue through the session, then the post-send wake (after_send).
  bool put(Handle& h, T& value) {
    if (!q_.enqueue_movable(h.qh_, value)) return false;
    after_send();
    return true;
  }

  // Dequeue through the session, move the element out, wake one sender.
  bool take(Handle& h, T& out) {
    auto v = q_.dequeue(h.qh_);
    if (!v) return false;
    out = std::move(*v);
    not_full_.notify_one();
    return true;
  }

  // Post-enqueue bookkeeping shared by every successful send path. The
  // closed re-check catches the send/close race: the element is already in
  // the ring (and will be drained by any receiver still looping), but a
  // shutdown sequencer deserves to know an element landed after the close
  // linearization point — and the extra notify_all covers a drainer that
  // parked between close()'s wake storm and this enqueue.
  void after_send() {
#if defined(WCQ_ANALYSIS_MUTATE_DROPWAKE)
    // Mutation self-test: swallow the post-send wake. A receiver that parked
    // before this enqueue now sleeps forever — the PCT explorer must surface
    // it as EventCount::stranded() > 0 at some schedule
    // (tests/analysis/test_mutation_dropwake.cpp).
    if (closed_.load(std::memory_order_acquire)) {
      accepted_after_close_.fetch_add(1, std::memory_order_relaxed);
    }
#else
    not_empty_.notify_one();
    if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
      accepted_after_close_.fetch_add(1, std::memory_order_relaxed);
      not_empty_.notify_all();
    }
#endif
  }

  ChanStatus send_impl(Handle& h, T& value,
                       std::chrono::steady_clock::time_point deadline) {
    return block(h, not_full_, send_timeouts_, deadline,
                 [&] { return try_send(h, value); });
  }

  ChanStatus recv_impl(Handle& h, T& out,
                       std::chrono::steady_clock::time_point deadline) {
    return block(h, not_empty_, recv_timeouts_, deadline,
                 [&] { return try_recv(h, out); });
  }

  // kFull / kEmpty: the try-op would block; every other status ends a call.
  static bool blocked(ChanStatus s) {
    return s == ChanStatus::kFull || s == ChanStatus::kEmpty;
  }

  // The one blocking loop, shared by both directions: `attempt` is try_send
  // or try_recv, and `ec` is the eventcount that direction waits on. A
  // blocked op spins only if no peer of its direction already does, and it
  // watches the eventcount's spinner word for a notify's claim, not the
  // ring. Otherwise, or once the spin budget passes unclaimed, it parks
  // through prepare / re-check / commit, where the re-check is the try-op
  // itself.
  template <typename Attempt>
  ChanStatus block(Handle& h, EventCount& ec,
                   std::atomic<std::uint64_t>& timeouts,
                   std::chrono::steady_clock::time_point deadline,
                   Attempt attempt) {
    const std::uint32_t token = h.qh_.tid() + 1;
    for (;;) {
      ChanStatus s = attempt();
      if (!blocked(s)) return s;
      if (ec.register_spinner(token)) {
        s = attempt();  // the registration's re-check
        if (!blocked(s)) {
#if defined(WCQ_ANALYSIS_MUTATE_SPIN_BATON)
          // Mutation self-test: keep a claim that landed after the re-check
          // succeeded. Its element waits for a peer nobody woke
          // (tests/analysis/test_mutation_baton.cpp).
          (void)ec.deregister_spinner(token);
#else
          // Baton rule: a claim that landed after the re-check succeeded is
          // a wake no parked peer got, and this caller may never come back
          // for its element, so pass the wake on.
          if (ec.deregister_spinner(token)) ec.notify_one();
#endif
          return s;
        }
        if (ec.await_claim(token)) {
          s = attempt();
          if (!blocked(s)) return s;
          // A claimed spinner whose op fails owes nothing: a peer took
          // what the claim was for.
        }
      }
      const EventCount::Ticket t = ec.prepare_wait();
#if defined(WCQ_ANALYSIS_MUTATE_SKIP_RECHECK)
      // Mutation self-test: park without re-running the op. An element
      // published (and notified) before our prepare_wait is slept through —
      // the classic check-then-park race the prepare/re-check/commit shape
      // exists to close (tests/analysis/test_mutation_parkcheck.cpp).
      (void)0;
#else
      s = attempt();
      if (!blocked(s)) {
        ec.cancel_wait();
        return s;
      }
#endif
      if (!ec.commit_wait(t, deadline) ||
          std::chrono::steady_clock::now() >= deadline) {
        // One last immediate attempt so a wake racing the deadline is not
        // reported as a timeout when the op would now go through.
        s = attempt();
        if (!blocked(s)) return s;
        timeouts.fetch_add(1, std::memory_order_relaxed);
        return ChanStatus::kTimeout;
      }
    }
  }

  Q q_;
  EventCount not_empty_;  // receivers park here; senders notify
  EventCount not_full_;   // senders park here; receivers notify
  // Close flag; the CAS in close() is the linearization point. Loads pair
  // with the eventcount fence machinery (see file comment), so acquire
  // suffices everywhere, the in-park re-check included: close()'s CAS is
  // sequenced before notify_all's seq_cst fence and the re-check after
  // prepare_wait's, so whichever fence is later in S decides the race.
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> send_timeouts_{0};        // STAT-RELAXED
  std::atomic<std::uint64_t> recv_timeouts_{0};        // STAT-RELAXED
  std::atomic<std::uint64_t> closed_send_rejects_{0};  // STAT-RELAXED
  std::atomic<std::uint64_t> accepted_after_close_{0}; // STAT-RELAXED
};

}  // namespace wcq
