// Channel<T> — the blocking facade over the wait-free queues (DESIGN.md §14).
//
// BoundedQueue and ShardedQueue are non-blocking by construction: full means
// "enqueue returns false", empty means "dequeue returns nullopt", and the
// caller decides what to do about it. A server cannot leave that decision to
// every call site — idle consumers must park, producers hitting a full queue
// must apply backpressure, and shutdown must terminate every waiter exactly
// once. Channel packages those policies without touching the queue itself:
//
//   * send/recv       — block (spin-then-park via EventCount) until the op
//                       completes or the channel closes.
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
// Parking protocol (per direction — receivers park on not_empty_, senders on
// not_full_): the op spins through its session handle's Backoff ladder, then
// enters the eventcount's prepare / re-check / commit sequence. The re-check
// between prepare_wait and commit_wait retries the queue op itself (not a
// size hint), so the element a racing peer published is taken rather than
// slept through; EventCount's seq_cst fence pair closes the remaining
// store-buffer window (the PARK-DEKKER argument in eventcount.hpp). The
// analysis tier's mutation self-tests break exactly these two edges — a
// dropped post-send wake (WCQ_ANALYSIS_MUTATE_DROPWAKE) and a skipped
// pre-park re-check (WCQ_ANALYSIS_MUTATE_SKIP_RECHECK) — and the PCT
// explorer must catch both via EventCount::stranded().
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
#include "common/backoff.hpp"
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

  // Session handle: wraps the queue's own session handle and carries the
  // per-thread parking state, the spin-then-park Backoff ladder. One per
  // thread, reused across operations (DESIGN.md §10 session discipline
  // applies unchanged). Park counts are per channel direction, in stats().
  class Handle {
    friend class Channel;
    explicit Handle(typename Q::Handle qh) : qh_(std::move(qh)) {}

    typename Q::Handle qh_;
    Backoff backoff_;
  };

  // Degraded-mode accounting snapshot (surfaced in bench JSON).
  struct Stats {
    std::uint64_t send_parks;           // sender commit_waits (not_full_)
    std::uint64_t recv_parks;           // receiver commit_waits (not_empty_)
    std::uint64_t send_notifies;        // wakes delivered to parked senders
    std::uint64_t recv_notifies;        // wakes delivered to parked receivers
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
    if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
      closed_send_rejects_.fetch_add(1, std::memory_order_relaxed);
      return ChanStatus::kClosed;
    }
    h.backoff_.reset();
    for (;;) {
      if (put(h, value)) return ChanStatus::kOk;
      if (!h.backoff_.yielding()) {
        // Spin phase: burn the ladder before announcing a waiter.
        if (!h.backoff_.until(deadline)) {
          send_timeouts_.fetch_add(1, std::memory_order_relaxed);
          return ChanStatus::kTimeout;
        }
        continue;
      }
      // Park phase: prepare, re-check (the op itself, then the flag), commit.
      const EventCount::Ticket t = not_full_.prepare_wait();
      if (q_.enqueue_movable(h.qh_, value)) {
        not_full_.cancel_wait();
        after_send();
        return ChanStatus::kOk;
      }
      if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
        not_full_.cancel_wait();
        closed_send_rejects_.fetch_add(1, std::memory_order_relaxed);
        return ChanStatus::kClosed;
      }
      if (!not_full_.commit_wait(t, deadline) ||
          std::chrono::steady_clock::now() >= deadline) {
        // One last immediate attempt so a wake racing the deadline is not
        // reported as a timeout when the slot is already there.
        if (put(h, value)) return ChanStatus::kOk;
        send_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return ChanStatus::kTimeout;
      }
      if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
        closed_send_rejects_.fetch_add(1, std::memory_order_relaxed);
        return ChanStatus::kClosed;
      }
    }
  }

  ChanStatus recv_impl(Handle& h, T& out,
                       std::chrono::steady_clock::time_point deadline) {
    h.backoff_.reset();
    for (;;) {
      if (take(h, out)) return ChanStatus::kOk;
      if (closed_.load(std::memory_order_acquire)) {  // CHAN-CLOSE
        // Drain-to-empty: one authoritative attempt after observing the
        // flag (see try_recv); only then report the channel closed.
        return take(h, out) ? ChanStatus::kOk : ChanStatus::kClosed;
      }
      if (!h.backoff_.yielding()) {
        if (!h.backoff_.until(deadline)) {
          recv_timeouts_.fetch_add(1, std::memory_order_relaxed);
          return ChanStatus::kTimeout;
        }
        continue;
      }
      const EventCount::Ticket t = not_empty_.prepare_wait();
#if defined(WCQ_ANALYSIS_MUTATE_SKIP_RECHECK)
      // Mutation self-test: park without re-running the dequeue. An element
      // published (and notified) before our prepare_wait is slept through —
      // the classic check-then-park race the prepare/re-check/commit shape
      // exists to close (tests/analysis/test_mutation_parkcheck.cpp).
      (void)0;
#else
      if (auto v = q_.dequeue(h.qh_)) {
        not_empty_.cancel_wait();
        out = std::move(*v);
        not_full_.notify_one();
        return ChanStatus::kOk;
      }
      if (closed_.load(std::memory_order_seq_cst)) {  // CHAN-CLOSE
        not_empty_.cancel_wait();
        return take(h, out) ? ChanStatus::kOk : ChanStatus::kClosed;
      }
#endif
      if (!not_empty_.commit_wait(t, deadline) ||
          std::chrono::steady_clock::now() >= deadline) {
        if (take(h, out)) return ChanStatus::kOk;
        recv_timeouts_.fetch_add(1, std::memory_order_relaxed);
        return ChanStatus::kTimeout;
      }
    }
  }

  Q q_;
  EventCount not_empty_;  // receivers park here; senders notify
  EventCount not_full_;   // senders park here; receivers notify
  // Close flag; the CAS in close() is the linearization point. Loads pair
  // with the eventcount fence machinery (see file comment), so acquire
  // suffices everywhere except the in-park re-check, which participates in
  // the Dekker case analysis directly and stays seq_cst.
  std::atomic<bool> closed_{false};
  std::atomic<std::uint64_t> send_timeouts_{0};        // STAT-RELAXED
  std::atomic<std::uint64_t> recv_timeouts_{0};        // STAT-RELAXED
  std::atomic<std::uint64_t> closed_send_rejects_{0};  // STAT-RELAXED
  std::atomic<std::uint64_t> accepted_after_close_{0}; // STAT-RELAXED
};

}  // namespace wcq
