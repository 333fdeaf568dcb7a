// Single-owner session guard for the degree-specialized ring, MpscRing
// (BasicScq in core/scq.hpp; DESIGN.md §13).
//
// MpscRing's consumer side is correct only under a single-session
// discipline: exactly one thread may ever dequeue between two
// exclusive-access points (construction, reset(), release_sessions()).
// Violating that is not a performance bug — the owner's plain Head
// load+store loses updates — so the guard turns the violation into a
// deterministic diagnosed abort instead of silent corruption, the same
// policy as the queue-destroyed-with-live-handles check (DESIGN.md §10).
//
// Cost on the owner's hot path: one thread-local address materialization,
// one relaxed load and a predicted-taken compare — no RMW, no fence — so
// the guard does not perturb the zero-F&A/zero-threshold property the
// pipeline gate in bench/gates.json asserts (those gates count shared-ring RMWs,
// which the guard never performs after binding).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdio>

namespace wcq {

class SessionGuard {
 public:
  // Bind-or-verify: the first thread through becomes the owner; any other
  // thread tripping this is a contract violation. The trap is unconditional
  // (not assert-only) so release builds fail deterministically too — a
  // second consumer racing the first would otherwise corrupt the ring
  // state long before an assert build ever saw it.
  void enter(const char* ring) {
    const void* me = self();
    const void* cur = owner_.load(std::memory_order_relaxed);
    if (cur == me) return;
    if (cur == nullptr &&
        owner_.compare_exchange_strong(cur, me, std::memory_order_relaxed)) {
      return;
    }
    std::fprintf(stderr,
                 "wcq: second consumer session on %s (single-consumer "
                 "ring); bind exactly one thread between exclusive-access "
                 "points\n",
                 ring);
    assert(false && "second session on a single-owner ring side");
    __builtin_trap();
  }

  // Exclusive-access rebind point: clears the binding so the next session
  // (a recycled segment's new consumer, a destructor's draining thread) can
  // claim it. Legal only when no concurrent operation is possible — the
  // same precondition as the rings' reset() (DESIGN.md §8).
  void release() { owner_.store(nullptr, std::memory_order_relaxed); }

 private:
  // Identity of the calling thread: the address of a thread_local tag,
  // stable for the thread's lifetime and resolved without the registry (so
  // the guard adds zero tid()/high_water() lookups to the counters the
  // session-handle gate tracks).
  static const void* self() {
    static thread_local char tag;
    return &tag;
  }

  std::atomic<const void*> owner_{nullptr};
};

namespace detail {

// The single-consumer ring pins its owner thread via a SessionGuard; the
// exclusive-access paths of the layers above them (destructor drain, reset)
// legitimately run on a different thread than the bound owner, so they
// clear the binding first. Symmetric rings have no such method —
// compile-time no-op.
template <typename R>
void release_ring_sessions(R& ring) {
  if constexpr (requires { ring.release_sessions(); }) {
    ring.release_sessions();
  }
}

}  // namespace detail

}  // namespace wcq
