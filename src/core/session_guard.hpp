// Single-owner session guard for the degree-specialized rings, MpscRing and
// SpmcRing (BasicScq in core/scq.hpp; DESIGN.md §13).
//
// MpscRing's consumer side and SpmcRing's producer side are correct only
// under a single-session discipline: exactly one thread may ever drive the
// specialized side between two exclusive-access points (construction,
// reset(), release_sessions()). Violating that is not a performance bug —
// the owner's plain Head/Tail load+store loses updates — so the guard turns
// the violation into a deterministic diagnosed abort instead of silent
// corruption, the same policy as the queue-destroyed-with-live-handles
// check (DESIGN.md §10).
//
// Cost on the owner's hot path: one thread-local address materialization,
// one relaxed load and a predicted-taken compare — no RMW, no fence — so
// the guard does not perturb the zero-F&A/zero-threshold property the
// bench/check_pipeline.py gate asserts (those gates count shared-ring RMWs,
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
  void enter(const char* ring, const char* role) {
    const void* me = self();
    const void* cur = owner_.load(std::memory_order_relaxed);
    if (cur == me) return;
    if (cur == nullptr &&
        owner_.compare_exchange_strong(cur, me, std::memory_order_relaxed)) {
      return;
    }
    std::fprintf(stderr,
                 "wcq: second %s session on %s (single-%s ring side); "
                 "bind exactly one thread between exclusive-access points\n",
                 role, ring, role);
    assert(false && "second session on a single-owner ring side");
    __builtin_trap();
  }

  // Exclusive-access rebind point: clears the binding so the next session
  // (a recycled segment's new consumer, a destructor's draining thread) can
  // claim it. Legal only when no concurrent operation is possible — the
  // same precondition as the rings' reset() (DESIGN.md §8).
  void release() { owner_.store(nullptr, std::memory_order_relaxed); }

  // True when some thread has bound this side since the last release().
  bool bound() const {
    return owner_.load(std::memory_order_relaxed) != nullptr;
  }

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

}  // namespace wcq
