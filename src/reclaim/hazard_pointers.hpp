// Hazard-pointer memory reclamation (Michael, 2004).
//
// The paper's evaluation uses hazard pointers for the node/ring reclamation
// of MSQueue, LCRQ and CRTurn (§6: "we use customized reclamation for YMC
// and hazard pointers elsewhere"), and Appendix A's unbounded wCQ uses them
// for its segments. This is a classic bounded implementation: a table of
// per-thread hazard slots (indexed by the process-wide ThreadRegistry tid,
// grown with the tids in use; common/tid_table.hpp) and per-thread retire
// lists scanned when they exceed a threshold.
//
// Every domain is owned by one queue; there is no process-wide domain. An
// operation resolves its thread's slot row once (`slots_for(tid)`),
// publishes and clears through the static row calls, and retires with the
// tid it already holds, so the hot path makes no registry lookup of its
// own. Destroying the queue destroys its domain, which drains what is
// still retired.
//
// Retired-but-unreclaimed memory stays visible to the Fig 10 alloc meter
// because the owning queues allocate their nodes through alloc_meter and the
// deleter only runs at reclamation time; the domain's own tables and retire
// lists are metered too, so Fig 10 counts them for every queue.
#pragma once

#include <atomic>
#include <cstddef>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "common/op_counters.hpp"

namespace wcq {

class HazardDomain {
 public:
  static constexpr unsigned kSlotsPerThread = 4;

  // One thread's hazard slots. An operation resolves its row once, with
  // slots_for(tid), and passes it to every publish and clear; a per-thread
  // session handle (DESIGN.md §10) caches it across operations. The row for
  // a tid is stable for the domain's lifetime; only the thread holding the
  // tid stores into it (scans read cross-thread).
  struct alignas(kCacheLine) ThreadSlots {
    std::atomic<void*> slots[kSlotsPerThread];
  };

  // `retire_threshold`: per-thread retire-list length that triggers a scan.
  // 0 (default) selects the classic adaptive bound, 2 * kSlotsPerThread *
  // (registered threads + 1), which amortizes scan cost but lets up to that
  // many retired nodes sit unreclaimed per thread. Each scan refreshes the
  // bound from the high water it reads anyway, so a retirement makes no
  // registry lookup of its own. Owners whose nodes are *recycled* rather
  // than freed (UnboundedQueue's segment pool) pass a small fixed threshold
  // instead: nodes then reach the pool promptly instead of idling in retire
  // lists while the queue allocates fresh ones, which is what makes the
  // steady state allocation-free (DESIGN.md §8).
  // Scans are O(threads) and segment retirement is once per 2^order
  // operations, so eager scanning costs nothing measurable there.
  explicit HazardDomain(std::size_t retire_threshold = 0);
  ~HazardDomain();
  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  // `tid`'s row, stable for the domain's lifetime. A tid's first call may
  // install its row chunk (common/tid_table.hpp); later calls are
  // arithmetic.
  ThreadSlots* slots_for(unsigned tid);

  // Publish `src`'s current value in `row`'s `slot` and re-validate until
  // stable; returns the protected pointer. Inline on purpose: with the row
  // in hand the publish loop is a handful of loads and one seq_cst store.
  // Both publish paths count each seq_cst slot store (opcount
  // hazard_publish).
  template <typename T>
  static T* protect(ThreadSlots& row, unsigned slot,
                    const std::atomic<T*>& src) {
    T* p = src.load(std::memory_order_acquire);
    for (;;) {
      WCQ_SCHED_POINT(kHazardProtect);
      opcount::count_hazard_publish();
      row.slots[slot].store(static_cast<void*>(p), std::memory_order_seq_cst);
      T* again = src.load(std::memory_order_acquire);
      if (again == p) return p;
      p = again;
    }
  }

  // Publish an already-loaded pointer (caller re-validates the source).
  template <typename T>
  static void set(ThreadSlots& row, unsigned slot, T* p) {
    WCQ_SCHED_POINT(kHazardProtect);
    opcount::count_hazard_publish();
    row.slots[slot].store(static_cast<void*>(p), std::memory_order_seq_cst);
  }

  // Whether `row`'s `slot` holds `p`. Only the thread that owns the row may
  // ask: it is the slot's only writer, so the relaxed load reads its own
  // last publish or clear (HP-OWN, DESIGN.md §11). A session that finds its
  // segment still published skips the seq_cst store of a fresh protect.
  static bool holds(const ThreadSlots& row, unsigned slot, const void* p) {
    return row.slots[slot].load(std::memory_order_relaxed) == p;
  }

  static void clear(ThreadSlots& row, unsigned slot) {
    WCQ_SCHED_POINT(kHazardClear);
    row.slots[slot].store(nullptr, std::memory_order_release);
  }

  // Hand `p` to the domain from the thread holding `tid` (the retire list
  // is per-tid): `deleter(p, ctx)` runs once no thread protects it. A
  // queue that frees its nodes ignores `ctx`; the segment-recycling path
  // uses it to route retired segments back into their owning queue's pool
  // instead of freeing them. `ctx` must outlive every pending retirement
  // that references it, which the owning queue guarantees by draining its
  // domain no later than its own destruction.
  void retire(unsigned tid, void* p, void (*deleter)(void*, void*), void* ctx);

  // Scan `tid`'s retire list now if it holds anything, instead of at the
  // next retirement that reaches the threshold. Only the thread holding
  // `tid` may call it: the list is that thread's own. An owner about to
  // take fresh memory calls it so that what it retired earlier, and peers
  // have stopped protecting since, is reclaimed first.
  void rescan(unsigned tid);

  // Drain every retire list that can be drained (called by queue dtors;
  // correct only when no other thread is inside the data structure).
  void drain();

  // Test hooks.
  std::size_t retired_count() const;
  // Metered bytes of the per-tid retire-list buffers (quiescent-only).
  std::size_t buffer_bytes() const;

 private:
  void scan(unsigned tid);

  struct Impl;
  Impl* impl_;
};

}  // namespace wcq
