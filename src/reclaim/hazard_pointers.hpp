// Hazard-pointer memory reclamation (Michael, 2004).
//
// The paper's evaluation uses hazard pointers for the node/ring reclamation
// of MSQueue, LCRQ and CRTurn (§6: "we use customized reclamation for YMC
// and hazard pointers elsewhere"). This is a classic bounded implementation:
// a table of per-thread hazard slots (indexed by the process-wide
// ThreadRegistry tid, grown with the tids in use; common/tid_table.hpp) and
// per-thread retire lists scanned when they exceed a threshold proportional
// to the number of registered threads.
//
// Retired-but-unreclaimed memory stays visible to the Fig 10 alloc meter
// because the owning queues allocate their nodes through alloc_meter and the
// deleter only runs at reclamation time.
#pragma once

#include <atomic>
#include <cstddef>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "common/op_counters.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class HazardDomain {
 public:
  static constexpr unsigned kSlotsPerThread = 4;

  // One thread's hazard slots, exposed as a first-class row so a per-thread
  // session handle (DESIGN.md §10) can cache the pointer once and keep the
  // hot-path publish/clear free of ThreadRegistry lookups. The row for a tid
  // is stable for the domain's lifetime; only the owning thread stores into
  // it (scans read cross-thread).
  struct alignas(kCacheLine) ThreadSlots {
    std::atomic<void*> slots[kSlotsPerThread];
  };

  // `retire_threshold`: per-thread retire-list length that triggers a scan.
  // 0 (default) selects the classic adaptive bound, 2 * kSlotsPerThread *
  // (registered threads + 1), which amortizes scan cost but lets up to that
  // many retired nodes sit unreclaimed per thread. Owners whose nodes are
  // *recycled* rather than freed (UnboundedQueue's segment pool) pass a
  // small fixed threshold instead: nodes then reach the pool promptly
  // instead of idling in retire lists while the queue allocates fresh ones,
  // which is what makes the steady state allocation-free (DESIGN.md §8).
  // Scans are O(threads) and segment retirement is once per 2^order
  // operations, so eager scanning costs nothing measurable there.
  explicit HazardDomain(std::size_t retire_threshold = 0);
  ~HazardDomain();
  HazardDomain(const HazardDomain&) = delete;
  HazardDomain& operator=(const HazardDomain&) = delete;

  // Process-wide default domain (queues may also own private domains).
  static HazardDomain& global();

  // The calling thread's (or an explicit tid's) row, stable for the
  // domain's lifetime. Handles cache this. A tid's first call may install
  // its row chunk (common/tid_table.hpp); later calls are arithmetic.
  ThreadSlots* slots_for(unsigned tid);

  // Publish `src`'s current value in the calling thread's hazard slot and
  // re-validate until stable. Returns the protected pointer. Every publish
  // path counts each seq_cst slot store (opcount hazard_publish).
  template <typename T>
  T* protect(unsigned slot, const std::atomic<T*>& src) {
    void* p = protect_raw(slot, reinterpret_cast<const std::atomic<void*>&>(src));
    return static_cast<T*>(p);
  }

  // Row-based hot path (handle-cached row; no registry lookup). Inline on
  // purpose: with the row in hand the publish loop is a handful of loads
  // and one seq_cst store.
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
  void set(unsigned slot, T* p) {
    set_raw(slot, static_cast<void*>(p));
  }

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

  void clear(unsigned slot);
  void clear_all();
  static void clear(ThreadSlots& row, unsigned slot) {
    WCQ_SCHED_POINT(kHazardClear);
    row.slots[slot].store(nullptr, std::memory_order_release);
  }

  // Hand `p` to the domain; `deleter(p)` runs once no thread protects it.
  void retire(void* p, void (*deleter)(void*));

  // Contextful variant for a caller that holds its dense tid (the retire
  // list is per-tid): `deleter(p, ctx)` runs after the grace period. The
  // segment-recycling path uses this to route retired segments back into
  // their owning queue's pool instead of freeing them; `ctx` must outlive
  // every pending retirement that references it (a queue guarantees that by
  // owning a private domain and draining it in its destructor).
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
  void* protect_raw(unsigned slot, const std::atomic<void*>& src);
  void set_raw(unsigned slot, void* p);
  void retire_common(unsigned tid, void* p, void (*deleter)(void*),
                     void (*deleter2)(void*, void*), void* ctx);
  void scan(unsigned tid);

  struct Impl;
  Impl* impl_;
};

}  // namespace wcq
