// Per-thread free-index magazines for the Fig 2 indirection layer
// (DESIGN.md §9).
//
// BoundedQueue's fq ring is a *free list*: FIFO order among free indices is
// semantically irrelevant (any free index is as good as any other), which
// makes per-thread caching of free indices safe — the observation Jiffy
// (Adas & Friedman) uses to amortize shared-structure traffic with
// thread-local buffers. Each queue owns one magazine per tid it serves; a
// dequeue parks the index it just freed in the caller's magazine and an
// enqueue claims from there first, so at steady state the fq half of the
// Fig 2 double-ring hot path (its seq_cst F&A, threshold decrement and help
// check) disappears entirely. Refills/spills go through fq's bulk paths in
// half-magazine spans, so the residual fq traffic is one shared-ring
// operation per span instead of one per element.
//
// Concurrency shape:
//  * A magazine is a per-tid row of `capacity` atomic slots, each holding
//    kNone or one free index. There is no count word: the slots are the
//    only state, so a put is a slot scan plus one release store and a take
//    a slot scan plus one CAS. A row is round_up(capacity, 8) words — the
//    default 16 slots are exactly two cache lines — and the row array is
//    aligned to kDestructiveRange, so a two-line row is one adjacent-line
//    prefetch pair and dense neighboring tids never share a line or a pair.
//  * The set holds one row per tid the owning queue can actually serve:
//    BoundedQueue passes the data ring's thread limit (128 for a WCQ ring,
//    which traps larger tids) or, for rings without one, every registry tid.
//  * Only the owning thread stores indices into its slots, so a slot the
//    owner observed empty stays empty until the owner writes it — puts are
//    a plain check-then-store (release), no RMW.
//  * Takes CAS the slot back to kNone (acquire). The owner CASes because
//    *other* threads may concurrently take too: the reclaim sweep (an
//    enqueuer that found both its magazine and fq empty steals a cached
//    index so cached-but-unused indices cannot wedge the queue) and the
//    thread-exit flush both claim slots cross-thread. At steady state the
//    CAS is uncontended and the row is owner-exclusive — that cheapness is
//    the whole point.
//  * The release(put)/acquire(take) pairing carries the payload-destruction
//    → payload-construction happens-before edge that fq's enqueue/dequeue
//    provided for recycled indices.
//
// Every operation is a bounded scan (≤ capacity slots, or high_water()
// rows for the sweep): no retry loops, so the wait-freedom of the
// enclosing queue is preserved.
#pragma once

#include <atomic>
#include <cstddef>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class IndexMagazines {
 public:
  struct Config {
    // Off reproduces the plain double-ring behavior (A/B benching).
    bool enabled = true;
    // Per-thread slots; the owning queue clamps this to kMaxSlots and to a
    // fraction of ring capacity so magazines stay well under the ring size.
    std::size_t capacity = 16;
  };

  static constexpr std::size_t kMaxSlots = 32;
  static constexpr u64 kNone = ~u64{0};

  // Disabled set: no storage, every operation is a cheap no-op/miss.
  IndexMagazines() = default;

  // `capacity` == 0 constructs a disabled set. One row per tid in
  // [0, rows), sized once at queue construction (metered, Fig 10):
  // round_up(capacity, 8) atomic words per row.
  IndexMagazines(std::size_t capacity, unsigned rows)
      : cap_(capacity < kMaxSlots ? capacity : kMaxSlots) {
    if (cap_ != 0) {
      constexpr std::size_t kWordsPerLine = kCacheLine / sizeof(u64);
      stride_ = AlignedArray<std::atomic<u64>>::round_up(cap_, kWordsPerLine);
      words_ = AlignedArray<std::atomic<u64>>(rows * stride_,
                                              kDestructiveRange);
      for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i].store(kNone, std::memory_order_relaxed);
      }
    }
  }

  IndexMagazines(const IndexMagazines&) = delete;
  IndexMagazines& operator=(const IndexMagazines&) = delete;

  bool enabled() const { return cap_ != 0; }
  std::size_t capacity() const { return cap_; }
  // Rows allocated (tids served); 0 when disabled.
  unsigned rows() const {
    return stride_ == 0 ? 0u : static_cast<unsigned>(words_.size() / stride_);
  }
  // Refill span: indices pulled from fq beyond the one the triggering
  // enqueue consumes. Half-magazine spans give hysteresis: a freshly
  // refilled/spilled magazine is half full, so the next spill/refill is a
  // half-magazine of operations away in either direction.
  std::size_t refill_span() const { return cap_ / 2; }
  std::size_t spill_span() const { return cap_ / 2 + 1; }

  // --- session surface (DESIGN.md §10) ------------------------------------

  // The magazine row for a tid, cached once in a queue's per-thread
  // session handle so the owner operations below run with zero registry
  // lookups. nullptr when magazines are disabled (callers branch on
  // enabled() anyway). Stable for the queue's lifetime.
  std::atomic<u64>* block_for(unsigned tid) const {
    return enabled() && tid < rows() ? block(tid) : nullptr;
  }

  // --- owner operations (the row is the caller's own magazine) ------------

  // Claim one cached index.
  bool try_take_at(std::atomic<u64>* m, u64& out) {
    return take_some_from(m, &out, 1) == 1;
  }

  // Park one freed index; false when every slot is full (caller spills).
  bool try_put_at(std::atomic<u64>* m, u64 idx) {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (m[i].load(std::memory_order_relaxed) == kNone) {
        // Only the owner stores non-kNone values, so the slot cannot have
        // been filled since the check; takes only empty slots out.
        WCQ_SCHED_POINT(kMagazinePut);
        m[i].store(idx, std::memory_order_release);
        return true;
      }
    }
    return false;
  }

  // Claim up to `n` cached indices (bulk claim, spill, exit flush).
  std::size_t take_some_at(std::atomic<u64>* m, u64* out, std::size_t n) {
    return take_some_from(m, out, n);
  }

  // Implicit-path wrappers: resolve the calling thread's row through the
  // registry (one lookup), then run the row-based operation. Unit tests
  // and any caller without a session handle use these.
  bool try_take(u64& out) { return try_take_at(mine(), out); }
  bool try_put(u64 idx) { return try_put_at(mine(), idx); }
  std::size_t take_some(u64* out, std::size_t n) {
    return take_some_at(mine(), out, n);
  }

  // --- cross-thread operations --------------------------------------------

  // Reclaim sweep: steal one cached index from any magazine but `self`'s.
  // Bounded: one pass over the registered-tid range. A miss does not prove
  // no index is cached anywhere (an in-flight put/flush can slip past the
  // scan) — that transient is the same class as an index held by an
  // in-flight enqueuer, which the "full" contract already tolerates
  // (DESIGN.md §9). Runs only at the full edge, so its registry lookup is
  // off the steady-state budget.
  bool steal_for(unsigned self, u64& out) {
    const unsigned n = rows_in_use();
    for (unsigned t = 0; t < n; ++t) {
      if (t == self) continue;
      WCQ_SCHED_POINT(kMagazineSteal);
      if (take_some_from(block(t), &out, 1) == 1) return true;
    }
    return false;
  }

  bool steal(u64& out) { return steal_for(ThreadRegistry::tid(), out); }

  // Claim every index cached in `tid`'s magazine (thread-exit flush; also
  // usable cross-thread since takes are CASes).
  std::size_t drain_tid(unsigned tid, u64* out, std::size_t n) {
    if (!enabled() || tid >= rows()) return 0;
    return take_some_from(block(tid), out, n);
  }

  // Diagnostic: cached indices across all magazines (exact at quiescence).
  std::size_t cached_total() const {
    std::size_t total = 0;
    for (unsigned t = 0; t < rows(); ++t) {
      std::atomic<u64>* m = block(t);
      for (std::size_t i = 0; i < cap_; ++i) {
        if (m[i].load(std::memory_order_relaxed) != kNone) ++total;
      }
    }
    return total;
  }

 private:
  // Row layout per tid: words 0..cap_-1 are the slots, then padding to
  // the row stride.
  std::atomic<u64>* block(unsigned tid) const {
    return const_cast<std::atomic<u64>*>(words_.data()) + tid * stride_;
  }
  std::atomic<u64>* mine() const { return block(ThreadRegistry::tid()); }
  unsigned rows_in_use() const {
    const unsigned hw = ThreadRegistry::high_water();
    return hw < rows() ? hw : rows();
  }

  std::size_t take_some_from(std::atomic<u64>* m, u64* out, std::size_t n) {
    std::size_t got = 0;
    for (std::size_t i = 0; i < cap_ && got < n; ++i) {
      u64 v = m[i].load(std::memory_order_relaxed);
      if (v == kNone) continue;
      WCQ_SCHED_POINT(kMagazineTake);
      if (m[i].compare_exchange_strong(v, kNone, std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        out[got++] = v;
      }
    }
    return got;
  }

  std::size_t cap_ = 0;
  std::size_t stride_ = 0;
  AlignedArray<std::atomic<u64>> words_;
};

}  // namespace wcq
