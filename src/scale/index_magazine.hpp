// Per-thread free-index magazines for the Fig 2 indirection layer
// (DESIGN.md §9).
//
// BoundedQueue's fq ring is a *free list*: FIFO order among free indices is
// semantically irrelevant (any free index is as good as any other), which
// makes per-thread caching of free indices safe — the observation Jiffy
// (Adas & Friedman) uses to amortize shared-structure traffic with
// thread-local buffers. Each queue owns one magazine per registry tid; a
// dequeue parks the index it just freed in the caller's magazine and an
// enqueue claims from there first, so at steady state the fq half of the
// Fig 2 double-ring hot path (its seq_cst F&A, threshold decrement and help
// check) disappears entirely. Refills/spills go through fq's bulk paths in
// half-magazine spans, so the residual fq traffic is one shared-ring
// operation per span instead of one per element.
//
// Concurrency shape:
//  * A magazine is a per-tid block of atomic words: one count word followed
//    by `capacity` slots, each slot holding kNone or one free index. Blocks
//    are whole cache lines sized by the *configured* capacity (not a
//    compile-time maximum), so dense neighboring tids never share a line
//    and a disabled or small magazine costs little memory.
//  * Only the owning thread stores indices into its slots, so a slot the
//    owner observed empty stays empty until the owner writes it — puts are
//    a plain check-then-store (release), no RMW.
//  * Takes CAS the slot back to kNone (acquire). The owner CASes because
//    *other* threads may concurrently take too: the reclaim sweep (an
//    enqueuer that found both its magazine and fq empty steals a cached
//    index so cached-but-unused indices cannot wedge the queue) and the
//    thread-exit flush both claim slots cross-thread. At steady state the
//    CAS is uncontended and the line is owner-exclusive — that cheapness is
//    the whole point.
//  * The release(put)/acquire(take) pairing carries the payload-destruction
//    → payload-construction happens-before edge that fq's enqueue/dequeue
//    provided for recycled indices.
//  * The count word is a hint (relaxed, maintained by owner and stealers;
//    read as two's-complement signed so a racing take's decrement landing
//    before the matching put's increment just reads as a transient
//    negative). It can lag in-flight operations but is exact at quiescence;
//    decisions taken on it (skip an empty magazine, spill) are heuristics —
//    the slots are the truth.
//
// Every operation is a bounded scan (≤ capacity slots, or high_water()
// magazines for the sweep): no retry loops, so the wait-freedom of the
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

  // `capacity` == 0 constructs a disabled set. One magazine block per
  // possible registry tid, sized once at queue construction (metered,
  // Fig 10): round_up(1 + capacity, 8) atomic words per tid.
  IndexMagazines(std::size_t capacity, unsigned max_threads)
      : cap_(capacity < kMaxSlots ? capacity : kMaxSlots) {
    if (cap_ != 0) {
      constexpr std::size_t kWordsPerLine = kCacheLine / sizeof(u64);
      stride_ = AlignedArray<std::atomic<u64>>::round_up(1 + cap_,
                                                         kWordsPerLine);
      words_ = AlignedArray<std::atomic<u64>>(max_threads * stride_,
                                              kCacheLine);
      for (std::size_t i = 0; i < words_.size(); ++i) {
        words_[i].store(kNone, std::memory_order_relaxed);
      }
      for (unsigned t = 0; t < max_threads; ++t) {
        count_of(block(t)).store(0, std::memory_order_relaxed);
      }
    }
  }

  IndexMagazines(const IndexMagazines&) = delete;
  IndexMagazines& operator=(const IndexMagazines&) = delete;

  bool enabled() const { return cap_ != 0; }
  std::size_t capacity() const { return cap_; }
  // Refill span: indices pulled from fq beyond the one the triggering
  // enqueue consumes. Half-magazine spans give hysteresis: a freshly
  // refilled/spilled magazine is half full, so the next spill/refill is a
  // half-magazine of operations away in either direction.
  std::size_t refill_span() const { return cap_ / 2; }
  std::size_t spill_span() const { return cap_ / 2 + 1; }

  // --- session surface (DESIGN.md §10) ------------------------------------

  // The magazine block for a tid, cached once in a queue's per-thread
  // session handle so the owner operations below run with zero registry
  // lookups. nullptr when magazines are disabled (callers branch on
  // enabled() anyway). Stable for the queue's lifetime.
  std::atomic<u64>* block_for(unsigned tid) const {
    return enabled() && tid < max_threads() ? block(tid) : nullptr;
  }

  // --- owner operations (the block is the caller's own magazine) ----------

  // Claim one cached index. The count pre-check makes the common
  // magazine-empty case (enqueue-heavy phases) one relaxed load; the hint
  // never under-reports the owner's own puts (program order), so a <= 0
  // here proves the magazine empty to its owner.
  bool try_take_at(std::atomic<u64>* m, u64& out) {
    if (count_hint(m) <= 0) return false;
    return take_some_from(m, &out, 1) == 1;
  }

  // Park one freed index; false when every slot is full (caller spills).
  bool try_put_at(std::atomic<u64>* m, u64 idx) {
    for (std::size_t i = 0; i < cap_; ++i) {
      if (slot(m, i).load(std::memory_order_relaxed) == kNone) {
        // Only the owner stores non-kNone values, so the slot cannot have
        // been filled since the check; takes only empty slots out.
        WCQ_SCHED_POINT(kMagazinePut);
        slot(m, i).store(idx, std::memory_order_release);
        count_of(m).fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  // Claim up to `n` cached indices (bulk claim, spill, exit flush).
  std::size_t take_some_at(std::atomic<u64>* m, u64* out, std::size_t n) {
    return take_some_from(m, out, n);
  }

  // Implicit-path wrappers: resolve the calling thread's block through the
  // registry (one lookup), then run the block-based operation. Unit tests
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
    const unsigned hw = ThreadRegistry::high_water();
    const unsigned n = hw < max_threads() ? hw : max_threads();
    for (unsigned t = 0; t < n; ++t) {
      if (t == self) continue;
      WCQ_SCHED_POINT(kMagazineSteal);
      std::atomic<u64>* m = block(t);
      if (count_hint(m) <= 0) continue;
      if (take_some_from(m, &out, 1) == 1) return true;
    }
    return false;
  }

  bool steal(u64& out) { return steal_for(ThreadRegistry::tid(), out); }

  // Claim every index cached in `tid`'s magazine (thread-exit flush; also
  // usable cross-thread since takes are CASes). Scans slots directly, not
  // the hint, so a flush cannot miss a slot behind a stale count.
  std::size_t drain_tid(unsigned tid, u64* out, std::size_t n) {
    if (!enabled() || tid >= max_threads()) return 0;
    return take_some_from(block(tid), out, n);
  }

  // Exclusive-access rewind (the reset path, DESIGN.md §8/§9): empty every
  // magazine. The caller guarantees no concurrent operation and no
  // concurrent exit flush (BoundedQueue serializes both on its flush lock).
  void clear() {
    for (unsigned t = 0; t < max_threads(); ++t) {
      std::atomic<u64>* m = block(t);
      for (std::size_t i = 0; i < cap_; ++i) {
        slot(m, i).store(kNone, std::memory_order_relaxed);
      }
      count_of(m).store(0, std::memory_order_relaxed);
    }
  }

  // Diagnostic: cached indices across all magazines (exact at quiescence).
  std::size_t cached_total() const {
    std::size_t total = 0;
    for (unsigned t = 0; t < max_threads(); ++t) {
      const i64 c = count_hint(block(t));
      if (c > 0) total += static_cast<std::size_t>(c);
    }
    return total;
  }

 private:
  // Block layout per tid: word 0 is the count, words 1..cap_ the slots.
  // The count shares the owner's hot line — it is touched by the same
  // thread on every put/take, and cross-thread readers (sweep skip) are
  // rare by construction.
  std::atomic<u64>* block(unsigned tid) const {
    return const_cast<std::atomic<u64>*>(words_.data()) + tid * stride_;
  }
  std::atomic<u64>* mine() const { return block(ThreadRegistry::tid()); }
  static std::atomic<u64>& count_of(std::atomic<u64>* m) { return m[0]; }
  static std::atomic<u64>& slot(std::atomic<u64>* m, std::size_t i) {
    return m[1 + i];
  }
  // Two's-complement read: a take's decrement racing ahead of the matching
  // put's increment shows as a harmless transient negative, not a wrap.
  static i64 count_hint(std::atomic<u64>* m) {
    return static_cast<i64>(count_of(m).load(std::memory_order_relaxed));
  }
  unsigned max_threads() const {
    return stride_ == 0 ? 0u : static_cast<unsigned>(words_.size() / stride_);
  }

  std::size_t take_some_from(std::atomic<u64>* m, u64* out, std::size_t n) {
    std::size_t got = 0;
    for (std::size_t i = 0; i < cap_ && got < n; ++i) {
      u64 v = slot(m, i).load(std::memory_order_relaxed);
      if (v == kNone) continue;
      WCQ_SCHED_POINT(kMagazineTake);
      if (slot(m, i).compare_exchange_strong(v, kNone,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
        count_of(m).fetch_sub(1, std::memory_order_relaxed);
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
