// BoundedQueue<T> — the paper's Fig 2 indirection pattern.
//
// SCQ/wCQ rings transfer *indices*; real payloads live in a separate data
// array referenced by those indices. Two rings are used: `fq` holds free
// indices and `aq` holds allocated ones. Enqueue = take a free index, write
// the payload, publish the index through aq; Dequeue = take an index from
// aq, read the payload, recycle the index through fq. Because at most n
// indices exist, the rings' "Enqueue never checks full" precondition holds
// by construction, and "queue full" is simply "no free index left".
//
// Fresh indices (DESIGN.md §9): fq starts empty. Indices never issued
// come from one counter instead, so the constructor enqueues no 0..n-1,
// and the first n claims take one relaxed F&A per span rather than a ring
// dequeue each. Once the counter passes n, free indices exist only in fq
// and the magazines. A queue lives once: it has no reset(), and only the
// destructor drains it.
//
// Index magazines (DESIGN.md §9): fq is a free list — FIFO order among free
// indices is unobservable — so with Options::magazine (the default) each
// thread caches recently-freed indices in a private magazine
// (scale/index_magazine.hpp) and the fq half of every operation's
// shared-ring cost (seq_cst F&A + threshold traffic) amortizes to one bulk
// refill/spill per half-magazine span. The "full" contract relaxes
// accordingly: an enqueue that finds its magazine and fq empty performs one
// bounded reclaim sweep over all magazines (stealing a cached index) before
// reporting full, so cached-but-unused indices can never wedge the queue. A
// thread-exit hook flushes a dying thread's magazine back to fq, so
// no index leaks across thread churn (capacity stays exact).
//
// Session handles (DESIGN.md §10): every per-(queue, thread) lookup this
// layer and the rings below it used to repeat per operation — the registry
// tid, the wCQ thread-record pointer, the magazine block — lives in one
// `Handle`. `acquire()` returns an owned handle (flushes its magazine back
// to fq on destruction and pins the queue: destroying the queue first is a
// diagnosed abort); `handle_for(tid)` builds an unowned per-op view by pure
// arithmetic for composed layers that already know their tid (ShardedQueue
// sweeps, the implicit wrappers). The implicit API is unchanged and costs
// exactly one registry lookup per operation — it resolves the thread_local
// tid once and derives the session from it, which is equivalent to (and
// safer than) caching handles in thread_local storage (see DESIGN.md §10 for
// the equivalence argument).
//
// The progress property is inherited from the Ring parameter: wait-free with
// WCQ (default), lock-free with SCQ. Magazine operations are bounded scans
// and every magazine↔ring interaction uses the existing wait-free paths, so
// the composition's progress class is unchanged.
//
// Degree-specialized rings (DESIGN.md §13): `BoundedQueue<T, MpscRing>` /
// `<T, SpmcRing>` restrict the *data* ring only. The free ring is derived
// from aq's by detail::DefaultFreeRing because fq's degree profile never
// matches aq's — free indices flow back from consumers, exit hooks and
// handle releases on arbitrary threads — so specialized aqs pair with an
// MPMC SCQ fq.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/align.hpp"
#include "common/op_counters.hpp"
#include "core/scq.hpp"
#include "core/session.hpp"
#include "core/wcq.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {

namespace detail {

// The fq ring for a given aq ring (DESIGN.md §13). fq's degree profile is
// NOT aq's: every dequeuer of the data queue enqueues its freed index into
// fq, cross-thread magazine exit flushes and owned-handle destruction do so
// from arbitrary threads, and every enqueuer of the data queue dequeues
// from fq. So when aq is degree-specialized the free ring falls back to the
// MPMC SCQ — `BoundedQueue<T, MpscRing>` stays a drop-in instantiation
// while keeping the index-recycling paths unrestricted. Symmetric rings
// keep fq == aq (wCQ's fq wait-freedom matters for the Fig 2 contract).
template <typename Ring>
struct DefaultFreeRing {
  using type = Ring;
};
template <typename Ring>
  requires std::is_base_of_v<BasicScq<kMulti, kSingle>, Ring> ||
           std::is_base_of_v<BasicScq<kSingle, kMulti>, Ring>
struct DefaultFreeRing<Ring> {
  using type = SCQ;
};

}  // namespace detail

template <typename T, typename Ring = WCQ>
class BoundedQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "payloads move across threads; moves must not throw");

  using FreeRing = typename detail::DefaultFreeRing<Ring>::type;

 public:
  struct Options {
    // Capacity = 2^order elements.
    unsigned order;
    // Per-thread free-index magazines; `magazine.capacity` is clamped to
    // IndexMagazines::kMaxSlots and to capacity/4 (tiny rings get tiny or no
    // magazines, keeping the full/finalize transition prompt). Disabled
    // reproduces the plain Fig 2 double-ring behavior exactly.
    IndexMagazines::Config magazine{};
  };

  // Per-thread session (DESIGN.md §10): dense tid, both rings' sessions and
  // the magazine block, resolved once. Move-only. An *owned* handle (from
  // acquire()) flushes its magazine back to fq when it is released — the
  // exit hook remains as the fallback for implicit use — and pins the queue
  // (core/session.hpp). Views from handle_for() carry no ownership and may
  // be built per operation.
  class Handle {
   public:
    Handle() = default;

    unsigned tid() const { return owner_.tid(); }
    bool owned() const { return owner_.owned(); }

   private:
    friend class BoundedQueue;
    Handle(BoundedQueue* q, unsigned tid, bool owned)
        : owner_(owned ? q : nullptr, tid), aq_h_(q->aq_.handle_for(tid)),
          fq_h_(q->fq_.handle_for(tid)), mag_(q->mags_.block_for(tid)) {}

    SessionOwner<BoundedQueue> owner_;
    typename Ring::Handle aq_h_{};
    typename FreeRing::Handle fq_h_{};
    std::atomic<u64>* mag_ = nullptr;  // null when magazines are disabled
  };

  explicit BoundedQueue(Options opt)
      : aq_(opt.order),
        fq_(opt.order),
        data_(aq_.capacity(), kCacheLine),
        mags_(effective_magazine_capacity(opt.magazine, aq_.capacity()),
              detail::ring_tids(aq_)) {
    if (mags_.enabled()) {
      // A dying thread flushes its cached free indices back to fq; without
      // this an index could only be recovered by a (full-edge) reclaim
      // sweep, and repeated churn would strand capacity in dead magazines.
      // Explicit handles flush earlier, on handle destruction; the hook is
      // the safety net for implicit use and for handles that outlive their
      // thread's last operation.
      hook_handle_ = ThreadRegistry::register_exit_hook(
          &BoundedQueue::exit_hook_cb, this);
    }
  }

  explicit BoundedQueue(unsigned order) : BoundedQueue(Options{order}) {}

  ~BoundedQueue() {
    sessions_.check_none_live("BoundedQueue");
    if (mags_.enabled()) {
      // Blocks until any in-flight exit flush completes; after this no
      // thread can touch fq_/mags_ through the hook path.
      ThreadRegistry::unregister_exit_hook(hook_handle_);
    }
    // Destroy any payloads still in flight. Single-threaded drain:
    // successful dequeues never burn threshold, so this loop empties the
    // queue exactly. The destructor has exclusive access, so a degree-
    // specialized aq may legally rebind to this thread for the drain.
    detail::release_ring_sessions(aq_);
    while (auto idx = aq_.dequeue()) {
      slot(*idx)->~T();
    }
    detail::release_ring_sessions(aq_);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  u64 capacity() const { return aq_.capacity(); }

  // --- session acquisition (DESIGN.md §10) ---------------------------------

  // Owned per-thread session for the calling thread: one registry lookup
  // now, zero on every subsequent handle operation (steady state). The
  // handle must be destroyed before the queue (checked) and used only on
  // this thread.
  Handle acquire() {
    sessions_.add();
    return Handle(this, ThreadRegistry::tid(), /*owned=*/true);
  }

  // Unowned per-op session view for a known tid: pure arithmetic, no
  // registry access, no flush-on-destroy. Composed layers (ShardedQueue
  // sweeps) and the implicit wrappers use this.
  Handle handle_for(unsigned tid) {
    return Handle(this, tid, /*owned=*/false);
  }

  // --- operations ----------------------------------------------------------

  // Returns false when the queue is full.
  bool enqueue(T value) { return enqueue_movable(value); }
  bool enqueue(Handle& h, T value) { return enqueue_movable(h, value); }

  // Enqueue by reference: on success `value` is moved-from, on failure it is
  // left intact. Callers that retarget a rejected element (ShardedQueue's
  // spill sweep) need the failure case to preserve ownership, which the
  // by-value overload cannot.
  bool enqueue_movable(T& value) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue_movable(h, value);
  }

  bool enqueue_movable(Handle& h, T& value) {
    u64 idx;
    if (!claim_index(h, idx)) return false;
    ::new (static_cast<void*>(slot(idx))) T(std::move(value));
    aq_.enqueue(h.aq_h_, idx);
    return true;
  }

  // Returns nullopt when the queue is empty.
  std::optional<T> dequeue() {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue(h);
  }

  std::optional<T> dequeue(Handle& h) {
    const auto idx = aq_.dequeue(h.aq_h_);
    if (!idx) return std::nullopt;
    T* p = slot(*idx);
    std::optional<T> out{std::move(*p)};
    p->~T();
    release_index(h, *idx);
    return out;
  }

  // Batch insert (DESIGN.md §7): enqueues up to `n` values from `first`,
  // returning how many were taken. Exactly the first `ret` elements are
  // moved-from (a const source is copied instead); partial success means the
  // queue filled up mid-span. Free indices are claimed from the caller's
  // magazine first, then through the rings' bulk paths in chunks, so the
  // per-operation Tail/Head F&A and threshold traffic amortize across the
  // span.
  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(U* first, std::size_t n) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue_bulk(h, first, n);
  }

  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(Handle& h, U* first, std::size_t n) {
    std::size_t done = 0;
    u64 idx[kBulkChunk];
    while (done < n) {
      const std::size_t want = std::min(n - done, kBulkChunk);
      const std::size_t got = claim_indices(h, idx, want);
      if (got == 0) break;  // full
      for (std::size_t k = 0; k < got; ++k) {
        ::new (static_cast<void*>(slot(idx[k]))) T(std::move(first[done + k]));
      }
      aq_.enqueue_bulk(h.aq_h_, idx, got);
      done += got;
      if (got < want) break;
    }
    return done;
  }

  // Batch remove (DESIGN.md §7): move-assigns up to `n` elements into `out`
  // and returns how many. Fewer than `n` does not prove emptiness (the ring
  // bulk path may cede contended ranks); use dequeue() for an authoritative
  // empty answer.
  std::size_t dequeue_bulk(T* out, std::size_t n) {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue_bulk(h, out, n);
  }

  std::size_t dequeue_bulk(Handle& h, T* out, std::size_t n) {
    static_assert(std::is_nothrow_move_assignable_v<T>,
                  "dequeue_bulk assigns into caller storage");
    std::size_t done = 0;
    u64 idx[kBulkChunk];
    while (done < n) {
      const std::size_t want = std::min(n - done, kBulkChunk);
      const std::size_t got = aq_.dequeue_bulk(h.aq_h_, idx, want);
      if (got == 0) break;  // empty (or fully contended)
      for (std::size_t k = 0; k < got; ++k) {
        T* p = slot(idx[k]);
        out[done + k] = std::move(*p);
        p->~T();
      }
      release_indices(h, idx, got);
      done += got;
      if (got < want) break;
    }
    return done;
  }

  // Ring access for diagnostics (e.g., threshold inspection in tests).
  const Ring& aq() const { return aq_; }
  // Free indices currently cached in magazines (exact at quiescence).
  std::size_t magazine_cached() const { return mags_.cached_total(); }
  std::size_t magazine_capacity() const { return mags_.capacity(); }
  unsigned magazine_rows() const { return mags_.rows(); }
  // Owned session handles currently alive (test hook).
  int live_handles() const { return sessions_.live(); }

 private:
  // Bulk spans are staged through a fixed stack buffer of indices so the
  // batch paths never allocate; larger caller spans just loop chunks.
  static constexpr std::size_t kBulkChunk = 64;

  static std::size_t effective_magazine_capacity(
      const IndexMagazines::Config& cfg, u64 ring_capacity) {
    if (!cfg.enabled) return 0;
    const std::size_t by_ring = static_cast<std::size_t>(ring_capacity / 4);
    return std::min(cfg.capacity, by_ring);
  }

  // --- free-index claim/release (the fq half of Fig 2) ----------------------

  // Claim one free index: magazine, then the fresh-index counter, then fq
  // (the counter and fq both refill the magazine with one span), then the
  // reclaim sweep. False = queue full.
  bool claim_index(Handle& h, u64& idx) {
    if (h.mag_ == nullptr) {
      if (claim_fresh(&idx, 1) == 1) return true;
      const auto i = fq_.dequeue(h.fq_h_);
      if (!i) return false;
      idx = *i;
      return true;
    }
    if (mags_.try_take_at(h.mag_, idx)) return true;  // steady state: no ring op
    if (refill_claim(h, idx)) return true;
    return mags_.steal_for(h.tid(), idx);
  }

  // One span from the fresh counter or, once that is spent, one bulk fq
  // dequeue refills the magazine and yields the caller's index: the F&A
  // (and fq's threshold decrement) amortize across the span.
  bool refill_claim(Handle& h, u64& idx) {
    u64 buf[IndexMagazines::kMaxSlots + 1];
    const std::size_t want = 1 + mags_.refill_span();
    std::size_t got = claim_fresh(buf, want);
    if (got == 0) got = fq_.dequeue_bulk(h.fq_h_, buf, want);
    if (got == 0) {
      // The bulk path may cede contended ranks without proving emptiness;
      // the single-op dequeue is the authoritative answer (and is an O(1)
      // threshold check when fq is truly empty).
      const auto i = fq_.dequeue(h.fq_h_);
      if (!i) return false;
      idx = *i;
      return true;
    }
    idx = buf[0];
    for (std::size_t k = 1; k < got; ++k) {
      // Cannot overflow in practice (only the owner puts, and it just saw
      // its magazine empty); the fq fallback keeps a lost index impossible.
      if (!mags_.try_put_at(h.mag_, buf[k])) fq_.enqueue(h.fq_h_, buf[k]);
    }
    return true;
  }

  // Issue up to `want` never-issued indices through one F&A on the fresh
  // counter; 0 once all n are issued (then a relaxed load, no RMW). Relaxed
  // is enough (FQ-FRESH, DESIGN.md §11): the F&A's atomicity alone makes
  // the ranges disjoint, and a fresh index's slot holds no payload whose
  // destruction a claimer must observe. Racers past the end over-advance
  // the counter by at most one span each.
  std::size_t claim_fresh(u64* idx, std::size_t want) {
    const u64 n = capacity();
    if (fresh_.load(std::memory_order_relaxed) >= n) return 0;
    opcount::count_faa();
    const u64 base = fresh_.fetch_add(want, std::memory_order_relaxed);
    if (base >= n) return 0;
    const std::size_t got =
        static_cast<std::size_t>(std::min<u64>(want, n - base));
    for (std::size_t k = 0; k < got; ++k) idx[k] = base + k;
    return got;
  }

  // Claim up to `want` indices for a bulk span: magazine first, then the
  // fresh counter and fq bulk for the remainder, reclaim sweep before
  // concluding full.
  std::size_t claim_indices(Handle& h, u64* idx, std::size_t want) {
    std::size_t got = 0;
    if (h.mag_ != nullptr) got = mags_.take_some_at(h.mag_, idx, want);
    if (got < want) got += claim_fresh(idx + got, want - got);
    if (got < want) {
      got += fq_.dequeue_bulk(h.fq_h_, idx + got, want - got);
    }
    if (got == 0) {
      // The bulk path may cede contended ranks without proving emptiness;
      // a single-op dequeue is the authoritative full answer (and an O(1)
      // threshold check when fq is truly empty). This applies with or
      // without magazines — the reclaim sweep additionally recovers a
      // cached index before "full" is concluded.
      if (const auto i = fq_.dequeue(h.fq_h_)) {
        idx[got++] = *i;
      } else if (h.mag_ != nullptr) {
        if (u64 s; mags_.steal_for(h.tid(), s)) idx[got++] = s;
      }
    }
    return got;
  }

  // Recycle one freed index: cache it; when the magazine is past its
  // high-water mark (full), spill half back through one bulk fq enqueue so
  // the Tail F&A and threshold re-arm amortize across the spilled span.
  void release_index(Handle& h, u64 idx) {
    if (h.mag_ == nullptr) {
      fq_.enqueue(h.fq_h_, idx);
      return;
    }
    if (mags_.try_put_at(h.mag_, idx)) return;
    u64 buf[IndexMagazines::kMaxSlots];
    const std::size_t n = mags_.take_some_at(h.mag_, buf, mags_.spill_span());
    if (n > 0) fq_.enqueue_bulk(h.fq_h_, buf, n);
    if (!mags_.try_put_at(h.mag_, idx)) fq_.enqueue(h.fq_h_, idx);
  }

  // Recycle a bulk span: top the magazine up, send the rest through one fq
  // bulk enqueue.
  void release_indices(Handle& h, const u64* idx, std::size_t n) {
    std::size_t k = 0;
    if (h.mag_ != nullptr) {
      while (k < n && mags_.try_put_at(h.mag_, idx[k])) ++k;
    }
    if (k < n) fq_.enqueue_bulk(h.fq_h_, idx + k, n - k);
  }

 public:
  // Flush `tid`'s magazine back to fq. Shared by the thread-exit hook
  // (which runs on the exiting thread, whose tid is still valid), an owned
  // handle's destructor, and the sharded front-end's session teardown.
  // Public so composed layers can return a released session's cached
  // capacity promptly; safe to call from any thread at any time, and
  // concurrently with other flushes of the same tid (DESIGN.md §9):
  // drain_tid takes each slot by CAS, so every cached index leaves the
  // magazine exactly once, and no lock is needed.
  //
  // The fq enqueue runs through the *calling* thread's ring session, never
  // `tid`'s: a handle may be destroyed on a different thread than the one
  // that used it (or after that thread exited and its tid was recycled to
  // a live thread), and driving the ring through records_[tid] from here
  // would race that thread's concurrent operations.
  void flush_magazine(unsigned tid) {
    if (!mags_.enabled()) return;
    u64 buf[IndexMagazines::kMaxSlots];
    const std::size_t got =
        mags_.drain_tid(tid, buf, IndexMagazines::kMaxSlots);
    if (got > 0) {
      typename FreeRing::Handle fq_h = fq_.handle_for(ThreadRegistry::tid());
      fq_.enqueue_bulk(fq_h, buf, got);
    }
  }

 private:
  static void exit_hook_cb(void* ctx, unsigned tid) {
    static_cast<BoundedQueue*>(ctx)->flush_magazine(tid);
  }

  // Owned-handle teardown (DESIGN.md §10): the exit hook's flush moves onto
  // session release, so a pool worker releasing its session returns its
  // cached indices immediately instead of at thread exit. Release on a
  // different thread than the one that used the handle is safe — see
  // flush_magazine's cross-thread contract.
  friend class SessionOwner<BoundedQueue>;
  void release_session(unsigned tid) {
    flush_magazine(tid);
    sessions_.remove();
  }

  struct alignas(alignof(T)) Storage {
    unsigned char bytes[sizeof(T)];
  };

  T* slot(u64 idx) {
    assert(idx < data_.size());
    return std::launder(reinterpret_cast<T*>(data_[idx].bytes));
  }

  Ring aq_;
  FreeRing fq_;
  AlignedArray<Storage> data_;
  IndexMagazines mags_;
  // Next never-issued index; ≥ capacity() once every index has been issued.
  // It starts the line the cold members below already occupy, so the first
  // n claims' F&As touch no hot field and the queue keeps its size. A line
  // of its own grew the queue by 128 bytes, and that growth alone, with no
  // code touching the member, measured ~10% slower on the sharded pipeline
  // benchmark (DESIGN.md §9).
  alignas(kCacheLine) std::atomic<u64> fresh_{0};
  std::uint64_t hook_handle_ = 0;
  LiveSessions sessions_;
};

}  // namespace wcq
