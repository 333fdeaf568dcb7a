// Unbounded wait-free-ring queue (paper Appendix A).
//
// The appendix follows LSCQ/LCRQ's recipe: an outer linked list chains
// bounded rings; a ring that fills up is *finalized* (no enqueue can ever
// succeed on it again) and a fresh ring is appended. Outer-list operations
// are rare (once per ring capacity), so their cost is dominated by the
// inner wCQ operations.
//
// Reproduction notes (DESIGN.md §4):
//  * The appendix uses CRTurn as the outer layer to keep the composition
//    wait-free end-to-end. CRTurn's dequeue-side turn protocol is not
//    reconstructible from available material (see baselines/crturn_queue.hpp);
//    the outer list here is Michael&Scott-style (lock-free) with hazard
//    pointers, which preserves the appendix's structure and memory behavior
//    while the inner rings remain wait-free.
//  * Finalization is the appendix's: a FIN bit in the ring's Tail F&A word
//    (BasicScq::finalize). The claim that runs past a segment's fresh
//    counter sets it, and an enqueue whose ring reservation draws it fails
//    and moves on to the successor. A dequeuer that finds the head segment
//    empty with a successor re-arms its threshold and dequeues once more,
//    as LSCQ does. That walks Head past every rank drawn before FIN; each
//    is consumed or ⊥-marked, so no enqueue can land any more and the
//    segment is unlinked without waiting for anyone.
//
// Progress: the outer list is lock-free and the rings are wait-free; no
// dequeuer waits on an enqueuer's step.
//
// One-shot segments (DESIGN.md §4): a segment is its data ring, its payload
// slots and one fresh-index counter — not Appendix A's Fig 2 ring pair — so
// this layer has no free-index ring, magazine or exit hook.
//
// Segment recycling (DESIGN.md §8): with Options::recycle (the default), a
// retired segment is reset and parked in a SegmentPool once its hazard
// grace period has passed, and the growth path allocates from the pool
// first — steady-state operation performs zero heap allocations. The queue
// owns a *private* HazardDomain so (a) its contextful retirements (which
// reference the queue's pool) can never outlive the queue, and (b) its
// retire-scan threshold can be small: recycled segments reach the pool
// promptly instead of idling in retire lists while fresh ones are malloc'd.
#pragma once

#include <algorithm>
#include <atomic>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "common/backoff.hpp"
#include "common/op_counters.hpp"
#include "common/tid_table.hpp"
#include "core/scq.hpp"
#include "core/session.hpp"
#include "core/session_guard.hpp"
#include "core/wcq.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/segment_pool.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

template <typename T, typename Ring = WCQ>
class UnboundedQueue {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "payloads move across threads; moves must not throw");

 public:
  // Per-thread session (DESIGN.md §10): the dense tid plus this queue's
  // hazard-slot row for it, resolved once. Segment-level ring state cannot
  // be cached here — segments come and go — so the handle carries the tid
  // and each segment rebuilds its ring session from it, and each enqueue
  // finds the tid's span row, with zero registry lookups. Owned handles pin
  // the queue like BoundedQueue's (core/session.hpp), and keep the segment
  // they last touched published in hazard slot 0 between operations (pin),
  // so they republish once per segment, not once per operation. Release
  // clears that slot when it runs on the tid's thread; there is nothing to
  // flush: a span row left behind is simply never matched again once its
  // segment finalizes or is reset.
  class Handle {
   public:
    Handle() = default;

    unsigned tid() const { return owner_.tid(); }

   private:
    friend class UnboundedQueue;
    Handle(UnboundedQueue* q, unsigned tid, bool owned)
        : owner_(owned ? q : nullptr, tid), hp_row_(q->hp_.slots_for(tid)) {}

    SessionOwner<UnboundedQueue> owner_;
    HazardDomain::ThreadSlots* hp_row_ = nullptr;
  };

  struct Options {
    // Each segment holds 2^segment_order elements (default: 1024).
    unsigned segment_order = 10;
    // Recycle retired segments through the pool (false = malloc/free every
    // segment, the pre-recycling behavior; kept as an A/B toggle for
    // the wcq_bench fig10 panel).
    bool recycle = true;
  };

  explicit UnboundedQueue(Options opt)
      : opt_(opt), pool_(kPoolSlots), hp_(kRetireScanThreshold) {
    Segment* first = create_segment();
    // One span row per tid the segment ring accepts (DESIGN.md §4), in
    // chunks of 16 tids installed on a tid's first enqueue.
    rows_ = TidTable<SpanRow>(detail::ring_tids(first->aq), 1);
    segment_bytes_ = first->bytes();
    head_.value.store(first, std::memory_order_relaxed);
    tail_.value.store(first, std::memory_order_relaxed);
  }

  explicit UnboundedQueue(unsigned segment_order = 10)
      : UnboundedQueue(Options{.segment_order = segment_order}) {}

  ~UnboundedQueue() {
    sessions_.check_none_live("UnboundedQueue");
    // Quiescent by contract. Flush pending retirements first (they recycle
    // into — or bypass — the pool via recycle_cb, which must still find the
    // queue alive), then free the linked list, then the parked segments.
    hp_.drain();
    Segment* s = head_.value.load(std::memory_order_relaxed);
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      Segment::destroy(s);
      s = next;
    }
    pool_.drain([](Segment* seg) { Segment::destroy(seg); });
  }

  UnboundedQueue(const UnboundedQueue&) = delete;
  UnboundedQueue& operator=(const UnboundedQueue&) = delete;

  // Owned per-thread session (one registry lookup; see Handle).
  Handle acquire() {
    sessions_.add();
    return Handle(this, ThreadRegistry::tid(), /*owned=*/true);
  }

  // Unowned per-op view for a known tid (composed layers, implicit path).
  Handle handle_for(unsigned tid) {
    return Handle(this, tid, /*owned=*/false);
  }

  // Never fails (appends a ring when the last one finalizes; the ring
  // comes from the segment pool when one is parked there). The payload moves
  // down the whole chain into its slot and is never copied.
  bool enqueue(T value) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue(h, std::move(value));
  }

  bool enqueue(Handle& h, T value) {
    SpanRow& row = *rows_.row(h.tid());
    for (;;) {
      Segment* ltail = pin(h, tail_.value);
      if (ltail->enqueue(h.tid(), row, value)) {
        unpin(h);
        return true;
      }
      // Refused: ltail's Tail carries FIN. Every append follows a refusal,
      // so only now can ltail have a successor; then the outer tail lags,
      // and we help swing it (Fig 13 lines 24-27).
      Segment* next = ltail->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        tail_.value.compare_exchange_strong(ltail, next,
                                            std::memory_order_seq_cst);
        continue;
      }
      // The ring is finalized: append a fresh ring seeded with the value
      // (Fig 13 lines 7-8, 21-23). The hazard keeps ltail alive for the
      // append CASes.
      Segment* fresh = acquire_segment();
      // Empty open ring: cannot fail.
      (void)fresh->enqueue(h.tid(), row, value);
      Segment* expected = nullptr;
      if (ltail->next.compare_exchange_strong(expected, fresh,
                                              std::memory_order_seq_cst)) {
        tail_.value.compare_exchange_strong(ltail, fresh,
                                            std::memory_order_seq_cst);
        unpin(h);
        return true;
      }
      // Somebody appended first; take the seeded element back (we own fresh
      // exclusively, so this dequeue cannot fail) and retry there. The reset
      // in release_segment gives fresh a new generation, so the span row
      // the seed left on it never matches again.
      value = std::move(*fresh->dequeue(h.tid()));
      release_segment(fresh);
    }
  }

  std::optional<T> dequeue() {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue(h);
  }

  std::optional<T> dequeue(Handle& h) {
    for (;;) {
      Segment* lhead = pin(h, head_.value);
      auto v = lhead->dequeue(h.tid());
      Segment* next =
          v ? nullptr : lhead->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // Only an enqueue refused by FIN appends, so lhead's Tail carries
        // FIN: no reservation drawn from now on succeeds there. Re-arm the
        // threshold and dequeue once more (LSCQ's drain): that walks Head
        // over the ranks drawn before FIN, consuming or ⊥-marking each, so
        // a late enqueuer's retry meets FIN and moves on.
        lhead->aq.reset_threshold();
        v = lhead->dequeue(h.tid());
      }
      if (v || next == nullptr) {
        unpin(h);
        return v;  // an element, or empty with no successor
      }
      // Other dequeuers' pending decrements can spend the re-armed 3n-1
      // budget before the pass reaches Tail (2n+1 of them on an n-element
      // segment); then walk again. Each pass claims ranks itself, and Tail
      // moves only by the one F&A of each enqueue that met FIN.
      if (!lhead->drained()) continue;
      Segment* expected = lhead;
      if (head_.value.compare_exchange_strong(expected, next,
                                              std::memory_order_seq_cst)) {
        // Even an owned session's slot must not pin what it retires.
        HazardDomain::clear(*h.hp_row_, 0);
        hp_.retire(h.tid(), lhead, &UnboundedQueue::recycle_cb, this);
      }
    }
  }

  // Diagnostic: number of linked segments, safe to call concurrently with
  // enqueue/dequeue on other threads.
  //
  // The walk is hazard-protected hand-over-hand in slots 0, 1 and 2
  // (operations use no other slot, and none runs on this thread meanwhile;
  // an owned session whose slot 0 the walk overwrites and clears publishes
  // again on its next operation). The liveness argument leans on the
  // list's shape: segments are unlinked *only at the head*, so every node
  // reachable from the current head is linked. The walker pins the head
  // it started from in slot 0 for the whole walk; after publishing a
  // hazard on each `next` it re-reads head_ — if head_ still equals the
  // pinned start, no unlink (and hence no retirement) has happened since
  // the walk began, so `next` is linked and now protected. If head_ moved,
  // `next` may already be retired-and-freed (our hazard was published too
  // late to be seen by that scan), so the walk restarts. head_ cannot ABA
  // back to the pinned segment: re-linking requires recycling, which the
  // slot-0 hazard blocks (DESIGN.md §8).
  u64 live_segments() const {
    Backoff bo;
    for (;;) {
      Segment* h0 = hp_.protect(0, head_.value);
      Segment* s = h0;
      u64 n = 1;
      unsigned slot = 1;
      bool restart = false;
      for (;;) {
        Segment* next = s->next.load(std::memory_order_acquire);
        if (next == nullptr) break;
        hp_.set(slot, next);
        if (head_.value.load(std::memory_order_seq_cst) != h0) {
          restart = true;
          break;
        }
        s = next;
        ++n;
        slot = slot == 1 ? 2 : 1;  // keep the previous hop protected
      }
      hp_.clear(0);
      hp_.clear(1);
      hp_.clear(2);
      if (!restart) return n;
      bo.pause();
    }
  }

  // Test hooks.
  int live_handles() const { return sessions_.live(); }
  std::size_t pooled_segments() const { return pool_.size(); }
  const Options& options() const { return opt_; }
  // Metered bytes a segment owns at creation: the object, its ring's
  // entries and record chunk 0 (with the record directory), and its
  // payload slots. A tid of 16 or more grows the segment it first uses by
  // one record chunk, which stays with the segment across recycling.
  std::size_t segment_bytes() const { return segment_bytes_; }
  // Segments retired but not yet past their grace period, and the metered
  // bytes of the hazard domain's retire-list buffers (quiescent-only).
  std::size_t retired_segments() const { return hp_.retired_count(); }
  std::size_t reclaim_buffer_bytes() const { return hp_.buffer_bytes(); }
  // Flush this queue's pending retirements (quiescent-only): retired
  // segments move to the pool (or are freed past its cap) immediately
  // instead of at the next scan.
  void reclaim_flush() { hp_.drain(); }

 private:
  friend class SessionOwner<UnboundedQueue>;
  // An owned session's slot 0 outlives its operations (pin); clear it when
  // the session ends on the thread that holds its tid. Another thread must
  // leave it: the tid's owner may be mid-operation on that slot. The slot
  // then pins at most one segment until the tid's next operation.
  void release_session(unsigned tid) {
    if (ThreadRegistry::holds(tid)) {
      HazardDomain::clear(*hp_.slots_for(tid), 0);
    }
    sessions_.remove();
  }

  struct Segment;

  // Protect the segment `src` points to in the session's slot 0. A view
  // publishes it on every operation. An owned session's slot stays set
  // between operations (DESIGN.md §8), so it publishes only when its
  // slot holds another segment: one relaxed load of its own slot in place
  // of a seq_cst store. Enqueues and dequeues share the slot, so a session
  // pins only the segment it last touched.
  static Segment* pin(const Handle& h, const std::atomic<Segment*>& src) {
    if (h.owner_.owned()) {
      Segment* s = src.load(std::memory_order_acquire);
      if (HazardDomain::holds(*h.hp_row_, 0, s)) return s;
    }
    return HazardDomain::protect(*h.hp_row_, 0, src);
  }

  // End of an operation: a view clears its slot, an owned session keeps it.
  static void unpin(const Handle& h) {
    if (!h.owner_.owned()) HazardDomain::clear(*h.hp_row_, 0);
  }

  // One tid's unused claimed indices (DESIGN.md §4): [next, end) of the
  // segment `seg` at generation `gen`. Only the tid's thread touches its
  // row (a recycled tid inherits it through the registry's hand-off), so
  // the fields are plain. A row whose segment was reset — re-linked from
  // the pool, or freed and re-allocated at the same address — never
  // matches again: every incarnation takes a generation number from the
  // queue's counter, which never repeats.
  struct alignas(kCacheLine) SpanRow {
    const Segment* seg = nullptr;
    u64 gen = 0;
    u64 next = 0;
    u64 end = 0;
  };

  // One ring segment, single-use per incarnation: the data ring, its
  // payload slots and a fresh-index counter. Index i's slot is written by
  // the one enqueue that claimed i and read by the one dequeue that takes i
  // from aq; neither recycles i, so aq never holds more than capacity()
  // indices (the ring's precondition) and reset() is the only way back.
  struct Segment {
    Segment(unsigned order, u64 generation)
        : aq(order), data(aq.capacity(), kCacheLine), gen(generation) {}
    ~Segment() { destroy_stragglers(); }

    static Segment* create(unsigned order, u64 generation) {
      // The embedded ring is cache-line-aligned, so Segment is over-aligned
      // — plain malloc's max_align_t is not enough.
      void* mem = alloc_meter::allocate_aligned(sizeof(Segment),
                                                alignof(Segment));
      return new (mem) Segment(order, generation);
    }
    static void destroy(Segment* s) {
      s->~Segment();
      alloc_meter::deallocate_aligned(s, sizeof(Segment));
    }

    std::size_t bytes() const {
      return sizeof(Segment) + aq.heap_bytes() + data.bytes();
    }

    // Reopen a finalized, drained segment (exclusive access; the recycler
    // holds the only reference): rewind the ring, clearing FIN, and the
    // counter, detach it from the dead list tail and retag it, so span
    // rows left on the old incarnation go stale.
    void reset(u64 generation) {
      destroy_stragglers();
      aq.reset();
      fresh.store(0, std::memory_order_relaxed);
      next.store(nullptr, std::memory_order_relaxed);
      gen = generation;
    }

    // False once the segment is full: the segment finalizes and no enqueue
    // will ever succeed on it again (so FIFO order across segments holds).
    // On success `v` is moved-from; on failure it holds the value, so the
    // caller can retarget it. The index comes from the tid's span row when
    // it holds one for this incarnation, else from a fresh claim; a claim
    // past the counter's end is what finalizes the segment. Indices other
    // threads still hold in their rows then go unused, so under contention
    // a segment can finalize holding fewer than capacity() elements, but
    // not fewer than 7/8 of them while the registered thread count holds
    // still (claim() sizes the rows for that). A ring enqueue that draws
    // FIN fails too; the payload then moves back into `v` and the index
    // stays spent.
    bool enqueue(unsigned tid, SpanRow& row, T& v) {
      auto ah = aq.handle_for(tid);  // traps on a tid past the ring's records
      u64 idx;
      if (row.seg == this && row.gen == gen && row.next < row.end) {
        idx = row.next++;
      } else if (!claim(row, idx)) {
        aq.finalize();
        return false;
      }
      T* p = ::new (static_cast<void*>(slot(idx))) T(std::move(v));
      if (aq.enqueue(ah, idx)) return true;
      v = std::move(*p);
      p->~T();
      return false;
    }

    // True once Head has passed Tail: every rank an enqueuer drew before
    // FIN was claimed by a dequeuer, which consumes or ⊥-marks it, so no
    // enqueue can land here any more. Both loads are each location's own
    // coherence order: Head only grows, and the Tail read after the
    // successor's acquire load is at or past the FIN'd value.
    bool drained() const { return aq.head() >= aq.tail(); }

    // The dequeued index is spent until reset(): nothing to recycle.
    std::optional<T> dequeue(unsigned tid) {
      auto ah = aq.handle_for(tid);
      const auto idx = aq.dequeue(ah);
      if (!idx) return std::nullopt;
      T* p = slot(*idx);
      std::optional<T> out{std::move(*p)};
      p->~T();
      return out;
    }

    // Issue a span of never-issued indices through one F&A on the counter,
    // the first to the caller and the rest into its row; false once all
    // are issued (then a relaxed load, no RMW). A row keeps at most
    // n / (8 * registered tids) indices, so rows sized for the current
    // thread count strand at most an eighth of the segment when it
    // finalizes; a row claimed before more threads registered is sized for
    // fewer and can strand more, once per registration. Relaxed is enough
    // (SEG-SPAN, DESIGN.md §11): the F&A's atomicity alone makes the ranges
    // disjoint, and a fresh index's slot holds no payload whose destruction
    // a claimer must observe. Racers past the end over-advance the counter
    // by at most one span each; reset() rewinds it.
    bool claim(SpanRow& row, u64& idx) {
      const u64 n = aq.capacity();
      const u64 tids = std::max(1u, ThreadRegistry::high_water());
      const u64 span = 1 + std::min(kRowIndices, n / (8 * tids));
      if (fresh.load(std::memory_order_relaxed) >= n) return false;
      opcount::count_faa();
      WCQ_SCHED_POINT(kSegmentClaim);
      const u64 base = fresh.fetch_add(span, std::memory_order_relaxed);
      if (base >= n) return false;
      idx = base;
      row = SpanRow{this, gen, base + 1, std::min(base + span, n)};
      return true;
    }

    // Destroy any payloads still in flight. Single-threaded drain under
    // exclusive access (destructor or reset), so a degree-specialized aq
    // may legally rebind to this thread for it.
    void destroy_stragglers() {
      detail::release_ring_sessions(aq);
      while (auto idx = aq.dequeue()) slot(*idx)->~T();
      detail::release_ring_sessions(aq);
    }

    struct alignas(alignof(T)) Storage {
      unsigned char bytes[sizeof(T)];
    };

    T* slot(u64 idx) {
      return std::launder(reinterpret_cast<T*>(data[idx].bytes));
    }

    Ring aq;
    AlignedArray<Storage> data;
    // Incarnation tag for span rows. Written only under exclusive access
    // (creation, reset) and published with the segment itself.
    u64 gen;
    // Next never-issued index; ≥ capacity() once every index is issued.
    alignas(kCacheLine) std::atomic<u64> fresh{0};
    // Read by every enqueue attempt, written once per incarnation: its own
    // line, off the claimers' F&A line.
    alignas(kCacheLine) std::atomic<Segment*> next{nullptr};
  };

  // A generation number no incarnation of this queue's segments has had.
  u64 next_generation() {
    return generations_.fetch_add(1, std::memory_order_relaxed);
  }

  Segment* create_segment() {
    return Segment::create(opt_.segment_order, next_generation());
  }

  // Growth path: reuse a parked segment when one is available. A pooled
  // segment was reset by its recycler; the pool's release/acquire hand-off
  // publishes those writes to us, and the list-append CAS publishes them to
  // everyone else (DESIGN.md §8).
  Segment* acquire_segment() {
    if (opt_.recycle) {
      if (Segment* s = pool_.try_get()) return s;
    }
    return create_segment();
  }

  // Give back a segment this thread exclusively owns (never published, or
  // publication lost its race). It may hold the one seeded element; reset
  // destroys it along with any other straggler.
  void release_segment(Segment* s) {
    if (opt_.recycle) {
      s->reset(next_generation());
      if (pool_.try_put(s)) return;
    }
    Segment::destroy(s);
  }

  // Hazard-domain deleter: runs once no thread can hold a reference to the
  // segment (the grace period), i.e. with exclusive access — the window in
  // which reset() is legal. Same recycle-or-free policy as the lost-race
  // path; past the pool cap the segment is truly freed, preserving the
  // memory bound.
  static void recycle_cb(void* p, void* ctx) {
    static_cast<UnboundedQueue*>(ctx)->release_segment(
        static_cast<Segment*>(p));
  }

  // Retire-list length that triggers a scan in the private domain. Small on
  // purpose: segments must reach the pool promptly or the growth path
  // allocates fresh ones while recyclable segments idle in retire lists
  // (which would re-introduce steady-state allocation). Retirement happens
  // once per 2^segment_order operations, so eager scans are negligible.
  static constexpr std::size_t kRetireScanThreshold = 2;
  // Hard ceiling on parked segments; the effective cap also scales with
  // registered threads (SegmentPool::cap).
  static constexpr std::size_t kPoolSlots = 64;
  // A span row holds at most this many unused indices, so a claim takes
  // at most 9 (at order 10 with up to 16 registered threads), the span of
  // a default BoundedQueue magazine refill.
  static constexpr u64 kRowIndices = 8;

  Options opt_;
  // Declaration order is load-bearing for destruction: hp_ is declared after
  // pool_ so that any late recycle_cb run by a member destructor would still
  // find the pool alive (the destructor body drains both explicitly anyway).
  SegmentPool<Segment> pool_;
  mutable HazardDomain hp_;
  TidTable<SpanRow> rows_;
  std::atomic<u64> generations_{0};
  std::size_t segment_bytes_ = 0;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Segment*>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Segment*>> tail_;
  LiveSessions sessions_;
};

}  // namespace wcq
