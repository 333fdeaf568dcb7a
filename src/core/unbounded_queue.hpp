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
//  * Finalization is implemented with a segment-level gate instead of the
//    appendix's Tail finalize bit (which lives inside the ring's F&A word).
//    An enqueuer announces itself through the hazard it already publishes
//    on the tail segment, in a slot reserved for enqueues (kEnqSlot): a
//    segment is unlinked only when it is finalized, drained, and no
//    thread's enqueue slot holds it, which makes "help finalize, then
//    append" (Fig 13 lines 21-22) unnecessary.
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
#include "common/topology.hpp"
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
  // and each segment rebuilds its ring session and finds the tid's span row
  // from it by pure arithmetic (zero registry lookups). Owned handles pin
  // the queue like BoundedQueue's (core/session.hpp). Release has nothing
  // to flush: a span row left behind is simply never matched again once its
  // segment finalizes or is reset.
  class Handle {
   public:
    Handle() = default;

    unsigned tid() const { return owner_.tid(); }

   private:
    friend class UnboundedQueue;
    // Owned sessions resolve their node now (topology cached for the
    // growth path, DESIGN.md §12); the per-op unowned views leave it unset
    // and the growth path — rare, once per 2^order ops — resolves lazily.
    Handle(UnboundedQueue* q, unsigned tid, bool owned)
        : owner_(owned ? q : nullptr, tid), hp_row_(q->hp_.slots_for(tid)),
          node_(owned ? q->topo_->current_node() : Topology::kUnsetNode) {}

    SessionOwner<UnboundedQueue> owner_;
    HazardDomain::ThreadSlots* hp_row_ = nullptr;
    unsigned node_ = Topology::kUnsetNode;
  };

  struct Options {
    // Each segment holds 2^segment_order elements (default: 1024).
    unsigned segment_order = 10;
    // Recycle retired segments through the pool (false = malloc/free every
    // segment, the pre-recycling behavior; kept as an A/B toggle for
    // the wcq_bench fig10 panel).
    bool recycle = true;
    // Placement source for the node-partitioned segment pool (DESIGN.md
    // §12); nullptr means the process topology (Topology::instance()). A
    // segment's home node is the node of the thread that first allocated it
    // (its first-touch node), and it recycles only through that node's pool
    // partition.
    const Topology* topology = nullptr;
  };

  explicit UnboundedQueue(Options opt)
      : opt_(opt),
        topo_(opt.topology != nullptr ? opt.topology
                                      : &Topology::instance()),
        pool_(kPoolSlots, topo_->node_count()),
        hp_(kRetireScanThreshold) {
    Segment* first = create_segment(topo_->current_node());
    // One span row per tid the segment ring accepts (DESIGN.md §4).
    rows_ = AlignedArray<SpanRow>(detail::ring_tids(first->aq), kCacheLine);
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

  // Never fails (appends a ring when the last one fills/finalizes; the ring
  // comes from the segment pool when one is parked there). The payload moves
  // down the whole chain into its slot and is never copied.
  bool enqueue(T value) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue(h, std::move(value));
  }

  bool enqueue(Handle& h, T value) {
    for (;;) {
      // The enqueue-slot hazard is also this enqueue's in-flight
      // announcement: from here until it is cleared, no dequeuer unlinks
      // ltail (SEG-FIN, DESIGN.md §11).
      Segment* ltail =
          HazardDomain::protect(*h.hp_row_, kEnqSlot, tail_.value);
      Segment* next = ltail->next.load(std::memory_order_acquire);
      if (next != nullptr) {
        // Outer tail lags; help swing it (Fig 13 lines 24-27).
        tail_.value.compare_exchange_strong(ltail, next,
                                            std::memory_order_seq_cst);
        continue;
      }
      if (ltail->enqueue(h.tid(), rows_.data(), value)) {
        HazardDomain::clear(*h.hp_row_, kEnqSlot);
        return true;
      }
      // Ring full: it is now finalized; append a fresh ring seeded with the
      // value (Fig 13 lines 7-8, 21-23). The announcement ends here, so a
      // dequeuer waiting on ltail never waits on the growth path; slot 0
      // keeps ltail protected for the append CASes.
      HazardDomain::set(*h.hp_row_, 0, ltail);
      HazardDomain::clear(*h.hp_row_, kEnqSlot);
      Segment* fresh = acquire_segment(h);
      // Empty open ring: cannot fail.
      (void)fresh->enqueue(h.tid(), rows_.data(), value);
      Segment* expected = nullptr;
      const bool linked = ltail->next.compare_exchange_strong(
          expected, fresh, std::memory_order_seq_cst);
      if (linked) {
        tail_.value.compare_exchange_strong(ltail, fresh,
                                            std::memory_order_seq_cst);
      }
      HazardDomain::clear(*h.hp_row_, 0);
      if (linked) return true;
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
    Backoff bo;
    for (;;) {
      Segment* lhead = HazardDomain::protect(*h.hp_row_, 0, head_.value);
      if (auto v = lhead->dequeue(h.tid())) {
        HazardDomain::clear(*h.hp_row_, 0);
        return v;
      }
      Segment* next = lhead->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        HazardDomain::clear(*h.hp_row_, 0);
        return std::nullopt;  // no successor: the queue is empty
      }
      // A successor exists, so lhead is finalized. It may only be unlinked
      // once no enqueuer can still complete on it and it is drained.
      if (!quiescent(lhead)) {
        // An announced enqueue may still land here; try dequeuing again.
        // The announcing enqueuer may be descheduled, so this wait must
        // back off or it livelocks an oversubscribed host.
        bo.pause();
        continue;
      }
      if (auto v = lhead->dequeue(h.tid())) {  // drained-check must re-validate
        HazardDomain::clear(*h.hp_row_, 0);
        return v;
      }
      Segment* expected = lhead;
      if (head_.value.compare_exchange_strong(expected, next,
                                              std::memory_order_seq_cst)) {
        HazardDomain::clear(*h.hp_row_, 0);
        hp_.retire(h.tid(), lhead, &UnboundedQueue::recycle_cb, this);
      }
    }
  }

  // Diagnostic: number of linked segments, safe to call concurrently with
  // enqueue/dequeue on other threads.
  //
  // The walk is hazard-protected hand-over-hand in slots 0, 2 and 3 (slot 0
  // is free outside an operation; the enqueue slot is never touched, so the
  // walk is never mistaken for an in-flight enqueue). The liveness argument
  // leans on the list's shape: segments are unlinked *only at the head*, so
  // every node reachable from the current head is linked. The walker pins
  // the head it started from in slot 0 for the whole walk; after publishing
  // a hazard on each `next` it re-reads head_ — if head_ still equals the
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
      unsigned slot = 2;
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
        slot = slot == 2 ? 3 : 2;  // keep the previous hop protected
      }
      hp_.clear(0);
      hp_.clear(2);
      hp_.clear(3);
      if (!restart) return n;
      bo.pause();
    }
  }

  // Test hooks.
  int live_handles() const { return sessions_.live(); }
  std::size_t pooled_segments() const { return pool_.size(); }
  const Options& options() const { return opt_; }
  // Metered bytes one segment owns: the object plus its ring's and payload
  // slots' arrays. Every segment of a queue has the same size.
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
  void release_session(unsigned /*tid*/) { sessions_.remove(); }

  struct Segment;

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

    // Reopen a finalized, drained, quiescent segment (exclusive access; the
    // recycler holds the only reference): rewind the ring and the counter,
    // detach it from the dead list tail and retag it, so span rows left on
    // the old incarnation go stale.
    void reset(u64 generation) {
      destroy_stragglers();
      aq.reset();
      fresh.store(0, std::memory_order_relaxed);
      finalized.store(false, std::memory_order_relaxed);
      next.store(nullptr, std::memory_order_relaxed);
      gen = generation;
    }

    // False once the segment is full: the segment finalizes and no enqueue
    // will ever succeed on it again (so FIFO order across segments holds).
    // On success `v` is moved-from; on failure it is left intact, so the
    // caller can retarget it. The index comes from the tid's span row when
    // it holds one for this incarnation, else from a fresh claim; a claim
    // past the counter's end is what finalizes the segment. Indices other
    // threads still hold in their rows then go unused, so under contention
    // a segment can finalize holding fewer than capacity() elements, but
    // not fewer than 7/8 of them while the registered thread count holds
    // still (claim() sizes the rows for that). On a published segment the
    // caller must hold it in its enqueue slot: that hazard, stored before
    // the gate load below, is the announcement the dequeuers' quiescence
    // check scans for.
    bool enqueue(unsigned tid, SpanRow* rows, T& v) {
      if (finalized.load(std::memory_order_seq_cst)) return false;
      auto ah = aq.handle_for(tid);  // traps on a tid past the ring's records
      SpanRow& row = rows[tid];
      u64 idx;
      if (row.seg == this && row.gen == gen && row.next < row.end) {
        idx = row.next++;
      } else if (!claim(row, idx)) {
        finalized.store(true, std::memory_order_seq_cst);
        return false;
      }
      ::new (static_cast<void*>(slot(idx))) T(std::move(v));
      aq.enqueue(ah, idx);
      return true;
    }

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
    // Node whose thread first allocated this segment — where first-touch
    // put its pages. Written only under exclusive ownership (creation);
    // recycling keys the pool partition off it so the pages never migrate
    // through the free list (DESIGN.md §12).
    unsigned home_node = 0;
    // Next never-issued index; ≥ capacity() once every index is issued.
    alignas(kCacheLine) std::atomic<u64> fresh{0};
    // Read by every enqueue attempt, each written once per incarnation:
    // one shared line.
    alignas(kCacheLine) std::atomic<bool> finalized{false};
    std::atomic<Segment*> next{nullptr};
  };

  // True when no enqueuer can still add an element to `s`: it is finalized
  // and no thread announces an enqueue on it. The finalized load and the
  // scan's fence pair with the enqueuer's announce-then-gate-load (a Dekker):
  // an enqueuer the scan misses announced after the fence, so its gate load
  // sees `finalized` and it backs off. The scan's acquire loads make the
  // ring writes of an enqueue whose announcement they see cleared visible
  // to the caller's re-dequeue (SEG-FIN, DESIGN.md §11).
  bool quiescent(const Segment* s) const {
    if (!s->finalized.load(std::memory_order_seq_cst)) return false;
#if defined(WCQ_ANALYSIS_MUTATE_SEGFIN)
    // Mutation self-test (tests/analysis/test_mutation_segfin.cpp): trust
    // the gate alone, so an enqueuer that passed it before finalization can
    // still land its element after the segment is unlinked.
    return true;
#else
    return !hp_.held_in_slot(kEnqSlot, s);
#endif
  }

  // A generation number no incarnation of this queue's segments has had.
  u64 next_generation() {
    return generations_.fetch_add(1, std::memory_order_relaxed);
  }

  Segment* create_segment(unsigned node) {
    Segment* s = Segment::create(opt_.segment_order, next_generation());
    s->home_node = node;
    return s;
  }

  // Growth path: reuse a parked segment when one is available. A pooled
  // segment was reset by its recycler; the pool's release/acquire hand-off
  // publishes those writes to us, and the list-append CAS publishes them to
  // everyone else (DESIGN.md §8). The session's cached node is used when it
  // has one (owned handles), else resolved now — once per growth, not per
  // operation.
  Segment* acquire_segment(const Handle& h) {
    const unsigned node = h.node_ != Topology::kUnsetNode
                              ? h.node_
                              : topo_->current_node();
    if (opt_.recycle) {
      // Local partition only: a miss allocates a fresh local segment
      // rather than adopting one whose pages live on another node.
      if (Segment* s = pool_.try_get(node)) return s;
    }
    return create_segment(node);
  }

  // Give back a segment this thread exclusively owns (never published, or
  // publication lost its race). It may hold the one seeded element; reset
  // destroys it along with any other straggler. The segment parks in its
  // *home* node's partition — not the releasing thread's — so its pages
  // stay keyed to where they physically are.
  void release_segment(Segment* s) {
    if (opt_.recycle) {
      s->reset(next_generation());
      if (pool_.try_put(s->home_node, s)) return;
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

  // Hazard slot held only by an enqueue in progress, on the tail segment it
  // targets: the in-flight announcement quiescent() scans for. Slot 0
  // protects segments on every other path; live_segments() walks in 0, 2, 3.
  static constexpr unsigned kEnqSlot = 1;

  Options opt_;
  const Topology* topo_ = nullptr;
  // Declaration order is load-bearing for destruction: hp_ is declared after
  // pool_ so that any late recycle_cb run by a member destructor would still
  // find the pool alive (the destructor body drains both explicitly anyway).
  SegmentPool<Segment> pool_;
  mutable HazardDomain hp_;
  AlignedArray<SpanRow> rows_;
  std::atomic<u64> generations_{0};
  std::size_t segment_bytes_ = 0;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Segment*>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Segment*>> tail_;
  LiveSessions sessions_;
};

}  // namespace wcq
