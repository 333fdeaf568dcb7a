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
// Segment recycling (DESIGN.md §8): with Options::recycle (the default), a
// retired segment is reset and parked in a SegmentPool once its hazard
// grace period has passed, and the growth path allocates from the pool
// first — steady-state operation performs zero heap allocations. The queue
// owns a *private* HazardDomain so (a) its contextful retirements (which
// reference the queue's pool) can never outlive the queue, and (b) its
// retire-scan threshold can be small: recycled segments reach the pool
// promptly instead of idling in retire lists while fresh ones are malloc'd.
#pragma once

#include <atomic>
#include <new>
#include <optional>
#include <utility>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "common/backoff.hpp"
#include "common/topology.hpp"
#include "core/bounded_queue.hpp"
#include "core/session.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/segment_pool.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {

template <typename T, typename Ring = WCQ>
class UnboundedQueue {
 public:
  // Per-thread session (DESIGN.md §10): the dense tid plus this queue's
  // hazard-slot row for it, resolved once. Segment-level ring/magazine
  // state cannot be cached here — segments come and go — so the handle
  // carries the tid and each segment rebuilds its BoundedQueue view from it
  // by pure arithmetic (zero registry lookups). Owned handles pin the queue
  // like BoundedQueue's (core/session.hpp). Unlike BoundedQueue's handle,
  // release does NOT flush segment magazines (that would need a
  // hazard-protected walk of a list the session no longer operates on);
  // segment magazines flush at thread exit via the registry hook, and the
  // full-edge reclaim sweep keeps cached indices from wedging a segment's
  // finalize in the meantime (DESIGN.md §9).
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
    // Per-thread free-index magazines inside each segment (DESIGN.md §9).
    // BoundedQueue clamps the capacity to 2^segment_order / 4, keeping
    // magazines well under the segment size so the finalize-on-full
    // transition stays prompt; the full-edge reclaim sweep recovers cached
    // indices before "full" is reported, so a segment finalizes at its
    // exact capacity up to the same in-flight transients the plain double
    // ring has (a sweep can miss an index mid-flight — DESIGN.md §9), and
    // recycling (and SteadyStateZeroAllocations) is unaffected.
    IndexMagazines::Config magazine{};
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
    Segment* first = Segment::create(segment_options());
    first->home_node = topo_->current_node();
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
  // down the whole chain (Segment::enqueue → BoundedQueue::enqueue_movable):
  // the old const& chain copied it twice per operation.
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
      if (ltail->enqueue(h.tid(), value)) {
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
      (void)fresh->enqueue(h.tid(), value);  // empty open ring: cannot fail
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
      // exclusively, so this dequeue cannot fail) and retry there. With the
      // moving chain the element lives in fresh now — the old copying chain
      // could just drop the segment's copy.
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
  // One segment object's own bytes, without the ring, payload and
  // magazine arrays its BoundedQueue allocates.
  static constexpr std::size_t segment_object_bytes() {
    return sizeof(Segment);
  }
  // Flush this queue's pending retirements (quiescent-only): retired
  // segments move to the pool (or are freed past its cap) immediately
  // instead of at the next scan.
  void reclaim_flush() { hp_.drain(); }

 private:
  friend class SessionOwner<UnboundedQueue>;
  void release_session(unsigned /*tid*/) { sessions_.remove(); }

  // One ring segment: a Fig 2 bounded queue plus finalization state.
  struct Segment {
    using QueueOptions = typename BoundedQueue<T, Ring>::Options;

    explicit Segment(const QueueOptions& opt) : queue(opt) {}

    static Segment* create(const QueueOptions& opt) {
      // The embedded BoundedQueue is cache-line-aligned, so Segment is
      // over-aligned — plain malloc's max_align_t is not enough.
      void* mem = alloc_meter::allocate_aligned(sizeof(Segment),
                                                alignof(Segment));
      return new (mem) Segment(opt);
    }
    static void destroy(Segment* s) {
      s->~Segment();
      alloc_meter::deallocate_aligned(s, sizeof(Segment));
    }

    // Reopen a finalized, drained, quiescent segment (exclusive access; the
    // recycler holds the only reference). Ring/bounded resets rewind the
    // Fig 2 state; clearing `next` detaches it from the dead list tail.
    void reset() {
      queue.reset();
      finalized.store(false, std::memory_order_relaxed);
      next.store(nullptr, std::memory_order_relaxed);
    }

    // False once the segment is full: the segment finalizes and no enqueue
    // will ever succeed on it again (so FIFO order across segments holds).
    // On success `v` is moved-from; on failure it is left intact (the
    // enqueue_movable contract), so the caller can retarget it. The caller's
    // session tid threads through: the segment rebuilds its BoundedQueue
    // view from it by arithmetic (DESIGN.md §10), so segment churn costs no
    // registry lookups. On a published segment the caller must hold it in
    // its enqueue slot: that hazard, stored before the gate load below, is
    // the announcement the dequeuers' quiescence check scans for.
    bool enqueue(unsigned tid, T& v) {
      if (finalized.load(std::memory_order_seq_cst)) return false;
      auto bh = queue.handle_for(tid);
      const bool ok = queue.enqueue_movable(bh, v);
      if (!ok) {
        finalized.store(true, std::memory_order_seq_cst);
      }
      return ok;
    }

    // Once the segment is finalized no enqueue passes its gate again before
    // reset(), so a freed index is retired instead of recycled: no magazine
    // put, no fq spill, and reset() re-issues it through the fresh counter.
    // An enqueuer that passed the gate before finalization may now find no
    // free index; it fails and moves on to the successor, a path it could
    // already take. The relaxed load is a hint (SEG-RETIRE, DESIGN.md §11):
    // a stale `false` recycles the index as before.
    std::optional<T> dequeue(unsigned tid) {
      auto bh = queue.handle_for(tid);
      if (finalized.load(std::memory_order_relaxed)) {
        return queue.dequeue_retire(bh);
      }
      return queue.dequeue(bh);
    }

    BoundedQueue<T, Ring> queue;
    // Node whose thread first allocated this segment — where first-touch
    // put its pages. Written only under exclusive ownership (creation);
    // recycling keys the pool partition off it so the pages never migrate
    // through the free list (DESIGN.md §12).
    unsigned home_node = 0;
    alignas(kCacheLine) std::atomic<bool> finalized{false};
    alignas(kCacheLine) std::atomic<Segment*> next{nullptr};
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

  // Growth path: reuse a parked segment when one is available. A pooled
  // segment was reset by its recycler; the pool's release/acquire hand-off
  // publishes those writes to us, and the list-append CAS publishes them to
  // everyone else (DESIGN.md §8).
  typename Segment::QueueOptions segment_options() const {
    return typename Segment::QueueOptions{opt_.segment_order, opt_.magazine};
  }

  // The session's cached node when it has one (owned handles), else
  // resolved now — once per growth, not per operation.
  Segment* acquire_segment(const Handle& h) {
    const unsigned node = h.node_ != Topology::kUnsetNode
                              ? h.node_
                              : topo_->current_node();
    if (opt_.recycle) {
      // Local partition only: a miss allocates a fresh local segment
      // rather than adopting one whose pages live on another node.
      if (Segment* s = pool_.try_get(node)) return s;
    }
    Segment* s = Segment::create(segment_options());
    s->home_node = node;
    return s;
  }

  // Give back a segment this thread exclusively owns (never published, or
  // publication lost its race). It may hold the one seeded element; reset
  // destroys it along with any other straggler. The segment parks in its
  // *home* node's partition — not the releasing thread's — so its pages
  // stay keyed to where they physically are.
  void release_segment(Segment* s) {
    if (opt_.recycle) {
      s->reset();
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
  alignas(kDestructiveRange) CacheAligned<std::atomic<Segment*>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Segment*>> tail_;
  LiveSessions sessions_;
};

}  // namespace wcq
