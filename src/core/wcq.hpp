// wCQ — the Wait-free Circular Queue (the paper's contribution, Figs 4-7).
//
// wCQ is SCQ (core/scq.hpp) plus a fast-path-slow-path construction that
// makes both operations wait-free while keeping memory statically bounded:
//
//  * Fast path: SCQ's own. BasicWCQ privately derives from the MPMC
//    BasicScq over pair slots and runs its Head/Tail F&A, enq_at, deq_at,
//    re-arm and catchup (single-word CAS/OR on the entry's Value word),
//    tried MAX_PATIENCE times. This file holds only what Figs 4-7 add.
//  * Slow path: the thread publishes a help request in its per-queue thread
//    record; every thread polls for requests (one candidate every HELP_DELAY
//    operations) and replays the stuck operation cooperatively. The global
//    Head/Tail F&A is replaced by slow_F&A — a two-phase, helped increment
//    that all cooperating threads agree on via the request's localTail /
//    localHead word (counter + INC/FIN flag bits).
//
// Entries become 16-byte pairs {Value, Note}, and Head/Tail {counter, phase-2
// tag} pairs for slow_F&A; the fast path uses the first word only. Note is
// a cycle watermark that forces late helpers to skip any slot one
// cooperating thread already skipped, and the extra Enq bit supports
// two-step insertion (produce with Enq=0, finalize the request, flip Enq=1)
// so helpers can be terminated before a produced entry is consumed and its
// slot recycled.
//
// Deviations from the paper's pseudocode (justified in DESIGN.md §3):
//  1. The second-phase reference stored in global Head/Tail is not a raw
//     phase2rec pointer but a packed (tid, generation) tag validated against
//     the record's seq words — a raw pointer left dangling by Fig 7 line 35's
//     allowed failure could otherwise complete a *later* increment's Phase 2
//     prematurely, breaking the local < global invariant.
//  2. Helpers re-validate the request generation (rec.seq1 == seq) after
//     every bare read of the shared localTail/localHead word in slow_F&A and
//     abort helping on mismatch; without this a helper that survives its
//     one-shot Fig 6 validation can adopt the *next* request's counter and
//     enqueue a stale index into it.
//  3. A cycle match in try_enq_slow counts as success only for a non-⊥
//     index (a same-counter dequeuer may have ⊥-marked the slot first).
//  4. A failed FIN CAS that does not observe FIN means "keep working", not
//     "done" — otherwise helpers continue on a dead request and orphan the
//     elements they dequeue for it.
//  5. The baseline (failed fast-path) rank is a CAS anchor only and is
//     never handed out as a reservation by the bare-read path.
//  6. catchup is iteration-capped (the paper requires this, §3.2).
//
// Appendix A's ring finalization is the FIN bit in the first word of the
// Tail pair (BasicScq::finalize). A fast-path reservation that draws it
// fails, and so does a slow-path request: slow_faa closes it instead of
// reserving, and the requester returns false.
//
// Progress: wait-free, bounded memory (Theorems 5.8-5.10).
#pragma once

#include <atomic>
#include <cassert>
#include <optional>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/dwcas.hpp"
#include "common/op_counters.hpp"
#include "common/tid_table.hpp"
#include "core/entry.hpp"
#include "core/scq.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

// Entry-pair update policy. wCQ's slow path reads both words of an entry
// pair atomically-enough (torn reads are re-validated) but only ever
// *updates one word at a time* — the property §4 exploits on PowerPC/MIPS.
// The default implementation uses CAS2 (x86-64/AArch64); core/wcq_llsc.hpp
// provides the paper's Fig 9 LL/SC decomposition over a simulated
// reservation granule. Both have weak-CAS semantics: spurious failure is
// allowed, callers re-read and retry.
struct Cas2EntryOps {
  static bool update_value(AtomicPair128& e, const Pair128& expected,
                           u64 new_value) {
    Pair128 exp = expected;
    return dwcas(e, exp, Pair128{new_value, expected.hi});
  }
  static bool update_note(AtomicPair128& e, const Pair128& expected,
                          u64 new_note) {
    Pair128 exp = expected;
    return dwcas(e, exp, Pair128{expected.lo, new_note});
  }
};

template <typename EntryOps>
class BasicWCQ : private BasicScq<kMulti, PairSlots> {
  using Ring = BasicScq<kMulti, PairSlots>;
  struct ThreadRec;  // defined below; named here so Handle can hold one

 public:
  struct Options {
    unsigned order = 15;        // capacity 2^order; ring allocates 2^(order+1)
    int enq_patience = 16;      // paper §6: 16 for Enqueue
    int deq_patience = 64;      // paper §6: 64 for Dequeue
    unsigned help_delay = 16;   // Fig 6 HELP_DELAY
    bool cache_remap = true;
  };

  // Per-thread session handle (DESIGN.md §10): the dense registry tid plus
  // this queue's thread record for it, resolved once instead of on every
  // operation. Trivially copyable — it is two words of derived state, so a
  // composed layer (BoundedQueue) can rebuild it from a tid with pure
  // arithmetic. With the tid in hand the hot path touches no registry or
  // thread_local state at all; the only remaining registry read is the
  // help scan's high_water snapshot, taken once per HELP_DELAY operations
  // when the periodic check fires (see help_threads). A handle is valid
  // only while the queue is alive and only on the thread owning the tid.
  // The record pointer is stable for the queue's lifetime: record chunks
  // are installed once and never move (common/tid_table.hpp).
  class Handle {
   public:
    Handle() = default;
    unsigned tid() const { return tid_; }

   private:
    friend class BasicWCQ;
    Handle(unsigned tid, ThreadRec* rec) : tid_(tid), rec_(rec) {}
    unsigned tid_ = 0;
    ThreadRec* rec_ = nullptr;
  };

  explicit BasicWCQ(Options opt)
      : Ring(opt.order, opt.cache_remap),
        opt_(opt),
        records_(ThreadRegistry::kMaxThreads, 1) {
    assert(opt.enq_patience >= 1 && opt.deq_patience >= 1);
    assert(opt.help_delay >= 1);
  }

  // The (order, cache_remap) shape BasicScq shares, so BoundedQueue builds
  // either ring through one path.
  explicit BasicWCQ(unsigned order, bool cache_remap = true)
      : BasicWCQ(Options{.order = order, .cache_remap = cache_remap}) {}
  BasicWCQ() : BasicWCQ(Options{}) {}

  BasicWCQ(const BasicWCQ&) = delete;
  BasicWCQ& operator=(const BasicWCQ&) = delete;

  using Ring::cache_remap;
  using Ring::capacity;
  using Ring::finalize;
  using Ring::reset_threshold;
  using Ring::ring_size;
  // Metered bytes the ring holds: its entries and the record table (the
  // head chunk, and the directory and chunks installed so far).
  std::size_t heap_bytes() const {
    return Ring::heap_bytes() + records_.bytes();
  }

  // Acquire a session for the calling thread (exactly one registry lookup).
  Handle handle() { return handle_for(ThreadRegistry::tid()); }

  // Build the session for a known dense tid: no registry or thread_local
  // access. Composed layers (BoundedQueue, UnboundedQueue segments) carry
  // the tid in their own handles and rebuild ring sessions through this.
  // A tid of 8 or more installs its record chunk on its first session (at
  // most once per ring; DESIGN.md §10); every later one is pointer
  // arithmetic.
  Handle handle_for(unsigned tid) { return Handle(tid, records_.row(tid)); }

  // Inserts `index` (< capacity()). The caller guarantees at most
  // capacity() live indices (Fig 2 indirection provides that). Fails only
  // on a finalized ring (Appendix A: a reservation that draws FIN fails,
  // on either path). Wait-free.
  bool enqueue(u64 index) {
    Handle h = handle();
    return enqueue(h, index);
  }

  bool enqueue(Handle& h, u64 index) {
    ThreadRec& rec = *h.rec_;
    help_threads(h);
    // == Fast path (SCQ) ==
    u64 tail = 0;
    for (int i = 0; i < opt_.enq_patience; ++i) {
      if (!reserve(1, tail)) return false;
      if (enq_at(tail, index, /*rearm=*/true)) return true;
    }
    // == Slow path ==
    opcount::count_wcq_enq_slow();
    const u64 seq = rec.seq1.load(std::memory_order_relaxed);
    rec.local_tail.store(tail, std::memory_order_release);
    rec.init_tail.store(tail, std::memory_order_release);
    rec.index.store(index, std::memory_order_release);
    rec.is_enqueue.store(true, std::memory_order_release);
    rec.seq2.store(seq, std::memory_order_release);
    rec.pending.store(true, std::memory_order_release);
    enqueue_slow(h, tail, index, rec, seq);
    // The element is inserted, but the inserting thread may have been a
    // helper that has not yet executed its Threshold reset (Fig 7 line 18
    // runs after the FIN that released us). Returning now would let a
    // dequeuer read the stale negative threshold and report empty even
    // though this enqueue has completed — a linearizability violation
    // caught by the L4 history check (deviation 7, DESIGN.md §3). Re-arm
    // the threshold before responding; an extra reset is always safe.
    reset_threshold();
    const bool closed =
        rec.local_tail.load(std::memory_order_acquire) == kClosed;
    rec.pending.store(false, std::memory_order_release);
    rec.seq1.store(seq + 1, std::memory_order_release);
    return !closed;
  }

  // Removes and returns the oldest index, or nullopt when empty. Wait-free.
  std::optional<u64> dequeue() {
    // Empty fast-exit before paying for a session.
    if (threshold_empty()) return std::nullopt;
    Handle h = handle();
    return dequeue(h);
  }

  std::optional<u64> dequeue(Handle& sh) {
    if (threshold_empty()) return std::nullopt;
    ThreadRec& rec = *sh.rec_;
    help_threads(sh);
    auto finalize = finalizer(sh);
    // == Fast path (SCQ) ==
    u64 head = 0;
    for (int i = 0; i < opt_.deq_patience; ++i) {
      head = claim(1);
      u64 index;
      switch (deq_at(head, index, finalize)) {
        case DeqStatus::kOk:
          return index;
        case DeqStatus::kEmpty:
          return std::nullopt;
        case DeqStatus::kRetry:
          break;
      }
    }
    // == Slow path ==
    opcount::count_wcq_deq_slow();
    const u64 seq = rec.seq1.load(std::memory_order_relaxed);
    rec.local_head.store(head, std::memory_order_release);
    rec.init_head.store(head, std::memory_order_release);
    rec.is_enqueue.store(false, std::memory_order_release);
    rec.seq2.store(seq, std::memory_order_release);
    rec.pending.store(true, std::memory_order_release);
    dequeue_slow(sh, head, rec, seq);
    rec.pending.store(false, std::memory_order_release);
    rec.seq1.store(seq + 1, std::memory_order_release);
    // Gather the slow-path result (Fig 5 lines 48-54): the final reservation
    // is in local_head; only the requester consumes it.
    const u64 h = rec.local_head.load(std::memory_order_acquire) & kCounterMask;
    const u64 j = remap_(codec_.pos_of(h));
    const u64 raw = word(entries_[j]).load(std::memory_order_acquire);
    const Entry e = codec_.unpack(raw);
    if (e.cycle == codec_.cycle_of(h) && e.index != codec_.bottom()) {
      assert(e.index != codec_.bottom_c() && "slot consumed by non-owner");
      consume(h, j, e, finalize);
      return e.index;
    }
    return std::nullopt;
  }

  // Batch insert (DESIGN.md §7): all `n` indices are inserted. The ring's
  // enqueue span reserves n consecutive ranks with one Tail F&A and re-arms
  // the threshold once; the indices it could not place fall back to the
  // wait-free single-op path. The caller's "at most capacity() live
  // indices" precondition covers the whole batch.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    Handle h = handle();
    enqueue_bulk(h, indices, n);
  }

  void enqueue_bulk(Handle& h, const u64* indices, std::size_t n) {
    if (n == 0) return;
    if (n == 1) {
      enqueue(h, indices[0]);
      return;
    }
    help_threads(h);
    for (std::size_t done = enq_span(indices, n); done < n; ++done) {
      enqueue(h, indices[done]);
    }
  }

  // Batch remove (DESIGN.md §7): pops up to `n` indices into `out`, one Head
  // F&A for the whole span. Returns the number actually dequeued; fewer than
  // n does not imply emptiness (a rank can be contended away, the same
  // transient a single-op fast-path retry absorbs) — partial success is the
  // batch contract.
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    if (n == 0) return 0;
    // Empty fast-exit: no ranks burned and no session paid.
    if (threshold_empty()) return 0;
    Handle h = handle();
    return dequeue_bulk(h, out, n);
  }

  std::size_t dequeue_bulk(Handle& h, u64* out, std::size_t n) {
    if (n == 0) return 0;
    if (threshold_empty()) return 0;  // no ranks burned
    if (n == 1) {
      const auto v = dequeue(h);
      if (!v) return 0;
      out[0] = *v;
      return 1;
    }
    help_threads(h);
    auto finalize = finalizer(h);
    return deq_span(out, n, finalize);
  }

  // Re-initialize the ring to its freshly-constructed (empty) state so a
  // drained, finalized segment can be reopened (DESIGN.md §8).
  //
  // Precondition: exclusive access. No operation is in flight, no helper can
  // be inside the queue (every path into the ring goes through an operation),
  // and no thread may start an operation until the reset is published. The
  // segment pool provides this window: a segment is reset only after its
  // hazard-pointer grace period has passed, and the reset values reach the
  // next user through the pool's release/acquire hand-off. Under that
  // precondition the per-thread records can be rewound too — rolling seq1
  // back to 1 is safe precisely because no helper holds a generation to
  // confuse (the reuse-ABA argument, DESIGN.md §8).
  void reset() {
    Ring::reset();
    // Only records below the registry high water can have been written:
    // record t is written by tid t (registered, so t < high water) or by a
    // helper scan already bounded by the high water. The high water never
    // decreases, so the records past it still hold their constructed
    // values, which are the values rewound here. An absent chunk holds
    // only constructed records; present chunks stay installed, so a
    // recycled segment reopens without allocating.
    const unsigned hw = ThreadRegistry::high_water();
    records_.for_each_present(hw, [](unsigned, ThreadRec* rp) {
      ThreadRec& r = *rp;
      r.next_check = 1;
      r.next_tid = 0;
      r.phase2.seq1.store(1, std::memory_order_relaxed);
      r.phase2.local.store(0, std::memory_order_relaxed);
      r.phase2.cnt.store(0, std::memory_order_relaxed);
      r.phase2.seq2.store(0, std::memory_order_relaxed);
      r.seq1.store(1, std::memory_order_relaxed);
      r.is_enqueue.store(false, std::memory_order_relaxed);
      r.pending.store(false, std::memory_order_relaxed);
      r.local_tail.store(0, std::memory_order_relaxed);
      r.init_tail.store(0, std::memory_order_relaxed);
      r.local_head.store(0, std::memory_order_relaxed);
      r.init_head.store(0, std::memory_order_relaxed);
      r.index.store(0, std::memory_order_relaxed);
      r.seq2.store(0, std::memory_order_relaxed);
    });
  }

  // --- introspection hooks (tests / benches) -------------------------------
  using Ring::head;
  using Ring::tail;
  using Ring::threshold;
  // True if any registered thread currently advertises a pending request.
  bool any_pending() const {
    return records_.any_present(
        ThreadRegistry::high_water(), [](unsigned, const ThreadRec* r) {
          return r->pending.load(std::memory_order_acquire);
        });
  }

 private:
  // ---- per-thread state (Fig 4) -------------------------------------------

  // Second-phase help request: which record's local word must move from
  // cnt|INC to cnt to finish a published increment.
  struct Phase2Rec {
    std::atomic<u64> seq1{1};
    std::atomic<u64> local{0};  // address of the helpee's local counter word
    std::atomic<u64> cnt{0};
    std::atomic<u64> seq2{0};
  };

  struct alignas(kDestructiveRange) ThreadRec {
    // Private fields — only the owning thread touches these.
    u64 next_check = 1;
    unsigned next_tid = 0;
    // Shared fields.
    Phase2Rec phase2;
    std::atomic<u64> seq1{1};
    std::atomic<bool> is_enqueue{false};
    std::atomic<bool> pending{false};
    std::atomic<u64> local_tail{0};
    std::atomic<u64> init_tail{0};
    std::atomic<u64> local_head{0};
    std::atomic<u64> init_head{0};
    std::atomic<u64> index{0};
    std::atomic<u64> seq2{0};
  };

  // Flag bits stolen from local_tail / local_head (counters stay < 2^62).
  static constexpr u64 kFin = u64{1} << 63;  // request finished: stop helping
  static constexpr u64 kInc = u64{1} << 62;  // Phase 1 done, Phase 2 pending
  static constexpr u64 kCounterMask = kInc - 1;
  // A request ended by a FIN'd Tail (slow_faa). Its counter bits are all
  // ones, a rank no finalize_request scan can match.
  static constexpr u64 kClosed = kFin | kCounterMask;

  // Packed (tid, phase2 generation) tag published in the global pair's
  // second word while an increment's Phase 2 is outstanding (deviation 1).
  static constexpr unsigned kRefTidShift = 48;
  static constexpr u64 kRefSeqMask = (u64{1} << kRefTidShift) - 1;
  static u64 make_ref(unsigned tid, u64 seq) {
    return (u64{tid} << kRefTidShift) | (seq & kRefSeqMask);
  }
  static unsigned ref_tid(u64 ref) {
    return static_cast<unsigned>(ref >> kRefTidShift);
  }
  static u64 ref_seq(u64 ref) { return ref & kRefSeqMask; }

  // ---- consume's finalize (Fig 5 lines 1-11) ------------------------------

  // The ring's pre-consume hook (deq_at, consume): runs on an Enq=0 entry.
  auto finalizer(Handle& me) {
    return [this, &me](u64 h) { finalize_request(me, h); };
  }

  // An entry produced by a slow-path enqueuer (Enq=0) is being consumed:
  // terminate that enqueuer's helpers by setting FIN on its local tail.
  // The scan bound is the *live* high_water — a session-cached snapshot is
  // not safe here: missing the enqueuer's record would leave its helpers
  // unterminated while the slot recycles, and they could re-produce the
  // element at a later rank (a duplicate). This path runs only when an
  // Enq=0 entry is consumed, i.e. once per slow-path enqueue, so the
  // lookup does not register on the per-op budget. Absent record chunks
  // are skipped: the enqueuer installed its chunk before publishing the
  // request this entry answers, and that install happens-before the
  // produce CAS this thread's entry load read from (TID-CHUNK, DESIGN.md
  // §11), so the enqueuer's record is always found.
  void finalize_request(Handle& me, u64 h) {
    opcount::count_wcq_finalize();
    const unsigned self = me.tid_;
    const unsigned n = ThreadRegistry::high_water();
    for (unsigned step = 1; step < n; ++step) {
      ThreadRec* r = records_.find((self + step) % n);
      if (r == nullptr) continue;
      std::atomic<u64>& lt = r->local_tail;
      const u64 cur = lt.load(std::memory_order_acquire);
      if ((cur & kCounterMask) == h) {
        u64 expect = h;  // only a clean (flag-free) value is finalized
        WCQ_SCHED_POINT(kSlowLocal);
        lt.compare_exchange_strong(expect, h | kFin,
                                   std::memory_order_seq_cst);
        return;
      }
    }
  }

  // ---- helping (Fig 6) -----------------------------------------------------

  void help_threads(Handle& me) {
    ThreadRec& rec = *me.rec_;
    if (--rec.next_check != 0) return;
    rec.next_check = opt_.help_delay;
    // The high_water read happens only when the check fires, so the help
    // scan's one registry lookup amortizes to 1/help_delay per operation —
    // what keeps the explicit-handle path under the ≤1-lookup budget
    // (DESIGN.md §10). A snapshot taken here may miss a thread that
    // registers mid-window; it is seen one help_delay window later, a
    // bounded delay, so the helping bound is preserved. A tid whose record
    // chunk is absent has never opened a session on this ring, so it has
    // no request to help; a requester's install precedes its request, so
    // a later round finds it (DESIGN.md §10).
    const unsigned n = ThreadRegistry::high_water();
    if (rec.next_tid >= n) rec.next_tid = 0;
    ThreadRec* thr = records_.find(rec.next_tid);
    if (thr != nullptr && thr != &rec &&
        thr->pending.load(std::memory_order_acquire)) {
      if (thr->is_enqueue.load(std::memory_order_acquire)) {
        help_enqueue(me, *thr);
      } else {
        help_dequeue(me, *thr);
      }
    }
    rec.next_tid = (rec.next_tid + 1) % n;
  }

  void help_enqueue(Handle& me, ThreadRec& thr) {
    const u64 seq = thr.seq2.load(std::memory_order_acquire);
    const bool enq = thr.is_enqueue.load(std::memory_order_acquire);
    const u64 idx = thr.index.load(std::memory_order_acquire);
    const u64 tail = thr.init_tail.load(std::memory_order_acquire);
    // seq1 is read after the fields (acquire loads keep program order for
    // later loads); equality proves the fields belong to generation `seq`.
    if (enq && thr.seq1.load(std::memory_order_acquire) == seq) {
      opcount::count_wcq_help_enq();
      enqueue_slow(me, tail, idx, thr, seq);
    }
  }

  void help_dequeue(Handle& me, ThreadRec& thr) {
    const u64 seq = thr.seq2.load(std::memory_order_acquire);
    const bool enq = thr.is_enqueue.load(std::memory_order_acquire);
    const u64 head = thr.init_head.load(std::memory_order_acquire);
    if (!enq && thr.seq1.load(std::memory_order_acquire) == seq) {
      opcount::count_wcq_help_deq();
      dequeue_slow(me, head, thr, seq);
    }
  }

  // ---- slow path (Fig 7) ---------------------------------------------------

  void enqueue_slow(Handle& me, u64 t, u64 index, ThreadRec& rec, u64 seq) {
    u64 v = t;
    while (slow_faa(me, tail_.value, rec.local_tail, v, /*thld=*/nullptr, rec, seq,
                    /*init=*/t)) {
      if (try_enq_slow(v, index, rec)) break;
    }
  }

  void dequeue_slow(Handle& me, u64 h, ThreadRec& rec, u64 seq) {
    u64 v = h;
    while (slow_faa(me, head_.value, rec.local_head, v, &threshold_.value, rec, seq,
                    /*init=*/h)) {
      if (try_deq_slow(v, rec)) break;
    }
  }

  // Fig 7 try_enq_slow. Returns true when the request's element is known to
  // be inserted (by us or a peer); false means "advance to the next slot".
  bool try_enq_slow(u64 t, u64 index, ThreadRec& rec) {
    const u64 j = remap_(codec_.pos_of(t));
    const u64 cycle_t = codec_.cycle_of(t);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      Pair128 pair = entries_[j].load_torn();
      const Entry e = codec_.unpack(pair.lo);
      const u64 note = pair.hi;
      if (e.cycle < cycle_t && note < cycle_t) {
        if (!(e.safe || word(head_.value).load(std::memory_order_seq_cst) <= t) ||
            codec_.is_live_index(e.index)) {
          // Unusable: watermark Note so every cooperating thread skips this
          // slot even if the condition later turns true for them.
          if (!EntryOps::update_note(entries_[j], pair, cycle_t)) continue;
          return false;
        }
        // Produce the entry two-step: Enq=0 first.
        const Pair128 produced{codec_.pack(cycle_t, true, false, index),
                               note};
        if (!EntryOps::update_value(entries_[j], pair, produced.lo)) continue;
        WCQ_RANK_EVENT(produced, t);
        // Finalize the help request, then flip Enq to 1 (Fig 7 lines 14-17).
        u64 expect = t;
        WCQ_SCHED_POINT(kSlowLocal);
        if (rec.local_tail.compare_exchange_strong(
                expect, t | kFin, std::memory_order_seq_cst)) {
          // Flip Enq to 1; on failure the consumer's OR flips it instead.
          EntryOps::update_value(entries_[j], produced,
                                 codec_.pack(cycle_t, true, true, index));
        }
        reset_threshold();
        return true;
      }
      if (e.cycle != cycle_t) return false;
      // Cycle matches: either a peer inserted this request's element (live
      // index, or ⊥c once the requester consumed it) — success — or a
      // dequeuer with the *same counter value* arrived first and ⊥-marked
      // the slot, in which case nothing was inserted and the group must
      // move to the next reservation. The paper's Fig 7 line 19/20 elides
      // the ⊥ case; treating it as success silently drops the element
      // (deviation 3, DESIGN.md §3).
      return e.index != codec_.bottom();
    }
  }

  // Fig 7 try_deq_slow. Returns true when the result for this request is
  // decided (element ready at `h`, or queue empty); the requester gathers
  // the actual value afterwards (Fig 5 lines 48-54).
  bool try_deq_slow(u64 h, ThreadRec& rec) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      Pair128 pair = entries_[j].load_torn();
      const Entry e = codec_.unpack(pair.lo);
      if (e.cycle == cycle_h && e.index != codec_.bottom()) {
        // Ready (value) or already consumed by the requester (⊥c).
        u64 expect = h;
        WCQ_SCHED_POINT(kSlowLocal);
        rec.local_head.compare_exchange_strong(expect, h | kFin,
                                               std::memory_order_seq_cst);
        return true;
      }
      u64 note = pair.hi;
      u64 val = codec_.pack(cycle_h, e.safe, true, codec_.bottom());
      const bool live = codec_.is_live_index(e.index);
      if (live) {
        if (e.cycle < cycle_h && note < cycle_h) {
          // Watermark so late helper dequeuers do not revisit this slot.
          if (!EntryOps::update_note(entries_[j], pair, cycle_h)) continue;
          pair.hi = cycle_h;
          note = cycle_h;
        }
        val = codec_.pack(e.cycle, false, e.enq, e.index);
      }
      if (e.cycle < cycle_h) {
        if (!EntryOps::update_value(entries_[j], pair, val)) continue;
      }
      const u64 t = tail_rank();
      if (t <= h + 1) {
        catchup(t, h + 1);
        WCQ_SCHED_POINT(kThresholdCheck);
        if (threshold_.value.load(std::memory_order_seq_cst) < 0) {
          u64 expect = h;
          WCQ_SCHED_POINT(kSlowLocal);
          if (!rec.local_head.compare_exchange_strong(
                  expect, h | kFin, std::memory_order_seq_cst) &&
              (expect & kFin) == 0) {
            return false;  // group advanced; the request is not finished
          }
          return true;  // queue is empty
        }
      }
      return false;
    }
  }

  // Fig 7 slow_F&A: a helped, two-phase replacement for F&A on the global
  // Head/Tail pair. All cooperating threads of one request agree on each
  // reserved counter value through the request's local word; the global
  // counter moves exactly once per reservation. On return `v` holds the
  // reserved counter (true) or the request is finished (false): done, or
  // closed because the global counter carries FIN (Appendix A). The close
  // CASes `local` from `v` to kClosed, the anchor an advance would CAS
  // from, so the safety argument is the advance's: `v` is the baseline,
  // a rank the group found dead, or a Phase 1 whose increment can no
  // longer publish, so no element of this request is produced at it.
  bool slow_faa(Handle& me, AtomicPair128& global, std::atomic<u64>& local,
                u64& v, std::atomic<i64>* thld, ThreadRec& req_rec,
                u64 req_seq, u64 init) {
    const unsigned my = me.tid_;
    Phase2Rec& p2 = me.rec_->phase2;
    Backoff bo;
    for (;;) {
      u64 cnt = 0;
      const bool have_cnt = load_global_help_phase2(global, local, cnt);
      bool advanced = false;
      if (have_cnt) {
        const bool fin = (cnt & kTailFin) != 0;
        u64 expect = v;
        WCQ_SCHED_POINT(kSlowLocal);
        if (local.compare_exchange_strong(expect, fin ? kClosed : cnt | kInc,
                                          std::memory_order_seq_cst)) {
          if (fin) return false;
          v = cnt | kInc;  // Phase 1 complete (for this attempt)
          advanced = true;
        }
      }
      if (!advanced) {
        v = local.load(std::memory_order_acquire);
        // Deviation 2 (DESIGN.md §3): a bare read of the shared word is only
        // trusted if the request generation still matches; otherwise this
        // helper is operating on a dead request and must stop.
        if (req_rec.seq1.load(std::memory_order_acquire) != req_seq) {
          return false;
        }
        if ((v & kFin) != 0) return false;
        if ((v & kInc) == 0) {
          // The request's baseline (the failed fast-path rank) is only a CAS
          // anchor: the fast path already exhausted that rank, and handing
          // it out as a reservation would let a production/FIN race the
          // bootstrap phase-1 CAS (deviation 5, DESIGN.md §3). Loop instead;
          // the next phase-1 CAS anchored at it will advance the group. This
          // is the slow path's one wait on a *peer's* step (a cooperating
          // thread's phase-1 CAS), so it backs off rather than spinning dry
          // on oversubscribed hosts; the helping protocol itself provides
          // the wait-freedom bound (DESIGN.md §5).
          if (v == init) {
            bo.pause();
            continue;
          }
          return true;  // already reserved; v is the slot
        }
        cnt = v & kCounterMask;
      }
      // Publish the increment together with a Phase-2 help tag.
      const u64 gen = prepare_phase2(p2, &local, cnt);
      Pair128 expect{cnt, 0};
      WCQ_SCHED_POINT(kSlowPublish);
      if (dwcas(global, expect, Pair128{cnt + 1, make_ref(my, gen)})) {
        opcount::count_faa();  // the slow path's published increment
        // Exactly one thread reaches here per reservation: the threshold is
        // decremented once per global Head change (Lemma 5.6).
        if (thld != nullptr) {
          WCQ_SCHED_POINT(kThresholdDec);
          thld->fetch_sub(1, std::memory_order_seq_cst);
          opcount::count_threshold();
        }
        u64 e = cnt | kInc;
        WCQ_SCHED_POINT(kSlowLocal);
        local.compare_exchange_strong(e, cnt, std::memory_order_seq_cst);
        Pair128 gexp{cnt + 1, make_ref(my, gen)};
        WCQ_SCHED_POINT(kSlowPublish);
        dwcas(global, gexp, Pair128{cnt + 1, 0});  // failure: others clear it
        v = cnt;
        return true;
      }
    }
  }

  u64 prepare_phase2(Phase2Rec& p2, std::atomic<u64>* local, u64 cnt) {
    const u64 gen = p2.seq1.load(std::memory_order_relaxed) + 1;
    p2.seq1.store(gen, std::memory_order_release);
    p2.local.store(reinterpret_cast<u64>(local), std::memory_order_release);
    p2.cnt.store(cnt, std::memory_order_release);
    p2.seq2.store(gen, std::memory_order_release);
    return gen;
  }

  // Fig 7 load_global_help_phase2: read the global counter, first helping to
  // complete (and clear) any published Phase-2 request. Returns false when
  // the caller's request is finished (FIN observed on its local word).
  bool load_global_help_phase2(AtomicPair128& global, std::atomic<u64>& local,
                               u64& cnt_out) {
    for (;;) {
      WCQ_SCHED_POINT(kSlowHelp);
      if ((local.load(std::memory_order_acquire) & kFin) != 0) return false;
      const u64 gcnt = global.lo.load(std::memory_order_seq_cst);
      const u64 gref = global.hi.load(std::memory_order_acquire);
      if (gref == 0) {
        cnt_out = gcnt;
        return true;
      }
      // Help the publisher identified by the (tid, generation) tag. The help
      // CAS only fires if the record still holds that generation's data
      // (deviation 1), which also proves the increment was published.
      // The publisher installed its record chunk before its publishing
      // dwcas, which this thread's acquire load of gref read from, so the
      // chunk is present (TID-CHUNK).
      opcount::count_wcq_phase2_help();
      Phase2Rec& p2 = records_.find(ref_tid(gref))->phase2;
      const u64 s2 = p2.seq2.load(std::memory_order_acquire);
      if ((s2 & kRefSeqMask) == ref_seq(gref)) {
        const u64 laddr = p2.local.load(std::memory_order_acquire);
        const u64 cnt = p2.cnt.load(std::memory_order_acquire);
        // The generation tag in gref pins the record content to the exact
        // increment that published this reference; a stale gref (left
        // dangling by a failed clear) sees a bumped generation and skips.
        // Note gcnt may legitimately be far ahead of cnt+1 here — fast-path
        // F&As keep moving the counter word while the reference lingers —
        // so no relation between gcnt and cnt may be assumed; skipping the
        // help on such a mismatch (while still clearing the reference
        // below) would let a cooperative thread's stale phase-1 anchor
        // succeed and make the group abandon a granted reservation.
        if (p2.seq1.load(std::memory_order_acquire) == s2) {
          auto* lp = reinterpret_cast<std::atomic<u64>*>(laddr);
          u64 expect = cnt | kInc;
          lp->compare_exchange_strong(expect, cnt, std::memory_order_seq_cst);
        }
      }
      Pair128 gexp{gcnt, gref};
      dwcas(global, gexp, Pair128{gcnt, 0});
      // Loop: re-read; the reference is gone or the state moved on.
    }
  }

  Options opt_;
  // One ThreadRec per tid, in chunks installed by handle_for (DESIGN.md §9
  // "Footprint").
  TidTable<ThreadRec> records_;
};

// The paper's wCQ: CAS2-based entry updates (x86-64 / AArch64).
using WCQ = BasicWCQ<Cas2EntryOps>;

}  // namespace wcq
