// wCQ — the Wait-free Circular Queue (the paper's contribution, Figs 4-7).
//
// wCQ is SCQ (core/scq.hpp) plus a fast-path-slow-path construction that
// makes both operations wait-free while keeping memory statically bounded:
//
//  * Fast path: identical to SCQ (F&A on Head/Tail, single-word CAS/OR on
//    the entry's Value word), tried MAX_PATIENCE times.
//  * Slow path: the thread publishes a help request in its per-queue thread
//    record; every thread polls for requests (one candidate every HELP_DELAY
//    operations) and replays the stuck operation cooperatively. The global
//    Head/Tail F&A is replaced by slow_F&A — a two-phase, helped increment
//    that all cooperating threads agree on via the request's localTail /
//    localHead word (counter + INC/FIN flag bits).
//
// Entries become 16-byte pairs {Value, Note}: Note is a cycle watermark that
// forces late helpers to skip any slot one cooperating thread already
// skipped, and the extra Enq bit supports two-step insertion (produce with
// Enq=0, finalize the request, flip Enq=1) so helpers can be terminated
// before a produced entry is consumed and its slot recycled.
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
#include "core/entry.hpp"
#include "core/remap.hpp"
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
class BasicWCQ {
 private:
  struct ThreadRec;  // defined below; named here so Handle can hold one

 public:
  struct Options {
    unsigned order = 15;        // capacity 2^order; ring allocates 2^(order+1)
    unsigned max_threads = 128;  // size of the per-queue record array
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
      : opt_(opt),
        codec_(opt.order),
        remap_(codec_.ring_size(), sizeof(AtomicPair128), opt.cache_remap),
        entries_(codec_.ring_size(), kCacheLine),
        records_(opt.max_threads, kDestructiveRange) {
    assert(opt.enq_patience >= 1 && opt.deq_patience >= 1);
    assert(opt.help_delay >= 1);
    assert(opt.max_threads >= 1 &&
           opt.max_threads <= ThreadRegistry::kMaxThreads);
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].lo.store(codec_.initial(), std::memory_order_relaxed);
      entries_[i].hi.store(0, std::memory_order_relaxed);  // Note: "never"
    }
    tail_.lo.store(codec_.ring_size(), std::memory_order_relaxed);
    tail_.hi.store(0, std::memory_order_relaxed);
    head_.lo.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.hi.store(0, std::memory_order_relaxed);
    threshold_.value.store(-1, std::memory_order_release);
  }

  explicit BasicWCQ(unsigned order) : BasicWCQ(Options{.order = order}) {}
  BasicWCQ() : BasicWCQ(Options{}) {}

  BasicWCQ(const BasicWCQ&) = delete;
  BasicWCQ& operator=(const BasicWCQ&) = delete;

  u64 capacity() const { return codec_.half(); }
  u64 ring_size() const { return codec_.ring_size(); }

  // Acquire a session for the calling thread (exactly one registry lookup).
  Handle handle() { return handle_for(ThreadRegistry::tid()); }

  // Build the session for a known dense tid: pure pointer arithmetic, no
  // registry or thread_local access. Composed layers (BoundedQueue,
  // UnboundedQueue segments) carry the tid in their own handles and rebuild
  // ring sessions through this. Traps on a tid beyond max_threads — the
  // same documented hard limit the implicit path enforces.
  Handle handle_for(unsigned tid) {
    if (tid >= opt_.max_threads) {
      assert(false && "thread id exceeds WCQ max_threads");
      __builtin_trap();
    }
    return Handle(tid, &records_[tid]);
  }

  // Inserts `index` (< capacity()). The caller guarantees at most
  // capacity() live indices (Fig 2 indirection provides that). Wait-free.
  void enqueue(u64 index) {
    Handle h = handle();
    enqueue(h, index);
  }

  void enqueue(Handle& h, u64 index) {
    ThreadRec& rec = *h.rec_;
    help_threads(h);
    // == Fast path (SCQ) ==
    u64 tail = 0;
    for (int i = 0; i < opt_.enq_patience; ++i) {
      if (try_enq(index, tail)) return;
    }
    // == Slow path ==
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
    rec.pending.store(false, std::memory_order_release);
    rec.seq1.store(seq + 1, std::memory_order_release);
  }

  // Removes and returns the oldest index, or nullopt when empty. Wait-free.
  std::optional<u64> dequeue() {
    WCQ_SCHED_POINT(kThresholdCheck);
    if (threshold_.value.load(std::memory_order_acquire) < 0) {
      return std::nullopt;  // empty fast-exit (before paying for a session)
    }
    Handle h = handle();
    return dequeue(h);
  }

  std::optional<u64> dequeue(Handle& sh) {
    WCQ_SCHED_POINT(kThresholdCheck);
    if (threshold_.value.load(std::memory_order_acquire) < 0) {
      return std::nullopt;  // empty fast-exit
    }
    ThreadRec& rec = *sh.rec_;
    help_threads(sh);
    // == Fast path (SCQ) ==
    u64 head = 0;
    for (int i = 0; i < opt_.deq_patience; ++i) {
      u64 index;
      switch (try_deq(sh, index, head)) {
        case DeqStatus::kOk:
          return index;
        case DeqStatus::kEmpty:
          return std::nullopt;
        case DeqStatus::kRetry:
          break;
      }
    }
    // == Slow path ==
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
    const u64 raw = entries_[j].lo.load(std::memory_order_acquire);
    const Entry e = codec_.unpack(raw);
    if (e.cycle == codec_.cycle_of(h) && e.index != codec_.bottom()) {
      assert(e.index != codec_.bottom_c() && "slot consumed by non-owner");
      dbg(kEvGatherTaken, h, e.index);
      consume(sh, h, j, e);
      return e.index;
    }
    dbg(kEvGatherEmpty, h);
    return std::nullopt;
  }

  // Batch insert (DESIGN.md §7): all `n` indices are inserted. One Tail F&A
  // reserves n consecutive ranks and the threshold is re-armed once for the
  // whole span instead of once per element; ranks whose slot is unusable are
  // abandoned (exactly as a failed fast-path attempt abandons its rank) and
  // the affected indices fall back to the wait-free single-op path. The
  // caller's "at most capacity() live indices" precondition covers the whole
  // batch.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    Handle h = handle();
    enqueue_bulk(h, indices, n);
  }

  void enqueue_bulk(Handle& h, const u64* indices, std::size_t n) {
    if (n == 0) return;
    if (n == 1) return enqueue(h, indices[0]);
    help_threads(h);
    WCQ_SCHED_POINT(kTailFaa);
    const u64 base = tail_.lo.fetch_add(n, std::memory_order_seq_cst);
    opcount::count_faa();
    std::size_t done = 0;
    for (std::size_t k = 0; k < n && done < n; ++k) {
      if (enq_at(base + k, indices[done], /*reset_thld=*/false)) ++done;
    }
    reset_threshold();  // one re-arm for the whole span
    for (; done < n; ++done) enqueue(h, indices[done]);
  }

  // Batch remove (DESIGN.md §7): pops up to `n` indices into `out`, one Head
  // F&A for the whole span. Returns the number actually dequeued; fewer than
  // n does not imply emptiness (a rank can be contended away, the same
  // transient a single-op fast-path retry absorbs) — partial success is the
  // batch contract. Every reserved rank is processed (see deq_at).
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    if (n == 0) return 0;
    WCQ_SCHED_POINT(kThresholdCheck);
    if (threshold_.value.load(std::memory_order_acquire) < 0) {
      return 0;  // empty fast-exit, no ranks burned (and no session paid)
    }
    Handle h = handle();
    return dequeue_bulk(h, out, n);
  }

  std::size_t dequeue_bulk(Handle& h, u64* out, std::size_t n) {
    if (n == 0) return 0;
    WCQ_SCHED_POINT(kThresholdCheck);
    if (threshold_.value.load(std::memory_order_acquire) < 0) {
      return 0;  // empty fast-exit, no ranks burned
    }
    if (n == 1) {
      const auto v = dequeue(h);
      if (!v) return 0;
      out[0] = *v;
      return 1;
    }
    help_threads(h);
    WCQ_SCHED_POINT(kHeadFaa);
    const u64 base = head_.lo.fetch_add(n, std::memory_order_seq_cst);
    opcount::count_faa();
    std::size_t got = 0;
    for (std::size_t k = 0; k < n; ++k) {
      u64 idx;
      if (deq_at(h, base + k, idx) == DeqStatus::kOk) out[got++] = idx;
    }
    return got;
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
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].lo.store(codec_.initial(), std::memory_order_relaxed);
      entries_[i].hi.store(0, std::memory_order_relaxed);  // Note: "never"
    }
    tail_.lo.store(codec_.ring_size(), std::memory_order_relaxed);
    tail_.hi.store(0, std::memory_order_relaxed);
    head_.lo.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.hi.store(0, std::memory_order_relaxed);
    threshold_.value.store(-1, std::memory_order_relaxed);
    for (u64 i = 0; i < records_.size(); ++i) {
      ThreadRec& r = records_[i];
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
    }
  }

  // --- introspection hooks (tests / benches) -------------------------------
  i64 threshold() const {
    return threshold_.value.load(std::memory_order_acquire);
  }
  u64 head() const { return head_.lo.load(std::memory_order_acquire); }
  u64 tail() const { return tail_.lo.load(std::memory_order_acquire); }
  // True if any registered thread currently advertises a pending request.
  bool any_pending() const {
    for (unsigned i = 0; i < n_records(); ++i) {
      if (records_[i].pending.load(std::memory_order_acquire)) return true;
    }
    return false;
  }

  // Debug event hooks (tests only; default off). Called with the counter
  // value (rank) at each state-changing event so a test harness can check
  // global produce/consume accounting.
  enum DebugEvent : int {
    kEvProducedFast = 0,
    kEvProducedSlow,
    kEvConsumed,
    kEvDeqBotMarkFast,   // dequeuer wrote the ⊥-mark at its cycle
    kEvDeqBotMarkSlow,
    kEvDeqUnsafeFast,    // dequeuer stripped IsSafe from an old live entry
    kEvDeqUnsafeSlow,
    kEvDeqRetryFast,     // fast dequeue left rank h with RETRY
    kEvDeqEmptyFast,
    kEvDeqSlowFalse,     // try_deq_slow abandoned rank h
    kEvDeqSlowFinReady,  // helper saw the ready entry and set FIN
    kEvDeqSlowFinEmpty,
    kEvGatherTaken,      // requester consumed the slow-path result
    kEvGatherEmpty,
    kEvEnqSlowAvert,     // try_enq_slow watermarked Note
    kEvEnqSlowFalse,
    kEvP1Adv,            // phase-1 CAS advanced local to rank|INC (aux=old)
    kEvP2Done,           // phase-2 CAS cleared INC at rank (helper or self)
    kEvPublishOk,        // global CAS2 granted rank to the group
    kEvReturnTrue,       // slow_faa handed rank to a cooperative thread
    kEvFinFail,          // FIN CAS at rank failed (aux=observed local word)
  };
  struct DebugHooks {
    void (*event)(void* ctx, int kind, u64 rank, u64 aux) = nullptr;
    void* ctx = nullptr;
  };
  DebugHooks debug_hooks;

  void dbg(int kind, u64 rank, u64 aux = 0) {
    if (debug_hooks.event != nullptr) {
      debug_hooks.event(debug_hooks.ctx, kind, rank, aux);
    }
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

  enum class DeqStatus { kOk, kEmpty, kRetry };

  i64 threshold_max() const {
    return static_cast<i64>(codec_.half() * 3 - 1);
  }

  u64 rec_index(const ThreadRec& r) const {
    return static_cast<u64>(&r - records_.data());
  }

  unsigned n_records() const {
    const unsigned hw = ThreadRegistry::high_water();
    return hw < opt_.max_threads ? hw : opt_.max_threads;
  }

  // ---- fast path (identical to SCQ modulo the pair layout) ----------------

  bool try_enq(u64 index, u64& tail_out) {
    WCQ_SCHED_POINT(kTailFaa);
    const u64 t = tail_.lo.fetch_add(1, std::memory_order_seq_cst);
    opcount::count_faa();
    tail_out = t;
    return enq_at(t, index, /*reset_thld=*/true);
  }

  DeqStatus try_deq(Handle& me, u64& index_out, u64& head_out) {
    WCQ_SCHED_POINT(kHeadFaa);
    const u64 h = head_.lo.fetch_add(1, std::memory_order_seq_cst);
    opcount::count_faa();
    head_out = h;
    return deq_at(me, h, index_out);
  }

  // Process one already-reserved tail rank. Batch enqueues reserve a span of
  // ranks with a single F&A and defer the threshold re-arm to the end of the
  // span (reset_thld=false); deferring is safe because the bulk call has not
  // returned, so a dequeuer reading the stale negative threshold linearizes
  // its "empty" before these enqueues (same argument as deviation 7).
  bool enq_at(u64 t, u64 index, bool reset_thld) {
    const u64 j = remap_(codec_.pos_of(t));
    const u64 cycle_t = codec_.cycle_of(t);
    u64 raw = entries_[j].lo.load(std::memory_order_acquire);
    for (;;) {
      const Entry e = codec_.unpack(raw);
      if (e.cycle < cycle_t &&
          (e.safe || head_.lo.load(std::memory_order_seq_cst) <= t) &&
          !codec_.is_live_index(e.index)) {
        // One-step insertion on the fast path: Enq=1 right away (Thm 5.9).
        const u64 fresh = codec_.pack(cycle_t, true, true, index);
        WCQ_SCHED_POINT(kEntryUpdate);
        if (!entries_[j].lo.compare_exchange_strong(
                raw, fresh, std::memory_order_seq_cst)) {
          continue;
        }
        dbg(kEvProducedFast, t, index);
        if (reset_thld) reset_threshold();
        return true;
      }
      return false;
    }
  }

  // Process one already-reserved head rank. Every reserved rank MUST pass
  // through here: a claimed rank whose slot holds a cycle-matching element is
  // the only dequeuer that will ever consume it (later cycles ⊥-mark or
  // unsafe-mark, never consume), so abandoning a reservation would leak the
  // element and its Fig 2 index forever.
  DeqStatus deq_at(Handle& me, u64 h, u64& index_out) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = entries_[j].lo.load(std::memory_order_acquire);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        assert(codec_.is_live_index(e.index) && "owner sees non-live index");
        consume(me, h, j, e);
        index_out = e.index;
        return DeqStatus::kOk;
      }
      u64 fresh;
      const bool live = codec_.is_live_index(e.index);
      if (!live) {
        fresh = codec_.pack(cycle_h, e.safe, true, codec_.bottom());
      } else {
        fresh = codec_.pack(e.cycle, false, e.enq, e.index);
      }
      if (e.cycle < cycle_h) {
        if (!entries_[j].lo.compare_exchange_strong(
                raw, fresh, std::memory_order_seq_cst)) {
          continue;
        }
        dbg(live ? kEvDeqUnsafeFast : kEvDeqBotMarkFast, h);
        const u64 t = tail_.lo.load(std::memory_order_seq_cst);
        if (t <= h + 1) {
          catchup(t, h + 1);
          WCQ_SCHED_POINT(kThresholdDec);
          threshold_.value.fetch_sub(1, std::memory_order_seq_cst);
          opcount::count_threshold();
          dbg(kEvDeqEmptyFast, h);
          return DeqStatus::kEmpty;
        }
      }
      opcount::count_threshold();
      WCQ_SCHED_POINT(kThresholdDec);
      if (threshold_.value.fetch_sub(1, std::memory_order_seq_cst) <= 0) {
        dbg(kEvDeqEmptyFast, h);
        return DeqStatus::kEmpty;
      }
      dbg(kEvDeqRetryFast, h);
      return DeqStatus::kRetry;
    }
  }

  void reset_threshold() {
    // The dirty pre-check is a heuristic that skips the seq_cst store when
    // the threshold is already re-armed; relaxed suffices for it. A skip is
    // taken only when the load returns threshold_max, a value some thread's
    // re-arm stored, and there are two ways that can be "wrong":
    //  * Staleness — reading a threshold_max that decrements have already
    //    buried. Coherent hardware does not produce this for a plain load
    //    (the load returns the line's current committed value); decrements
    //    landing after the read are indistinguishable from decrements
    //    landing right after a performed store, which the seq_cst version
    //    tolerates too.
    //  * Store-load reordering — on non-TSO ISAs the relaxed load may be
    //    satisfied while this thread's entry-publishing CAS still sits in
    //    the store buffer, so decrements by dequeuers that missed the
    //    not-yet-visible entry can predate the read. The skip then leaves
    //    the budget short by k, where k is bounded by the seq_cst RMWs
    //    other cores can complete inside one store-buffer drain window —
    //    a handful of contended line transfers, far under the ~n slack the
    //    3n-1 bound carries over the <= 2n failed probes needed to reach a
    //    present element (x86's locked CAS is a full fence: k = 0 there).
    // All cross-thread ordering still flows through the guarded store,
    // which stays seq_cst (Lemma 5.5 ordering); the L4 empty-window history
    // check is the regression net for this argument.
    if (threshold_.value.load(std::memory_order_relaxed) != threshold_max()) {
      WCQ_SCHED_POINT(kThresholdArm);
#if defined(WCQ_ANALYSIS_MUTATE_THRESHOLD)
      // Mutation self-test (DESIGN.md §11): model the re-arm downgraded to a
      // relaxed store whose visibility is delayed past the next scheduling
      // point. tests/analysis must catch the false-empty window this opens.
      analysis::mutate_deferred_store(&threshold_.value, threshold_max());
#else
      threshold_.value.store(threshold_max(), std::memory_order_seq_cst);
#endif
      opcount::count_threshold();
    }
  }

  void catchup(u64 tail, u64 head) {
    for (int i = 0; i < kCatchupMax; ++i) {
      WCQ_SCHED_POINT(kCatchup);
      if (tail_.lo.compare_exchange_strong(tail, head,
                                           std::memory_order_seq_cst)) {
        return;
      }
      // Relaxed re-loads (DESIGN.md §15 CATCHUP-RELOAD): these only steer a
      // bounded contention heuristic. A stale pair either retries the CAS —
      // which re-validates against the real Tail and publishes with seq_cst
      // — or exits early, and exiting early is always correct: catchup is
      // purely an optimization, the dequeuer's own path tolerates Tail
      // lagging Head.
      head = head_.lo.load(std::memory_order_relaxed);
      tail = tail_.lo.load(std::memory_order_relaxed);
      if (tail >= head) return;
    }
  }

  // ---- consume / finalize (Fig 5 lines 1-11) ------------------------------

  void consume(Handle& me, u64 h, u64 j, const Entry& e) {
    if (!e.enq) finalize_request(me, h);
    WCQ_SCHED_POINT(kEntryUpdate);
    entries_[j].lo.fetch_or(codec_.consume_mask(), std::memory_order_seq_cst);
    dbg(kEvConsumed, h, e.index);
  }

  // An entry produced by a slow-path enqueuer (Enq=0) is being consumed:
  // terminate that enqueuer's helpers by setting FIN on its local tail.
  // The scan bound is the *live* high_water — a session-cached snapshot is
  // not safe here: missing the enqueuer's record would leave its helpers
  // unterminated while the slot recycles, and they could re-produce the
  // element at a later rank (a duplicate). This path runs only when an
  // Enq=0 entry is consumed, i.e. once per slow-path enqueue, so the
  // lookup does not register on the per-op budget.
  void finalize_request(Handle& me, u64 h) {
    const unsigned self = me.tid_;
    const unsigned n = n_records();
    for (unsigned step = 1; step < n; ++step) {
      const unsigned i = (self + step) % n;
      std::atomic<u64>& lt = records_[i].local_tail;
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
    // bounded delay, so the helping bound is preserved.
    const unsigned n = n_records();
    if (rec.next_tid >= n) rec.next_tid = 0;
    ThreadRec& thr = records_[rec.next_tid];
    if (&thr != &rec && thr.pending.load(std::memory_order_acquire)) {
      if (thr.is_enqueue.load(std::memory_order_acquire)) {
        help_enqueue(me, thr);
      } else {
        help_dequeue(me, thr);
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
      enqueue_slow(me, tail, idx, thr, seq);
    }
  }

  void help_dequeue(Handle& me, ThreadRec& thr) {
    const u64 seq = thr.seq2.load(std::memory_order_acquire);
    const bool enq = thr.is_enqueue.load(std::memory_order_acquire);
    const u64 head = thr.init_head.load(std::memory_order_acquire);
    if (!enq && thr.seq1.load(std::memory_order_acquire) == seq) {
      dequeue_slow(me, head, thr, seq);
    }
  }

  // ---- slow path (Fig 7) ---------------------------------------------------

  void enqueue_slow(Handle& me, u64 t, u64 index, ThreadRec& rec, u64 seq) {
    u64 v = t;
    while (slow_faa(me, tail_, rec.local_tail, v, /*thld=*/nullptr, rec, seq,
                    /*init=*/t)) {
      if (try_enq_slow(v, index, rec)) break;
    }
  }

  void dequeue_slow(Handle& me, u64 h, ThreadRec& rec, u64 seq) {
    u64 v = h;
    while (slow_faa(me, head_, rec.local_head, v, &threshold_.value, rec, seq,
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
        if (!(e.safe || head_.lo.load(std::memory_order_seq_cst) <= t) ||
            codec_.is_live_index(e.index)) {
          // Unusable: watermark Note so every cooperating thread skips this
          // slot even if the condition later turns true for them.
          if (!EntryOps::update_note(entries_[j], pair, cycle_t)) continue;
          dbg(kEvEnqSlowAvert, t, rec_index(rec));
          return false;
        }
        // Produce the entry two-step: Enq=0 first.
        const Pair128 produced{codec_.pack(cycle_t, true, false, index),
                               note};
        if (!EntryOps::update_value(entries_[j], pair, produced.lo)) continue;
        dbg(kEvProducedSlow, t, index);
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
      if (e.cycle != cycle_t) {
        dbg(kEvEnqSlowFalse, t, rec_index(rec));
        return false;
      }
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
        if (!rec.local_head.compare_exchange_strong(
                expect, h | kFin, std::memory_order_seq_cst)) {
          dbg(kEvFinFail, h, expect);
        }
        dbg(kEvDeqSlowFinReady, h, rec_index(rec));
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
        dbg(live ? kEvDeqUnsafeSlow : kEvDeqBotMarkSlow, h);
      }
      const u64 t = tail_.lo.load(std::memory_order_seq_cst);
      if (t <= h + 1) {
        catchup(t, h + 1);
        WCQ_SCHED_POINT(kThresholdCheck);
        if (threshold_.value.load(std::memory_order_seq_cst) < 0) {
          u64 expect = h;
          WCQ_SCHED_POINT(kSlowLocal);
          if (!rec.local_head.compare_exchange_strong(
                  expect, h | kFin, std::memory_order_seq_cst) &&
              (expect & kFin) == 0) {
            dbg(kEvFinFail, h, expect);
            return false;  // group advanced; the request is not finished
          }
          dbg(kEvDeqSlowFinEmpty, h, rec_index(rec));
          return true;  // queue is empty
        }
      }
      dbg(kEvDeqSlowFalse, h, rec_index(rec));
      return false;
    }
  }

  // Fig 7 slow_F&A: a helped, two-phase replacement for F&A on the global
  // Head/Tail pair. All cooperating threads of one request agree on each
  // reserved counter value through the request's local word; the global
  // counter moves exactly once per reservation. On return `v` holds the
  // reserved counter (true) or the request is finished (false).
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
        u64 expect = v;
        WCQ_SCHED_POINT(kSlowLocal);
        if (local.compare_exchange_strong(expect, cnt | kInc,
                                          std::memory_order_seq_cst)) {
          dbg(kEvP1Adv, cnt, v);
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
          dbg(kEvReturnTrue, v, rec_index(req_rec));
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
        dbg(kEvPublishOk, cnt, rec_index(req_rec));
        // Exactly one thread reaches here per reservation: the threshold is
        // decremented once per global Head change (Lemma 5.6).
        if (thld != nullptr) {
          WCQ_SCHED_POINT(kThresholdDec);
          thld->fetch_sub(1, std::memory_order_seq_cst);
          opcount::count_threshold();
        }
        u64 e = cnt | kInc;
        WCQ_SCHED_POINT(kSlowLocal);
        if (local.compare_exchange_strong(e, cnt, std::memory_order_seq_cst)) {
          dbg(kEvP2Done, cnt);
        }
        Pair128 gexp{cnt + 1, make_ref(my, gen)};
        WCQ_SCHED_POINT(kSlowPublish);
        dwcas(global, gexp, Pair128{cnt + 1, 0});  // failure: others clear it
        v = cnt;
        dbg(kEvReturnTrue, v, rec_index(req_rec));
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
      Phase2Rec& p2 = records_[ref_tid(gref)].phase2;
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
          if (lp->compare_exchange_strong(expect, cnt,
                                          std::memory_order_seq_cst)) {
            dbg(kEvP2Done, cnt);
          }
        }
      }
      Pair128 gexp{gcnt, gref};
      dwcas(global, gexp, Pair128{gcnt, 0});
      // Loop: re-read; the reference is gone or the state moved on.
    }
  }

  static constexpr int kCatchupMax = 8;

  Options opt_;
  EntryCodec codec_;
  CacheRemap remap_;
  alignas(kDestructiveRange) AtomicPair128 tail_;
  char pad_t_[kDestructiveRange - sizeof(AtomicPair128)];
  AtomicPair128 head_;
  char pad_h_[kDestructiveRange - sizeof(AtomicPair128)];
  CacheAligned<std::atomic<i64>> threshold_;
  AlignedArray<AtomicPair128> entries_;
  AlignedArray<ThreadRec> records_;
};

// The paper's wCQ: CAS2-based entry updates (x86-64 / AArch64).
using WCQ = BasicWCQ<Cas2EntryOps>;

}  // namespace wcq
