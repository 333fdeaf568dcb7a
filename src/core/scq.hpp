// SCQ — the lock-free Scalable Circular Queue of Nikolaev (DISC'19), exactly
// as reproduced in the wCQ paper's Figure 3. It is both (a) wCQ's fast path
// (core/wcq.hpp builds on the MPMC arms below) and (b) one of the benchmark
// subjects.
//
// SCQ is an index ring: it stores values in [0, capacity()) ("indices"),
// which in the full queue (core/bounded_queue.hpp, paper Fig 2) refer into a
// separate data array. The ring physically holds 2n slots but the caller
// must keep at most n = capacity() indices live — that invariant is what
// lets Enqueue skip full-queue checks and what makes the 3n-1 Threshold
// bound (paper §2) valid.
//
// One template, three rings (DESIGN.md §13). BasicScq<Consumers> is SCQ,
// with some machinery deleted once the consumer side has a single thread:
//
//   SCQ      : BasicScq<kMulti>   Fig 3 verbatim.
//   MpscRing : BasicScq<kSingle>  Peek-before-commit consumer: no Head F&A,
//              no threshold (member and all), no consume RMW, no catchup.
//              A bulk span that holds elements stops at an undelivered
//              rank instead of ⊥-marking it; only a consumer holding
//              nothing marks. The producer side is SCQ's, minus the re-arm.
//   BasicWCQ : BasicScq<kMulti, PairSlots>, privately. wCQ's fast path is
//              SCQ's; its entries and Head/Tail are {Value, Note} pairs its
//              slow path CAS2s, and the fast path touches only the first
//              word of each (Fig 7: "use only .cnt for fast paths").
//
// Each deletion is an `if constexpr` branch carrying its DESIGN.md argument
// id. The single consumer is enforced, not assumed: a SessionGuard binds
// the first thread through it and traps any second one. reset() and
// release_sessions() are the exclusive-access rebind points.
//
// Progress: operation-wise lock-free. Dequeue on an empty SCQ is O(1) after
// the Threshold short-circuit kicks in (the property behind Fig 11a); the
// MPSC consumer is O(1) on empty without one.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <optional>
#include <type_traits>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/dwcas.hpp"
#include "common/op_counters.hpp"
#include "core/entry.hpp"
#include "core/remap.hpp"
#include "core/session_guard.hpp"

// Rank tap for the rank-accounting test (tests/test_wcq_accounting.cpp): each
// produce and consume reports the Head/Tail counter value ("rank") it used.
// Compiled in only when the including TU defines WCQ_TEST_RANK_HOOK(kind,
// rank) before any include; kind is the token `produced` or `consumed`.
// Elsewhere it expands to nothing, so no build carries a hook check.
#if defined(WCQ_TEST_RANK_HOOK)
#define WCQ_RANK_EVENT(kind, rank) WCQ_TEST_RANK_HOOK(kind, rank)
#else
#define WCQ_RANK_EVENT(kind, rank) ((void)0)
#endif

namespace wcq {

// How many threads may drive a ring's consumer side.
enum Degree {
  kSingle,  // exactly one, bound by a SessionGuard
  kMulti,
};

// Entry and counter layouts. SCQ keeps one word per entry and per Head/Tail
// counter. wCQ pairs each with a second word its slow path CAS2s together
// with the first: an entry's Note (Fig 4) and a counter's phase-2 tag
// (Fig 7). The fast path reads and writes the first word only.
struct WordSlots {
  using Slot = std::atomic<u64>;
};
struct PairSlots {
  using Slot = AtomicPair128;
};

template <Degree Consumers, typename Slots = WordSlots>
class BasicScq {
  static constexpr bool kMultiConsumer = Consumers == kMulti;
  static constexpr bool kPairSlots = std::is_same_v<Slots, PairSlots>;
  static_assert(!kPairSlots || kMultiConsumer,
                "pair entries are wCQ's, and wCQ is MPMC: no single-consumer "
                "arm is argued for the two-word layout");

  using Slot = typename Slots::Slot;

 public:
  // Session handle (DESIGN.md §10). The ring keeps no per-thread state — no
  // thread records, no registry use — so its handle is empty; it exists so
  // the Fig 2 layers can thread one handle type through any Ring uniformly.
  // The single consumer lives in the SessionGuard (keyed by thread, not by
  // handle), so the same handle value cannot smuggle in a second owner.
  struct Handle {};

  Handle handle() { return Handle{}; }
  Handle handle_for(unsigned /*tid*/) { return Handle{}; }

  // `order`: capacity = 2^order indices; the ring allocates 2^(order+1)
  // slots. The paper's benchmark configuration is order 15 (2^16 slots).
  explicit BasicScq(unsigned order, bool cache_remap = true)
      : codec_(order),
        remap_(codec_.ring_size(), sizeof(Slot), cache_remap),
        entries_(codec_.ring_size(), kCacheLine) {
    reset();
    if constexpr (kMultiConsumer) {
      threshold_.value.store(-1, std::memory_order_release);  // publish
    }
  }

  BasicScq(const BasicScq&) = delete;
  BasicScq& operator=(const BasicScq&) = delete;

  u64 capacity() const { return codec_.half(); }
  // Metered bytes the ring allocated: its entries.
  std::size_t heap_bytes() const { return entries_.bytes(); }
  u64 ring_size() const { return codec_.ring_size(); }
  // Whether Cache_Remap spreads consecutive ranks over lines (false when
  // built flat, or when the whole ring fits one line).
  bool cache_remap() const { return remap_.enabled(); }

  // Inserts `index` (< capacity()); the caller guarantees at most
  // capacity() live indices (Fig 2's fq/aq usage provides that). Fails only
  // on a finalized ring (finalize() below). A rank only fails while a
  // dequeuer that ⊥-marked the target slot has not yet caught up, so on
  // oversubscribed hosts the retry loop must back off to let that
  // (descheduled) dequeuer run.
  bool enqueue(u64 index) {
    Backoff bo;
    for (u64 t; reserve(1, t); bo.pause()) {
      if (enq_at(t, index, /*rearm=*/true)) return true;
    }
    return false;
  }

  // Batch insert (DESIGN.md §7, the BasicWCQ contract): on a ring that is
  // never finalized all `n` indices are inserted; the ranks enq_span could
  // not use fall back to the single-op path.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    if (n == 1) {
      enqueue(indices[0]);
      return;
    }
    for (std::size_t done = enq_span(indices, n); done < n; ++done) {
      enqueue(indices[done]);
    }
  }

  // Removes and returns the oldest index, or nullopt when empty.
  std::optional<u64> dequeue() {
    if constexpr (kMultiConsumer) {
      if (threshold_empty()) return std::nullopt;  // Fig 3 line 7
      for (;;) {
        u64 index;
        switch (deq_at(claim(1), index, kEnqAlwaysSet)) {
          case DeqStatus::kOk:
            return index;
          case DeqStatus::kEmpty:
            return std::nullopt;
          case DeqStatus::kRetry:
            break;
        }
      }
    } else {
      // The single consumer's dequeue is a one-element span: zero F&As and
      // zero threshold RMWs, the property the bench pipeline gate checks.
      u64 index;
      if (dequeue_bulk(&index, 1) == 0) return std::nullopt;
      return index;
    }
  }

  // Batch remove (DESIGN.md §7): pops up to `n` indices into `out`. Returns
  // the number actually dequeued; fewer than n does not imply emptiness (a
  // rank can be contended away, the same transient a single-op retry
  // absorbs) — partial success is the batch contract.
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    if (n == 0) return 0;
    if constexpr (kMultiConsumer) {
      if (threshold_empty()) return 0;  // no ranks burned
      if (n == 1) {
        const auto v = dequeue();
        if (!v) return 0;
        out[0] = *v;
        return 1;
      }
      return deq_span(out, n, kEnqAlwaysSet);
    } else {
      // Peek-before-commit (§13 MPSC-HEAD): the consumer inspects rank Head
      // WITHOUT reserving it, so an empty probe burns nothing and needs no
      // threshold to stay O(1). Head has one writer, so a relaxed load and
      // ONE release store per span occupy the modification-order slot SCQ's
      // F&A would have; the store also publishes the dead ranks skipped on
      // an empty probe, so the next probe starts past them. A span that
      // already holds elements stops at an undelivered rank (§13 MPSC-STOP).
      guard_.enter("MpscRing");
      const u64 h0 = word(head_.value).load(std::memory_order_relaxed);
      u64 h = h0;
      std::size_t got = 0;
      while (got < n) {
        u64 index;
        const Step s = step_at(h, index, /*holding=*/got != 0);
        if (s == Step::kStop) break;
        if (s == Step::kGot) out[got++] = index;
        ++h;  // kGot and kSkip both advance past the rank
      }
      if (h != h0) word(head_.value).store(h, std::memory_order_release);
      return got;
    }
  }

  // Handle overloads: the handle is stateless, so these forward. They give
  // BoundedQueue one call shape across all Ring parameters.
  bool enqueue(Handle&, u64 index) { return enqueue(index); }
  std::optional<u64> dequeue(Handle&) { return dequeue(); }
  void enqueue_bulk(Handle&, const u64* indices, std::size_t n) {
    enqueue_bulk(indices, n);
  }
  std::size_t dequeue_bulk(Handle&, u64* out, std::size_t n) {
    return dequeue_bulk(out, n);
  }

  // Re-initialize the ring to its freshly-constructed (empty) state so it can
  // be reused, e.g. by a recycled UnboundedQueue segment (DESIGN.md §8).
  //
  // Precondition: the caller has exclusive access — no concurrent operation
  // is in flight and none can start until the reset is published (the segment
  // pool provides this via hazard-pointer grace + release/acquire hand-off).
  // All stores are relaxed; the publishing edge belongs to the caller. Also
  // the ownership rebind point: a recycled ring's single consumer may be a
  // different thread than the retired ring's.
  void reset() {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      init(entries_[i], codec_.initial());
    }
    init(tail_.value, codec_.ring_size());
    init(head_.value, codec_.ring_size());
    if constexpr (kMultiConsumer) {
      threshold_.value.store(-1, std::memory_order_relaxed);  // empty
    } else {
      guard_.release();
    }
  }

  // Appendix A's finalize, as in LSCQ: set FIN in Tail's counter word.
  // Every reservation drawn after it fails, so the ring takes no new
  // element. A rank drawn before it is consumed or ⊥-marked by the
  // dequeuer that claims it, and a ⊥-marked enqueuer reserves again, meets
  // FIN and fails. Any producer may call it, any number of times; reset()
  // reopens the ring.
  void finalize() {
    word(tail_.value).fetch_or(kTailFin, std::memory_order_seq_cst);
  }

  // Threshold re-arm, after an insert and before UnboundedQueue's drain
  // pass over a finalized segment. With one consumer there is nothing to
  // re-arm (§13 MPSC-THLD). Otherwise a relaxed dirty pre-check (DESIGN.md
  // §15 THLD-PRECHECK): it only *skips* the re-arm when it reads
  // threshold_max, a value some thread's re-arm stored. Staleness is not
  // produced by coherent hardware for a plain load; store-buffer
  // reordering (non-TSO ISAs: the entry-publishing CAS still buffered) can
  // under-arm the budget by at most the handful of seq_cst RMWs one drain
  // window admits, well inside the 3n-1 slack (x86's locked CAS is a full
  // fence: none there). All cross-thread ordering flows through the
  // guarded store; the L4 empty-window history check is the regression
  // net.
  void reset_threshold() {
    if constexpr (kMultiConsumer) {
      if (threshold_.value.load(std::memory_order_relaxed) !=
          threshold_max()) {
        WCQ_SCHED_POINT(kThresholdArm);
#if defined(WCQ_ANALYSIS_MUTATE_THRESHOLD)
        // Mutation self-test (DESIGN.md §11, §15): model the re-arm
        // downgraded to a relaxed store whose visibility is delayed past the
        // next scheduling point. tests/analysis must catch the false-empty
        // window this opens.
        analysis::mutate_deferred_store(&threshold_.value, threshold_max());
#else
        threshold_.value.store(threshold_max(), std::memory_order_seq_cst);
#endif
        opcount::count_threshold();
      }
    }
  }

  // Clear the consumer binding without touching ring contents.
  // Exclusive-access only; lets destructor and straggler-drain paths running
  // on an arbitrary thread adopt the single consumer
  // (BoundedQueue::destroy_stragglers).
  void release_sessions()
    requires(!kMultiConsumer)
  {
    guard_.release();
  }

  // --- introspection hooks (tests / benches) -------------------------------
  i64 threshold() const
    requires kMultiConsumer
  {
    return threshold_.value.load(std::memory_order_acquire);
  }
  u64 head() const { return word(head_.value).load(std::memory_order_acquire); }
  u64 tail() const {
    return word(tail_.value).load(std::memory_order_acquire) & ~kTailFin;
  }

  // BasicWCQ (core/wcq.hpp) builds its slow path on the MPMC arms below and
  // on the ring state itself.
 protected:
  // finalize()'s bit in Tail's counter word; counters stay below 2^62.
  static constexpr u64 kTailFin = u64{1} << 63;

  enum class DeqStatus { kOk, kEmpty, kRetry };
  enum class Step { kGot, kStop, kSkip };
  struct Absent {};

  // deq_at's pre-consume hook for SCQ: SCQ produces every entry with Enq=1
  // (entry.hpp), so the hook, which runs only on Enq=0, is never reached.
  static constexpr auto kEnqAlwaysSet = [](u64 /*rank*/) {};

  // The word of a slot or counter the fast path uses: the whole word, or a
  // pair's first.
  template <typename S>
  static auto& word(S& s) {
    if constexpr (kPairSlots) {
      return s.lo;
    } else {
      return s;
    }
  }

  // Relaxed (exclusive-access) initial store; a pair's second word starts
  // at 0: Note "never" for an entry, no phase-2 tag for a counter.
  static void init(Slot& s, u64 v) {
    word(s).store(v, std::memory_order_relaxed);
    if constexpr (kPairSlots) s.hi.store(0, std::memory_order_relaxed);
  }

  i64 threshold_max() const {
    // 3n - 1 for a 2n-slot ring holding at most n indices (paper §2).
    return static_cast<i64>(codec_.half() * 3 - 1);
  }

  // Fig 3 line 7's empty fast-exit: a negative threshold means no dequeuer
  // can find an element, so none need reserve a rank to look.
  bool threshold_empty() const {
    WCQ_SCHED_POINT(kThresholdCheck);
    return threshold_.value.load(std::memory_order_acquire) < 0;
  }

  // Reserves `n` consecutive Tail ranks (single and bulk enqueue share this)
  // into `first`; false when the F&A drew a FIN'd Tail, so the ring is
  // closed and the ranks are not the caller's.
  bool reserve(std::size_t n, u64& first) {
    WCQ_SCHED_POINT(kTailFaa);
    first = word(tail_.value).fetch_add(n, std::memory_order_seq_cst);
    opcount::count_faa();
#if defined(WCQ_ANALYSIS_MUTATE_FIN)
    // Mutation self-test (tests/analysis/test_mutation_fin.cpp): ignore FIN
    // and use the rank, so a late enqueuer can land its element in a segment
    // that dequeuers already drained and unlinked.
    first &= ~kTailFin;
    return true;
#else
    return (first & kTailFin) == 0;
#endif
  }

  // Fig 3, try_enq after the reservation: process one reserved tail rank.
  // Returns true on success; false means "reserve again" (the slot was
  // unusable for this tail value). Bulk spans defer the re-arm to the end
  // of the span. The fast path inserts in one step, Enq=1 right away
  // (wCQ Thm 5.9).
  //
  // The Head consultation on IsSafe=0 is shared by all rings. With one
  // consumer it is dynamically dead (§13 MPSC-SAFE: that consumer never
  // strands a live older-cycle element, so it never clears IsSafe) but kept
  // byte-for-byte, so the §13 argument only reasons about consumer-side
  // deletions.
  bool enq_at(u64 t, u64 index, bool rearm) {
    const u64 j = remap_(codec_.pos_of(t));
    const u64 cycle_t = codec_.cycle_of(t);
    u64 raw = word(entries_[j]).load(std::memory_order_acquire);
    for (;;) {
      const Entry e = codec_.unpack(raw);
      if (e.cycle < cycle_t &&
          (e.safe || word(head_.value).load(std::memory_order_seq_cst) <= t) &&
          !codec_.is_live_index(e.index)) {
        const u64 fresh = codec_.pack(cycle_t, true, true, index);
        WCQ_SCHED_POINT(kEntryUpdate);
        if (!word(entries_[j]).compare_exchange_strong(
                raw, fresh, std::memory_order_seq_cst)) {
          continue;  // Fig 3 line 25: re-check with the observed entry
        }
        WCQ_RANK_EVENT(produced, t);
        if (rearm) reset_threshold();
        return true;
      }
      return false;
    }
  }

  // Enqueue span (DESIGN.md §7): one reservation covers n consecutive ranks
  // and the threshold is re-armed once for the whole span. A rank whose slot
  // is unusable is abandoned, exactly as a failed single enqueue abandons
  // its rank. Returns how many of `indices` landed (a prefix); the caller
  // inserts the rest through its own single-op path. Deferring the re-arm
  // is safe because the bulk call has not returned, so a dequeuer reading
  // the stale negative threshold linearizes its "empty" before these
  // enqueues (the argument of wCQ deviation 7, DESIGN.md §3).
  std::size_t enq_span(const u64* indices, std::size_t n) {
    u64 base;
    if (!reserve(n, base)) return 0;
    std::size_t done = 0;
    for (std::size_t k = 0; k < n && done < n; ++k) {
      if (enq_at(base + k, indices[done], /*rearm=*/false)) ++done;
    }
    reset_threshold();  // one re-arm for the whole span
    return done;
  }

  // Fig 3, try_deq's rank reservation: one Head F&A for `n` ranks.
  u64 claim(std::size_t n) {
    WCQ_SCHED_POINT(kHeadFaa);
    const u64 h = word(head_.value).fetch_add(n, std::memory_order_seq_cst);
    opcount::count_faa();
    return h;
  }

  // Process one already-reserved head rank. Every reserved rank MUST pass
  // through here: a claimed rank whose slot holds a cycle-matching element
  // is the only dequeuer that will ever consume it (later cycles ⊥-mark or
  // unsafe-mark, never consume), so abandoning a reservation would leak the
  // element and its Fig 2 index forever. `pre_consume` is consume's hook.
  template <typename PreConsume>
  DeqStatus deq_at(u64 h, u64& index_out, PreConsume& pre_consume) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = word(entries_[j]).load(std::memory_order_acquire);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        // Our enqueuer arrived first.
        assert(codec_.is_live_index(e.index) && "owner sees non-live index");
        consume(h, j, e, pre_consume);
        index_out = e.index;
        return DeqStatus::kOk;
      }
      u64 fresh;
      if (!codec_.is_live_index(e.index)) {
        // Mark the slot with our cycle so our (late) enqueuer skips it. A ⊥
        // has no slow-path request to finalize, so its Enq bit is 1.
        fresh = codec_.pack(cycle_h, e.safe, true, codec_.bottom());
      } else {
        // An older-cycle element is still here; strip IsSafe so enqueuers
        // must consult Head before reusing the slot.
        fresh = codec_.pack(e.cycle, false, e.enq, e.index);
      }
      if (e.cycle < cycle_h) {
        if (!word(entries_[j]).compare_exchange_strong(
                raw, fresh, std::memory_order_seq_cst)) {
          continue;
        }
        const u64 t = tail_rank();
        if (t <= h + 1) {
          catchup(t, h + 1);
          WCQ_SCHED_POINT(kThresholdDec);
          threshold_.value.fetch_sub(1, std::memory_order_seq_cst);
          opcount::count_threshold();
          return DeqStatus::kEmpty;
        }
      }
      opcount::count_threshold();
      WCQ_SCHED_POINT(kThresholdDec);
      if (threshold_.value.fetch_sub(1, std::memory_order_seq_cst) <= 0) {
        return DeqStatus::kEmpty;
      }
      return DeqStatus::kRetry;
    }
  }

  // Dequeue span (DESIGN.md §7): one Head F&A for `n` ranks; every reserved
  // rank is processed (see deq_at). Returns the number of indices written.
  template <typename PreConsume>
  std::size_t deq_span(u64* out, std::size_t n, PreConsume& pre_consume) {
    const u64 base = claim(n);
    std::size_t got = 0;
    for (std::size_t k = 0; k < n; ++k) {
      u64 idx;
      if (deq_at(base + k, idx, pre_consume) == DeqStatus::kOk) {
        out[got++] = idx;
      }
    }
    return got;
  }

  // Consume the element rank h found in slot j: an atomic OR of ⊥c keeps
  // Cycle/IsSafe (Fig 3 line 12, Fig 5 consume). An Enq=0 entry was produced
  // by a wCQ slow-path enqueuer whose request must be finalized before the
  // slot can recycle (Fig 5 lines 2-3): `pre_consume(h)` does that. With
  // pair entries a scheduling point separates that step from the OR.
  template <typename PreConsume>
  void consume(u64 h, u64 j, const Entry& e, PreConsume& pre_consume) {
    if (!e.enq) pre_consume(h);
    if constexpr (kPairSlots) WCQ_SCHED_POINT(kEntryUpdate);
    word(entries_[j]).fetch_or(codec_.consume_mask(),
                               std::memory_order_seq_cst);
    WCQ_RANK_EVENT(consumed, h);
  }

  // Tail's rank, FIN masked off: what every comparison with Head reads.
  u64 tail_rank() const {
    return word(tail_.value).load(std::memory_order_seq_cst) & ~kTailFin;
  }

  // Fig 3, catchup: pull Tail forward to Head after draining past it. Purely
  // a contention optimization; iterations are capped (harmless, and wCQ
  // requires the cap for wait-freedom — paper §3.2 "Bounding catchup").
  // It never clears FIN: `tail` is a masked rank, so the CAS fails against
  // a FIN'd Tail, and the unmasked reload compares above any Head.
  void catchup(u64 tail, u64 head) {
    for (int i = 0; i < kCatchupMax; ++i) {
      WCQ_SCHED_POINT(kCatchup);
      if (word(tail_.value).compare_exchange_strong(
              tail, head, std::memory_order_seq_cst)) {
        return;
      }
      // Relaxed re-loads (DESIGN.md §15 CATCHUP-RELOAD): they only steer
      // this bounded heuristic — a stale pair either retries the CAS (which
      // re-validates and publishes with seq_cst) or exits early, and early
      // exit is always correct for a pure contention optimization.
      head = word(head_.value).load(std::memory_order_relaxed);
      tail = word(tail_.value).load(std::memory_order_relaxed);
      if (tail >= head) return;
    }
  }

  // The single consumer's step (§13): examine one head rank without having
  // reserved it. `holding` says the caller's span already holds elements.
  // Outcomes:
  //   kGot  — rank held a live element for our cycle; it has been consumed
  //           and the caller must advance past the rank.
  //   kSkip — rank is dead (superseded cycle, or ⊥-marked by us just now);
  //           advance past it and look at the next.
  //   kStop — rank unfilled, and either the span is `holding` (§13
  //           MPSC-STOP: the call returns what it has, the rank's enqueuer
  //           may still land) or Tail <= h (no completed-unconsumed enqueue
  //           exists). Head must NOT advance: the rank stays claimable.
  //           Head therefore never overshoots Tail, and there is nothing
  //           for catchup to pull forward (§13 MPSC-CATCHUP).
  Step step_at(u64 h, u64& index_out, bool holding) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = word(entries_[j]).load(std::memory_order_acquire);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        if (codec_.is_live_index(e.index)) {
          // §13 MPSC-CONSUME: a (pos, cycle) rank has one eligible consumer
          // and producers refuse live slots (enq_at's !is_live_index arm),
          // so between our acquire load and this store nobody else can
          // write the slot: a plain release store replaces SCQ's fetch_or.
          word(entries_[j]).store(
              codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom_c()),
              std::memory_order_release);
          index_out = e.index;
          return Step::kGot;
        }
        return Step::kSkip;  // our own earlier ⊥-mark; nothing can land now
      }
      if (e.cycle > cycle_h) {
        // The slot was reused for a later cycle, which proves every rank of
        // our cycle at this position is dead.
        return Step::kSkip;
      }
      // e.cycle < cycle_h: rank h's enqueuer has not delivered. §13
      // MPSC-STOP: a span holding elements ends here, unmarked and without
      // reading Tail, since empty or late it would stop anyway.
      if (holding) return Step::kStop;
      // §13 MPSC-THLD: decide empty-vs-late by Tail; the seq_cst load
      // orders against producers' seq_cst Tail F&As, so `tail <= h` proves
      // no completed-unconsumed enqueue exists. Emptiness is O(1) without
      // the 3n-1 counter, which is why the threshold is deleted.
      WCQ_SCHED_POINT(kThresholdCheck);
      if (tail_rank() <= h) return Step::kStop;
#if defined(WCQ_ANALYSIS_MUTATE_MPSC)
      // Mutation self-test (DESIGN.md §13): skip the dead rank WITHOUT
      // ⊥-marking it. A descheduled rank-h producer can then land its
      // element behind Head where it is lost forever; tests/analysis must
      // catch the resulting non-linearizable empty.
      return Step::kSkip;
#else
      // §13 MPSC-DEADRANK: the span holds nothing, producers are already
      // past this rank (Tail > h), but rank h's owner may still land late;
      // ⊥-mark the slot so it cannot deliver behind Head. CAS, not a store:
      // this is the one consumer write that races a producer (the late
      // owner landing right now) — on failure re-examine, the element may
      // have just arrived.
      const u64 dead = codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom());
      if (word(entries_[j]).compare_exchange_strong(
              raw, dead, std::memory_order_seq_cst,
              std::memory_order_acquire)) {
        opcount::count_mpsc_dead_rank();
        return Step::kSkip;
      }
#endif
    }
  }

  static constexpr int kCatchupMax = 8;

  EntryCodec codec_;
  CacheRemap remap_;
  // Read-mostly, so it shares the line before Tail with the codec. That
  // also leaves the ring's tail padding free for BasicWCQ's members, which
  // keeps wCQ the same size as SCQ.
  AlignedArray<Slot> entries_;
  alignas(kDestructiveRange) CacheAligned<Slot> tail_;
  // With one consumer, Head is consumer-private for writes and producers
  // read it only on the IsSafe=0 arm §13 shows unreachable; the separate
  // line keeps the consumer's publishes off Tail's line.
  alignas(kDestructiveRange) CacheAligned<Slot> head_;
  // Deleted, member and all, with one consumer (§13 MPSC-THLD).
  alignas(kDestructiveRange) [[no_unique_address]] std::conditional_t<
      kMultiConsumer, CacheAligned<std::atomic<i64>>, Absent> threshold_;
  [[no_unique_address]] std::conditional_t<kMultiConsumer, Absent,
                                           SessionGuard>
      guard_;
};

// The two SCQ rings. Named classes rather than aliases, so each keeps its
// own type name wherever one is printed (typed-test ids, diagnostics); they
// add no members, so each has exactly its BasicScq's layout.
struct SCQ : BasicScq<kMulti> {
  using BasicScq::BasicScq;
};
struct MpscRing : BasicScq<kSingle> {
  using BasicScq::BasicScq;
};

}  // namespace wcq
