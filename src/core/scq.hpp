// SCQ — the lock-free Scalable Circular Queue of Nikolaev (DISC'19), exactly
// as reproduced in the wCQ paper's Figure 3. It is both (a) the substrate
// wCQ's fast path is built from and (b) one of the benchmark subjects.
//
// SCQ is an index ring: it stores values in [0, capacity()) ("indices"),
// which in the full queue (core/bounded_queue.hpp, paper Fig 2) refer into a
// separate data array. The ring physically holds 2n slots but the caller
// must keep at most n = capacity() indices live — that invariant is what
// lets Enqueue skip full-queue checks and what makes the 3n-1 Threshold
// bound (paper §2) valid.
//
// One template, three rings (DESIGN.md §13). BasicScq<Producers, Consumers>
// is SCQ with some machinery deleted once a side has a single thread:
//
//   SCQ      : BasicScq<kMulti, kMulti>   Fig 3 verbatim.
//   MpscRing : BasicScq<kMulti, kSingle>  Peek-before-commit consumer: no
//              Head F&A, no threshold (member and all), no consume RMW, no
//              catchup. The producer side is SCQ's, minus the re-arm.
//   SpmcRing : BasicScq<kSingle, kMulti>  Tail reserved by a single-writer
//              store from max(Tail, Head) instead of the F&A; dequeuers keep
//              SCQ's machinery minus catchup; the re-arm is a release store.
//
// Each deletion is an `if constexpr` branch carrying its DESIGN.md argument
// id. The single side is enforced, not assumed: a SessionGuard binds the
// first thread through it and traps any second one. reset() and
// release_sessions() are the exclusive-access rebind points.
//
// Progress: operation-wise lock-free. Dequeue on an empty SCQ is O(1) after
// the Threshold short-circuit kicks in (the property behind Fig 11a); the
// MPSC consumer is O(1) on empty without one. The SPMC producer's
// reservation is wait-free (no rival can invalidate its Tail store).
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <type_traits>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "common/backoff.hpp"
#include "common/op_counters.hpp"
#include "core/entry.hpp"
#include "core/remap.hpp"
#include "core/session_guard.hpp"

namespace wcq {

// How many threads may drive one side of a ring.
enum Degree { kSingle, kMulti };

template <Degree Producers, Degree Consumers>
class BasicScq {
  static_assert(Producers == kMulti || Consumers == kMulti,
                "no SPSC ring: nothing instantiates one, so none is argued");

  static constexpr bool kMultiProducer = Producers == kMulti;
  static constexpr bool kMultiConsumer = Consumers == kMulti;
  static constexpr bool kGuarded = !(kMultiProducer && kMultiConsumer);
  static constexpr const char* kName = kMultiConsumer ? "SpmcRing"
                                                      : "MpscRing";

 public:
  // Session handle (DESIGN.md §10). The ring keeps no per-thread state — no
  // thread records, no registry use — so its handle is empty; it exists so
  // the Fig 2 layers can thread one handle type through any Ring uniformly.
  // A single side's owner lives in the SessionGuard (keyed by thread, not by
  // handle), so the same handle value cannot smuggle in a second owner.
  struct Handle {};

  Handle handle() { return Handle{}; }
  Handle handle_for(unsigned /*tid*/) { return Handle{}; }

  // `order`: capacity = 2^order indices; the ring allocates 2^(order+1)
  // slots. The paper's benchmark configuration is order 15 (2^16 slots).
  explicit BasicScq(unsigned order, bool cache_remap = true)
      : codec_(order),
        remap_(codec_.ring_size(), sizeof(std::atomic<u64>), cache_remap),
        entries_(codec_.ring_size(), kCacheLine) {
    reset();
    if constexpr (kMultiConsumer) {
      threshold_.value.store(-1, std::memory_order_release);  // publish
    }
  }

  BasicScq(const BasicScq&) = delete;
  BasicScq& operator=(const BasicScq&) = delete;

  u64 capacity() const { return codec_.half(); }
  u64 ring_size() const { return codec_.ring_size(); }

  // Inserts `index` (< capacity()). Never fails; the caller guarantees at
  // most capacity() live indices (Fig 2's fq/aq usage provides that).
  // A rank only fails while a dequeuer that ⊥-marked the target slot has
  // not yet caught up, so on oversubscribed hosts the retry loop must back
  // off to let that (descheduled) dequeuer run.
  void enqueue(u64 index) {
    Backoff bo;
    while (!enq_at(reserve(1), index, /*rearm=*/true)) bo.pause();
  }

  // Batch insert (DESIGN.md §7, the BasicWCQ contract): all `n` indices are
  // inserted. One reservation covers n consecutive ranks and the threshold is
  // re-armed once for the whole span; a rank whose slot is unusable is
  // abandoned (exactly as a failed single enqueue abandons its rank) and the
  // affected indices fall back to the single-op path. Deferring the re-arm
  // is safe for the same reason as in BasicWCQ: the bulk call has not
  // returned, so a dequeuer reading the stale negative threshold linearizes
  // its "empty" before these enqueues.
  void enqueue_bulk(const u64* indices, std::size_t n) {
    if (n == 0) return;
    if (n == 1) return enqueue(indices[0]);
    const u64 base = reserve(n);
    std::size_t done = 0;
    for (std::size_t k = 0; k < n && done < n; ++k) {
      if (enq_at(base + k, indices[done], /*rearm=*/false)) ++done;
    }
    reset_threshold();  // one re-arm for the whole span
    for (; done < n; ++done) enqueue(indices[done]);
  }

  // Removes and returns the oldest index, or nullopt when empty.
  std::optional<u64> dequeue() {
    if constexpr (kMultiConsumer) {
      WCQ_SCHED_POINT(kThresholdCheck);
      if (threshold_.value.load(std::memory_order_acquire) < 0) {
        return std::nullopt;  // empty fast-exit (Fig 3 line 7)
      }
      for (;;) {
        u64 index;
        switch (deq_at(claim(1), index)) {
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
      // zero threshold RMWs, the property bench/check_pipeline.py gates on.
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
      WCQ_SCHED_POINT(kThresholdCheck);
      if (threshold_.value.load(std::memory_order_acquire) < 0) {
        return 0;  // empty fast-exit, no ranks burned
      }
      if (n == 1) {
        const auto v = dequeue();
        if (!v) return 0;
        out[0] = *v;
        return 1;
      }
      // One Head F&A for the whole span; every reserved rank is processed
      // (see deq_at).
      const u64 base = claim(n);
      std::size_t got = 0;
      for (std::size_t k = 0; k < n; ++k) {
        u64 idx;
        if (deq_at(base + k, idx) == DeqStatus::kOk) out[got++] = idx;
      }
      return got;
    } else {
      // Peek-before-commit (§13 MPSC-HEAD): the consumer inspects rank Head
      // WITHOUT reserving it, so an empty probe burns nothing and needs no
      // threshold to stay O(1). Head has one writer, so a relaxed load and
      // ONE release store per span occupy the modification-order slot SCQ's
      // F&A would have; the store also publishes the dead ranks skipped on
      // an empty probe, so the next probe starts past them.
      guard_.enter(kName, "consumer");
      const u64 h0 = head_.value.load(std::memory_order_relaxed);
      u64 h = h0;
      std::size_t got = 0;
      while (got < n) {
        u64 index;
        const Step s = step_at(h, index);
        if (s == Step::kEmpty) break;
        if (s == Step::kGot) out[got++] = index;
        ++h;  // kGot and kSkip both advance past the rank
      }
      if (h != h0) head_.value.store(h, std::memory_order_release);
      return got;
    }
  }

  // Handle overloads: the handle is stateless, so these forward. They give
  // BoundedQueue one call shape across all Ring parameters.
  void enqueue(Handle&, u64 index) { enqueue(index); }
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
  // the ownership rebind point: a recycled ring's single side may be driven
  // by a different thread than the retired ring's.
  void reset() {
    for (u64 i = 0; i < codec_.ring_size(); ++i) {
      entries_[i].store(codec_.initial(), std::memory_order_relaxed);
    }
    tail_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    head_.value.store(codec_.ring_size(), std::memory_order_relaxed);
    if constexpr (kMultiConsumer) {
      threshold_.value.store(-1, std::memory_order_relaxed);  // empty
    }
    if constexpr (kGuarded) guard_.release();
  }

  // Clear session bindings without touching ring contents. Exclusive-access
  // only; lets ctor pre-fill, destructor and straggler-drain paths running
  // on an arbitrary thread adopt the single role
  // (BoundedQueue::destroy_stragglers).
  void release_sessions()
    requires kGuarded
  {
    guard_.release();
  }

  // --- introspection hooks (tests / benches) -------------------------------
  i64 threshold() const
    requires kMultiConsumer
  {
    return threshold_.value.load(std::memory_order_acquire);
  }
  u64 head() const { return head_.value.load(std::memory_order_acquire); }
  u64 tail() const { return tail_.value.load(std::memory_order_acquire); }

 private:
  enum class DeqStatus { kOk, kEmpty, kRetry };
  enum class Step { kGot, kEmpty, kSkip };
  struct Absent {};

  i64 threshold_max() const {
    // 3n - 1 for a 2n-slot ring holding at most n indices (paper §2).
    return static_cast<i64>(codec_.half() * 3 - 1);
  }

  // Reserves `n` consecutive Tail ranks (single and bulk enqueue share this)
  // and returns the first.
  u64 reserve(std::size_t n) {
    if constexpr (kMultiProducer) {
      WCQ_SCHED_POINT(kTailFaa);
      const u64 t = tail_.value.fetch_add(n, std::memory_order_seq_cst);
      opcount::count_faa();
      return t;
    } else {
      // §13 SPMC-TAIL: one writer, so a plain load + seq_cst store occupies
      // exactly the slot in Tail's modification order the F&A would have.
      // It stays seq_cst because dequeuers' emptiness check (deq_at's Tail
      // load) orders against it.
      //
      // §13 SPMC-CATCHUP: dequeuers may not write a producer-owned Tail, so
      // the producer runs catchup itself — reservation starts from
      // max(Tail, Head), or a drained ring would leave Head arbitrarily far
      // ahead and force a walk over every dead rank in between. Both loads
      // are relaxed (DESIGN.md §15 SPMC-SEED): Tail is producer-private, and
      // Head only seeds a starting rank — Head is monotonic, so a stale read
      // is merely lower, and every rank between a stale and the live Head
      // is dead: enq_at rejects it (⊥-mark/cycle check, with its own seq_cst
      // Head consultation on the unsafe arm) and the producer walks forward.
      // Wasted probes, never a wrong insert.
      guard_.enter(kName, "producer");
      u64 t = tail_.value.load(std::memory_order_relaxed);
      const u64 hd = head_.value.load(std::memory_order_relaxed);
      if (t < hd) t = hd;  // producer-side catchup: ranks below Head are dead
      WCQ_SCHED_POINT(kTailFaa);
      tail_.value.store(t + n, std::memory_order_seq_cst);
      return t;
    }
  }

  // Fig 3, try_enq after the reservation: process one reserved tail rank.
  // Returns true on success; false means "reserve again" (the slot was
  // unusable for this tail value). Bulk spans defer the re-arm to the end
  // of the span.
  //
  // The Head consultation on IsSafe=0 is shared by all three rings. With
  // one consumer it is dynamically dead (§13 MPSC-SAFE: that consumer never
  // strands a live older-cycle element, so it never clears IsSafe) but kept
  // byte-for-byte, so the §13 argument only reasons about consumer-side
  // deletions. With one producer the entry CAS still races consumers'
  // ⊥-marks and multi-consumer stripping is still live.
  bool enq_at(u64 t, u64 index, bool rearm) {
    const u64 j = remap_(codec_.pos_of(t));
    const u64 cycle_t = codec_.cycle_of(t);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      const Entry e = codec_.unpack(raw);
      if (e.cycle < cycle_t &&
          (e.safe || head_.value.load(std::memory_order_seq_cst) <= t) &&
          !codec_.is_live_index(e.index)) {
        const u64 fresh = codec_.pack(cycle_t, true, true, index);
        WCQ_SCHED_POINT(kEntryUpdate);
        if (!entries_[j].compare_exchange_strong(raw, fresh,
                                                 std::memory_order_seq_cst)) {
          continue;  // Fig 3 line 25: re-check with the observed entry
        }
        if (rearm) reset_threshold();
        return true;
      }
      return false;
    }
  }

  // Threshold re-arm. With one consumer there is nothing to re-arm
  // (§13 MPSC-THLD). Otherwise a relaxed dirty pre-check (DESIGN.md §15
  // THLD-PRECHECK): the same argument as BasicWCQ::reset_threshold's PR 4
  // downgrade, which this mirrors — the pre-check only *skips* the re-arm
  // when it reads threshold_max, a value some thread's re-arm stored;
  // staleness or store-buffer reordering can under-arm the budget by at
  // most the handful of seq_cst RMWs one drain window admits, well inside
  // the 3n-1 slack. All cross-thread ordering flows through the guarded
  // store.
  void reset_threshold() {
    if constexpr (kMultiConsumer) {
      if (threshold_.value.load(std::memory_order_relaxed) !=
          threshold_max()) {
        WCQ_SCHED_POINT(kThresholdArm);
        if constexpr (kMultiProducer) {
#if defined(WCQ_ANALYSIS_MUTATE_THRESHOLD)
          // Mutation self-test (DESIGN.md §11): model the re-arm downgraded
          // to a relaxed store whose visibility is delayed past the next
          // scheduling point. tests/analysis must catch the false-empty
          // window this opens.
          analysis::mutate_deferred_store(&threshold_.value, threshold_max());
#else
          threshold_.value.store(threshold_max(), std::memory_order_seq_cst);
#endif
        } else {
          // §15 SPMC-REARM: one producer ⇒ one writer of threshold_max, so
          // the store is downgraded seq_cst → release. Consumers only read
          // the threshold through seq_cst fetch_subs, and a fetch_sub that
          // reads-from this store synchronizes-with it, so the producer's
          // earlier entry publication (seq_cst CAS, sequenced-before the
          // store) is visible before any consumer can act on the re-armed
          // budget. A consumer that decrements *before* the store lands sees
          // the stale budget — a history seq_cst also admits (the store
          // merely lands later in S) and one the 3n-1 slack already
          // tolerates. On x86 this turns the re-arm's xchg into a plain mov.
#if defined(WCQ_ANALYSIS_MUTATE_RELAXED)
          // Mutation self-test: the argued release store over-weakened to a
          // relaxed store whose visibility is deferred past the next
          // scheduling point — the false-empty window the PCT explorer must
          // catch (the §15 falsifiability contract).
          analysis::mutate_deferred_store(&threshold_.value, threshold_max());
#else
          threshold_.value.store(threshold_max(), std::memory_order_release);
#endif
        }
        opcount::count_threshold();
      }
    }
  }

  // Fig 3, try_deq's rank reservation: one Head F&A for `n` ranks.
  u64 claim(std::size_t n) {
    WCQ_SCHED_POINT(kHeadFaa);
    const u64 h = head_.value.fetch_add(n, std::memory_order_seq_cst);
    opcount::count_faa();
    return h;
  }

  // Process one already-reserved head rank. As in BasicWCQ::deq_at, every
  // reserved rank MUST pass through here: a claimed rank whose slot holds a
  // cycle-matching element is the only dequeuer that will ever consume it,
  // so abandoning a reservation would leak the element forever.
  DeqStatus deq_at(u64 h, u64& index_out) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        // Our enqueuer arrived first: consume (atomic OR keeps Cycle/IsSafe).
        entries_[j].fetch_or(codec_.consume_mask(), std::memory_order_seq_cst);
        index_out = e.index;
        return DeqStatus::kOk;
      }
      u64 fresh;
      if (!codec_.is_live_index(e.index)) {
        // Mark the slot with our cycle so our (late) enqueuer skips it.
        fresh = codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom());
      } else {
        // An older-cycle element is still here; strip IsSafe so enqueuers
        // must consult Head before reusing the slot.
        fresh = codec_.pack(e.cycle, false, e.enq, e.index);
      }
      if (e.cycle < cycle_h) {
        if (!entries_[j].compare_exchange_strong(raw, fresh,
                                                 std::memory_order_seq_cst)) {
          continue;
        }
        const u64 t = tail_.value.load(std::memory_order_seq_cst);
        if (t <= h + 1) {
          // With one producer there is no catchup here (§13 SPMC-CATCHUP):
          // the producer pulls Tail forward itself on its next reservation.
          // The threshold decrement below is the emptiness accounting among
          // consumers, not part of catchup, so it stays.
          if constexpr (kMultiProducer) catchup(t, h + 1);
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

  // Fig 3, catchup: pull Tail forward to Head after draining past it. Purely
  // a contention optimization; iterations are capped (harmless, and wCQ
  // requires the cap for wait-freedom — paper §3.2 "Bounding catchup").
  void catchup(u64 tail, u64 head) {
    for (int i = 0; i < kCatchupMax; ++i) {
      WCQ_SCHED_POINT(kCatchup);
      if (tail_.value.compare_exchange_strong(tail, head,
                                              std::memory_order_seq_cst)) {
        return;
      }
      // Relaxed re-loads (DESIGN.md §15 CATCHUP-RELOAD): they only steer
      // this bounded heuristic — a stale pair either retries the CAS (which
      // re-validates and publishes with seq_cst) or exits early, and early
      // exit is always correct for a pure contention optimization.
      head = head_.value.load(std::memory_order_relaxed);
      tail = tail_.value.load(std::memory_order_relaxed);
      if (tail >= head) return;
    }
  }

  // The single consumer's step (§13): examine one head rank without having
  // reserved it. Outcomes:
  //   kGot   — rank held a live element for our cycle; it has been consumed
  //            and the caller must advance past the rank.
  //   kSkip  — rank is dead (superseded cycle, or ⊥-marked by us just now);
  //            advance past it and look at the next.
  //   kEmpty — Tail <= h with the rank unfilled: no completed-unconsumed
  //            enqueue exists, and Head must NOT advance — the rank stays
  //            claimable by a future enqueue. Head therefore never overshoots
  //            Tail, and there is nothing for catchup to pull forward
  //            (§13 MPSC-CATCHUP).
  Step step_at(u64 h, u64& index_out) {
    const u64 j = remap_(codec_.pos_of(h));
    const u64 cycle_h = codec_.cycle_of(h);
    u64 raw = entries_[j].load(std::memory_order_acquire);
    for (;;) {
      WCQ_SCHED_POINT(kEntryUpdate);
      const Entry e = codec_.unpack(raw);
      if (e.cycle == cycle_h) {
        if (codec_.is_live_index(e.index)) {
          // §13 MPSC-CONSUME: a (pos, cycle) rank has one eligible consumer
          // and producers refuse live slots (enq_at's !is_live_index arm),
          // so between our acquire load and this store nobody else can
          // write the slot: a plain release store replaces SCQ's fetch_or.
          entries_[j].store(
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
      // §13 MPSC-THLD: e.cycle < cycle_h, rank h's enqueuer has not
      // delivered. Decide empty-vs-late by Tail; the seq_cst load orders
      // against producers' seq_cst Tail F&As, so `tail <= h` proves no
      // completed-unconsumed enqueue exists. Emptiness is O(1) without the
      // 3n-1 counter, which is why the threshold is deleted.
      WCQ_SCHED_POINT(kThresholdCheck);
      if (tail_.value.load(std::memory_order_seq_cst) <= h) {
        return Step::kEmpty;
      }
#if defined(WCQ_ANALYSIS_MUTATE_MPSC)
      // Mutation self-test (DESIGN.md §13): skip the dead rank WITHOUT
      // ⊥-marking it. A descheduled rank-h producer can then land its
      // element behind Head where it is lost forever; tests/analysis must
      // catch the resulting non-linearizable empty.
      return Step::kSkip;
#else
      // §13 MPSC-DEADRANK: producers are already past this rank (Tail > h)
      // but rank h's owner may still land late; ⊥-mark the slot so it
      // cannot deliver behind Head. CAS, not a store: this is the one
      // consumer write that races a producer (the late owner landing right
      // now) — on failure re-examine, the element may have just arrived.
      const u64 dead = codec_.pack(cycle_h, e.safe, e.enq, codec_.bottom());
      if (entries_[j].compare_exchange_strong(raw, dead,
                                              std::memory_order_seq_cst,
                                              std::memory_order_acquire)) {
        return Step::kSkip;
      }
#endif
    }
  }

  static constexpr int kCatchupMax = 8;

  EntryCodec codec_;
  CacheRemap remap_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> tail_;
  // With one consumer, Head is consumer-private for writes and producers
  // read it only on the IsSafe=0 arm §13 shows unreachable; the separate
  // line keeps the consumer's publishes off Tail's line. With one producer,
  // Tail is the private one and consumers read it on the emptiness arm.
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> head_;
  // Deleted, member and all, with one consumer (§13 MPSC-THLD).
  alignas(kDestructiveRange) [[no_unique_address]] std::conditional_t<
      kMultiConsumer, CacheAligned<std::atomic<i64>>, Absent> threshold_;
  [[no_unique_address]] std::conditional_t<kGuarded, SessionGuard, Absent>
      guard_;
  AlignedArray<std::atomic<u64>> entries_;
};

// The three rings. Named classes rather than aliases, so each keeps its own
// type name wherever one is printed (typed-test ids, diagnostics); they add
// no members, so each has exactly its BasicScq's layout.
struct SCQ : BasicScq<kMulti, kMulti> {
  using BasicScq::BasicScq;
};
struct MpscRing : BasicScq<kMulti, kSingle> {
  using BasicScq::BasicScq;
};
struct SpmcRing : BasicScq<kSingle, kMulti> {
  using BasicScq::BasicScq;
};

}  // namespace wcq
