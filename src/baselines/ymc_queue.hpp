// YMCQueue — a Yang & Mellor-Crummey-style queue (PPoPP'16), the paper's
// main wait-free comparison point.
//
// YMC realizes the "infinite array queue" (paper Fig 1) directly: a linked
// list of fixed-size segments forms a conceptually infinite cell array;
// Enqueue F&As a global enqueue index (Ei) and CASes its value into cell i,
// Dequeue F&As a dequeue index (Di) and either takes the value or poisons
// the cell (⊤) so the late enqueuer retries at a later rank.
//
// Reproduction notes (DESIGN.md §4): the original's wait-free slow path
// (enqueue/dequeue request descriptors + peer helping) is replaced by
// lock-free retry. Segment reclamation keeps the original's handle-scan
// scheme in its simplest form: each thread publishes the lowest segment id
// its in-flight operation may touch, and the reclaimer frees unlinked
// segments only below every published id. (Per-segment hazard pointers are
// not enough here: a walk that protects `seg->next` validates it against a
// link that unlinking never clears, so the next segment can already be
// freed.) What the wCQ paper's evaluation depends on is preserved:
//   * F&A-class throughput — the fast path is YMC's fast path verbatim;
//   * segment churn and reclamation lag visible to the Fig 10 memory bench
//     (segments allocate as indices advance and free only once every
//     in-flight operation has moved past them), including the headline
//     weakness: a stalled thread inside an operation pins segments and
//     retired memory indefinitely.
//
// Cell states: kBot (vacant) / kTop (poisoned) / value. Segments are
// allocated via the alloc meter (Fig 10).
#pragma once

#include <atomic>
#include <optional>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class YMCQueue {
 public:
  static constexpr unsigned kSegOrder = 10;  // 1024 cells/segment (as in YMC)
  static constexpr u64 kSegCells = u64{1} << kSegOrder;

  YMCQueue() {
    Segment* s = Segment::create(0);
    first_seg_.store(s, std::memory_order_relaxed);
    first_id_.store(0, std::memory_order_relaxed);
    limbo_ = s;
    for (auto& r : reserved_) r.value.store(kIdle, std::memory_order_relaxed);
  }

  ~YMCQueue() {
    Segment* s = limbo_;
    while (s != nullptr) {
      Segment* next = s->next.load(std::memory_order_relaxed);
      Segment::destroy(s);
      s = next;
    }
  }

  YMCQueue(const YMCQueue&) = delete;
  YMCQueue& operator=(const YMCQueue&) = delete;

  bool enqueue(u64 value) {
    std::atomic<u64>& res = reserved_[ThreadRegistry::tid()].value;
    Segment* seg = begin_op(res);
    for (;;) {
      const u64 i = ei_.value.fetch_add(1, std::memory_order_seq_cst);
      seg = walk_to(seg, i >> kSegOrder);
      std::atomic<u64>& cell = seg->cells[i & (kSegCells - 1)];
      u64 expected = kBot;
      if (cell.compare_exchange_strong(expected, value,
                                       std::memory_order_seq_cst)) {
        res.store(kIdle, std::memory_order_release);
        return true;
      }
      // Cell poisoned by an overshooting dequeuer; take the next rank.
    }
  }

  std::optional<u64> dequeue() {
    std::atomic<u64>& res = reserved_[ThreadRegistry::tid()].value;
    Segment* seg = begin_op(res);
    for (;;) {
      const u64 i = di_.value.fetch_add(1, std::memory_order_seq_cst);
      seg = walk_to(seg, i >> kSegOrder);
      std::atomic<u64>& cell = seg->cells[i & (kSegCells - 1)];
      // Give an in-flight enqueuer of this rank a brief chance, then poison.
      u64 v = cell.load(std::memory_order_acquire);
      for (int spin = 0; v == kBot && spin < kSpinBeforePoison; ++spin) {
        v = cell.load(std::memory_order_acquire);
      }
      if (v == kBot) {
        u64 expected = kBot;
        if (!cell.compare_exchange_strong(expected, kTop,
                                          std::memory_order_seq_cst)) {
          v = expected;  // the enqueuer won the race after all
        } else {
          v = kTop;
        }
      }
      if (v != kTop) {
        res.store(kIdle, std::memory_order_release);
        maybe_reclaim(i);
        return v;
      }
      // Poisoned a vacant cell: if no enqueuer is ahead, report empty and
      // pull Ei forward (the fixState analogue) so enqueuers do not crawl
      // rank-by-rank through poisoned cells.
      u64 e = ei_.value.load(std::memory_order_seq_cst);
      if (e <= i + 1) {
        while (e < i + 1 && !ei_.value.compare_exchange_weak(
                                e, i + 1, std::memory_order_seq_cst)) {
        }
        res.store(kIdle, std::memory_order_release);
        maybe_reclaim(i);
        return std::nullopt;
      }
    }
  }

  // Test hook: number of segments currently linked.
  u64 live_segments() const {
    u64 n = 0;
    for (Segment* s = first_seg_.load(std::memory_order_acquire); s != nullptr;
         s = s->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

 private:
  static constexpr u64 kBot = ~u64{0};
  static constexpr u64 kTop = ~u64{0} - 1;
  static constexpr int kSpinBeforePoison = 64;
  static constexpr u64 kReclaimMask = 4 * kSegCells - 1;  // scan cadence
  static constexpr u64 kIdle = ~u64{0};  // reservation of a thread not in an op

  struct Segment {
    u64 id;
    std::atomic<Segment*> next{nullptr};
    std::atomic<u64> cells[kSegCells];

    static Segment* create(u64 seg_id) {
      Segment* s =
          static_cast<Segment*>(alloc_meter::allocate(sizeof(Segment)));
      s->id = seg_id;
      new (&s->next) std::atomic<Segment*>(nullptr);
      for (u64 i = 0; i < kSegCells; ++i) {
        s->cells[i].store(kBot, std::memory_order_relaxed);
      }
      return s;
    }
    static void destroy(Segment* s) {
      alloc_meter::deallocate(s, sizeof(Segment));
    }
  };

  // Publish this operation's reservation, then return its start segment.
  // The reservation is first_id_ as read before the start segment, so it
  // is at most the start segment's id, and the reclaimer frees nothing at
  // or above it until the operation stores kIdle. The fence pairs with
  // maybe_reclaim's: either the start-segment load sees that round's
  // unlink, or that round's scan sees this reservation.
  Segment* begin_op(std::atomic<u64>& res) {
    const u64 first = first_id_.load(std::memory_order_acquire);
    res.store(first, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return first_seg_.load(std::memory_order_acquire);
  }

  // Walk to segment `want`, allocating missing segments at the end of the
  // list. Every segment from the start segment on stays allocated while the
  // caller's reservation is published, linked or not.
  Segment* walk_to(Segment* seg, u64 want) {
    while (seg->id < want) {
      Segment* next = seg->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        Segment* fresh = Segment::create(seg->id + 1);
        if (seg->next.compare_exchange_strong(next, fresh,
                                              std::memory_order_seq_cst)) {
          next = fresh;
        } else {
          Segment::destroy(fresh);  // `next` now holds the winner
        }
      }
      seg = next;
    }
    return seg;
  }

  // Unlink every segment both indices have moved past, then free the
  // unlinked ones below every published reservation. Runs at a coarse
  // cadence under a CAS lock, so a stalled in-flight operation pins memory
  // — YMC's documented reclamation weakness.
  void maybe_reclaim(u64 rank) {
    if ((rank & kReclaimMask) != 0) return;
    bool expected = false;
    if (!reclaiming_.value.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      return;
    }
    u64 min_id = ei_.value.load(std::memory_order_seq_cst) >> kSegOrder;
    const u64 di_id = di_.value.load(std::memory_order_seq_cst) >> kSegOrder;
    if (di_id < min_id) min_id = di_id;
    Segment* s = first_seg_.load(std::memory_order_acquire);
    while (s->id < min_id) {
      Segment* next = s->next.load(std::memory_order_acquire);
      if (next == nullptr) break;
      first_seg_.store(next, std::memory_order_seq_cst);
      first_id_.store(next->id, std::memory_order_seq_cst);
      s = next;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);  // see begin_op
    u64 keep = s->id;
    const unsigned threads = ThreadRegistry::high_water();
    for (unsigned t = 0; t < threads; ++t) {
      const u64 r = reserved_[t].value.load(std::memory_order_acquire);
      if (r < keep) keep = r;
    }
    while (limbo_->id < keep) {
      Segment* next = limbo_->next.load(std::memory_order_relaxed);
      Segment::destroy(limbo_);
      limbo_ = next;
    }
    reclaiming_.value.store(false, std::memory_order_release);
  }

  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> ei_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<u64>> di_;
  alignas(kDestructiveRange) std::atomic<Segment*> first_seg_;
  std::atomic<u64> first_id_;
  CacheAligned<std::atomic<bool>> reclaiming_;
  // Oldest segment not yet freed: the unlinked prefix runs from here to
  // first_seg_. Touched only under reclaiming_ and by the ctor/dtor.
  Segment* limbo_;
  // Per-thread reservations, indexed by ThreadRegistry tid.
  CacheAligned<std::atomic<u64>> reserved_[ThreadRegistry::kMaxThreads];
};

}  // namespace wcq
