// LCRQ — Morrison & Afek's linked concurrent ring queue (PPoPP'13), the
// strongest lock-free baseline in the paper's evaluation.
//
// A CRQ is a livelock-prone F&A ring: Enqueue F&As Tail and CAS2-publishes
// {epoch-index, value} into the slot; Dequeue F&As Head and either consumes
// the slot or advances its epoch so the late enqueuer fails. When an
// enqueuer starves (or the ring fills) it *closes* the CRQ (a bit on Tail)
// and appends a fresh one to a Michael&Scott-style outer list — which is
// exactly the memory-usage weakness Fig 10 exposes: every close strands a
// 2^12-slot ring until the dequeuers drain past it.
//
// Slot layout (16 bytes, CAS2):
//   lo: [63] unsafe flag, [62:0] idx (the epoch: slot serves rank idx)
//   hi: value, or kEmptyVal when vacant
//
// Reclamation: hazard pointers on the outer list (as in the paper's setup),
// in a domain the queue owns; ring allocation goes through the alloc meter
// so Fig 10 sees it, retire bookkeeping included.
#pragma once

#include <atomic>
#include <optional>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "common/dwcas.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class LCRQ {
 public:
  // Paper/author default: rings of 2^12 slots.
  explicit LCRQ(unsigned ring_order = 12) : ring_order_(ring_order) {
    CRQ* first = CRQ::create(ring_order_);
    head_.value.store(first, std::memory_order_relaxed);
    tail_.value.store(first, std::memory_order_relaxed);
  }

  ~LCRQ() {
    CRQ* c = head_.value.load(std::memory_order_relaxed);
    while (c != nullptr) {
      CRQ* next = c->next.load(std::memory_order_relaxed);
      CRQ::destroy(c);
      c = next;
    }
  }

  LCRQ(const LCRQ&) = delete;
  LCRQ& operator=(const LCRQ&) = delete;

  bool enqueue(u64 value) {
    auto& row = *hp_.slots_for(ThreadRegistry::tid());
    for (;;) {
      CRQ* crq = HazardDomain::protect(row, 0, tail_.value);
      if (crq->next.load(std::memory_order_acquire) != nullptr) {
        // Tail lags: help swing it.
        CRQ* expected = crq;
        tail_.value.compare_exchange_strong(
            expected, crq->next.load(std::memory_order_acquire),
            std::memory_order_seq_cst);
        continue;
      }
      if (crq->enqueue(value)) {
        HazardDomain::clear(row, 0);
        return true;
      }
      // CRQ closed: append a fresh ring seeded with our value.
      CRQ* fresh = CRQ::create(ring_order_);
      (void)fresh->enqueue(value);  // empty open ring: cannot fail
      CRQ* expected = nullptr;
      if (crq->next.compare_exchange_strong(expected, fresh,
                                            std::memory_order_seq_cst)) {
        tail_.value.compare_exchange_strong(crq, fresh,
                                            std::memory_order_seq_cst);
        HazardDomain::clear(row, 0);
        return true;
      }
      CRQ::destroy(fresh);  // somebody else appended first; retry there
    }
  }

  std::optional<u64> dequeue() {
    const unsigned tid = ThreadRegistry::tid();
    auto& row = *hp_.slots_for(tid);
    for (;;) {
      CRQ* crq = HazardDomain::protect(row, 0, head_.value);
      u64 value;
      if (crq->dequeue(value)) {
        HazardDomain::clear(row, 0);
        return value;
      }
      // This ring is drained. If no successor, the queue is empty.
      CRQ* next = crq->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        HazardDomain::clear(row, 0);
        return std::nullopt;
      }
      // A successor exists, so the ring is closed, but an enqueue may have
      // landed between our EMPTY verdict and the close. Morrison & Afek's
      // LCRQ dequeue (PPoPP'13) tries the CRQ once more before swinging
      // head; unlinking it first would strand that element.
      if (crq->dequeue(value)) {
        HazardDomain::clear(row, 0);
        return value;
      }
      CRQ* expected = crq;
      if (head_.value.compare_exchange_strong(expected, next,
                                              std::memory_order_seq_cst)) {
        HazardDomain::clear(row, 0);
        hp_.retire(tid, crq, [](void* p, void*) {
          CRQ::destroy(static_cast<CRQ*>(p));
        }, nullptr);
      }
    }
  }

 private:
  struct CRQ {
    static constexpr u64 kUnsafe = u64{1} << 63;
    static constexpr u64 kIdxMask = kUnsafe - 1;
    static constexpr u64 kClosed = u64{1} << 63;  // on tail_counter
    static constexpr u64 kEmptyVal = ~u64{0};
    static constexpr int kStarvation = 16;  // failed F&As before closing

    alignas(kDestructiveRange) std::atomic<u64> head_counter;
    alignas(kDestructiveRange) std::atomic<u64> tail_counter;  // [63]=closed
    alignas(kDestructiveRange) std::atomic<CRQ*> next;
    u64 size;  // number of slots (power of two)
    // slots[] trails the header (flexible layout via create()).

    AtomicPair128* slots() {
      return reinterpret_cast<AtomicPair128*>(this + 1);
    }

    static CRQ* create(unsigned order) {
      const u64 n = u64{1} << order;
      // CRQ is over-aligned (alignas(kDestructiveRange) members): plain
      // malloc's max_align_t guarantee is not enough.
      void* mem = alloc_meter::allocate_aligned(
          sizeof(CRQ) + n * sizeof(AtomicPair128), alignof(CRQ));
      CRQ* c = new (mem) CRQ();
      c->head_counter.store(0, std::memory_order_relaxed);
      c->tail_counter.store(0, std::memory_order_relaxed);
      c->next.store(nullptr, std::memory_order_relaxed);
      c->size = n;
      for (u64 i = 0; i < n; ++i) {
        // Slot i initially serves rank i and is vacant.
        c->slots()[i].lo.store(i, std::memory_order_relaxed);
        c->slots()[i].hi.store(kEmptyVal, std::memory_order_relaxed);
      }
      return c;
    }

    static void destroy(CRQ* c) {
      const u64 n = c->size;
      c->~CRQ();
      alloc_meter::deallocate_aligned(c, sizeof(CRQ) + n * sizeof(AtomicPair128));
    }

    // False = closed (caller appends a new CRQ).
    bool enqueue(u64 value) {
      int tries = kStarvation;
      for (;;) {
        const u64 raw_t =
            tail_counter.fetch_add(1, std::memory_order_seq_cst);
        if ((raw_t & kClosed) != 0) return false;
        const u64 t = raw_t & ~kClosed;
        AtomicPair128& slot = slots()[t & (size - 1)];
        const u64 word = slot.lo.load(std::memory_order_acquire);
        const u64 val = slot.hi.load(std::memory_order_acquire);
        const u64 idx = word & kIdxMask;
        const bool safe = (word & kUnsafe) == 0;
        if (val == kEmptyVal && idx <= t &&
            (safe || head_counter.load(std::memory_order_seq_cst) <= t)) {
          Pair128 expected{word, kEmptyVal};
          if (dwcas(slot, expected, Pair128{t, value})) {
            return true;
          }
        }
        const u64 h = head_counter.load(std::memory_order_seq_cst);
        if (t >= h + size || --tries <= 0) {
          tail_counter.fetch_or(kClosed, std::memory_order_seq_cst);
          return false;
        }
      }
    }

    // False = empty transition for the *ring* (drained to its tail).
    bool dequeue(u64& out) {
      for (;;) {
        const u64 h = head_counter.fetch_add(1, std::memory_order_seq_cst);
        AtomicPair128& slot = slots()[h & (size - 1)];
        for (;;) {
          const u64 word = slot.lo.load(std::memory_order_acquire);
          const u64 val = slot.hi.load(std::memory_order_acquire);
          const u64 idx = word & kIdxMask;
          const u64 unsafe_bit = word & kUnsafe;
          if (idx > h) break;  // slot already serves a later rank
          if (val != kEmptyVal) {
            if (idx == h) {
              // Consume: advance the slot to the next epoch.
              Pair128 expected{word, val};
              if (dwcas(slot, expected,
                        Pair128{unsafe_bit | (h + size), kEmptyVal})) {
                out = val;
                return true;
              }
            } else {
              // Old undequeued value: mark unsafe so its enqueuer's rank
              // cannot be re-served, then move on.
              Pair128 expected{word, val};
              if (dwcas(slot, expected, Pair128{kUnsafe | idx, val})) break;
            }
          } else {
            // Vacant: advance epoch so the rank-h enqueuer fails.
            Pair128 expected{word, kEmptyVal};
            if (dwcas(slot, expected,
                      Pair128{unsafe_bit | (h + size), kEmptyVal})) {
              break;
            }
          }
        }
        const u64 raw_t = tail_counter.load(std::memory_order_seq_cst);
        const u64 t = raw_t & ~kClosed;
        if (t <= h + 1) {
          fix_state();
          return false;
        }
      }
    }

    // LCRQ's fixState: pull Tail up to Head after dequeuers overshoot, so
    // future enqueues do not spin through consumed ranks.
    void fix_state() {
      for (;;) {
        const u64 h = head_counter.load(std::memory_order_seq_cst);
        u64 raw_t = tail_counter.load(std::memory_order_seq_cst);
        if ((raw_t & ~kClosed) >= h) return;
        if (tail_counter.compare_exchange_strong(
                raw_t, (raw_t & kClosed) | h, std::memory_order_seq_cst)) {
          return;
        }
      }
    }
  };

  unsigned ring_order_;
  // Retired rings are off the list; the domain's destructor frees them.
  HazardDomain hp_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<CRQ*>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<CRQ*>> tail_;
};

}  // namespace wcq
