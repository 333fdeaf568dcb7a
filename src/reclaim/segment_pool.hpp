// Lock-free pooled reclamation for ring segments (DESIGN.md §8).
//
// UnboundedQueue retires one segment per 2^order dequeues and allocates one
// per 2^order enqueues on the growth path — a malloc/free pair whose cost
// dominates bounded-queue overheads once the rings themselves are fast
// (Aksenov et al., "Memory-Optimal Non-Blocking Queues"). This pool closes
// that loop: a retired segment, once its hazard-pointer grace period has
// passed, is reset and parked here instead of freed, and the next growth
// allocation takes it back. Steady-state operation becomes allocation-free.
//
// Shape: a fixed array of slots, each holding either null or one free node.
//   try_put — claim an empty slot with CAS(nullptr -> node)
//   try_get — claim a parked node with CAS(node -> nullptr)
// Both are single-CAS-per-slot bounded scans: lock-free, no node-internal
// free-list links, and — unlike a Treiber stack — no dereference of a node
// the caller does not yet own, so there is no ABA window and no dependence
// on the nodes' lifetimes (a popped node may be reused and even freed while
// another thread still scans; slots only ever hold whole pointers).
//
// Memory bound: the pool never holds more than cap() nodes, where cap is
// min(slot-array size, kPerThread * (registered threads + 1)), so total
// parked memory stays O(threads * segment size), preserving the paper's
// bounded-memory property (DESIGN.md §8). A put reserves its place in the
// size counter with one F&A before it claims a slot, so concurrent puts
// cannot overshoot the cap together (a check-then-put could, by one node
// per putting thread). Rejected puts are the caller's to free.
//
// Publication contract: try_put's successful CAS is a release store and
// try_get's claim is an acquire read of the same slot, so everything the
// putting thread wrote to the node (its reset) happens-before any access by
// the getting thread.
#pragma once

#include <atomic>
#include <cstddef>

#include "analysis/sched_point.hpp"
#include "common/align.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

template <typename Node>
class SegmentPool {
 public:
  // Upper bound on parked nodes per registered thread (the dynamic cap).
  static constexpr std::size_t kPerThread = 2;

  // `slots`: hard ceiling on parked nodes; the slot array is allocated once,
  // through the alloc meter (it is queue-owned memory and belongs in Fig 10).
  explicit SegmentPool(std::size_t slots = 64) : slots_(slots, kCacheLine) {}

  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  // Take a parked node by a bounded claim scan of the slots; nullptr when
  // the scan found none (the caller allocates).
  Node* try_get() {
    if (size_.load(std::memory_order_relaxed) == 0) return nullptr;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Node* n = slots_[i].value.load(std::memory_order_relaxed);
      WCQ_SCHED_POINT(kPoolOp);
      if (n != nullptr &&
          slots_[i].value.compare_exchange_strong(
              n, nullptr, std::memory_order_acquire,
              std::memory_order_relaxed)) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        return n;
      }
    }
    return nullptr;
  }

  // Park `n`; false when the pool is at its cap — the caller frees the
  // node. On success the pool owns the node until a try_get claims it.
  //
  // Reserve-then-claim: the F&A admits at most cap() reservations at once
  // (a racer that lands past the cap undoes its own), and only a reserved
  // put may park, so parked ≤ cap() holds at every instant.
  bool try_put(Node* n) {
    if (size_.load(std::memory_order_relaxed) >= cap()) return false;
    if (size_.fetch_add(1, std::memory_order_relaxed) >= cap()) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Node* expected = nullptr;
      WCQ_SCHED_POINT(kPoolOp);
      if (slots_[i].value.load(std::memory_order_relaxed) == nullptr &&
          slots_[i].value.compare_exchange_strong(
              expected, n, std::memory_order_release,
              std::memory_order_relaxed)) {
        return true;
      }
    }
    size_.fetch_sub(1, std::memory_order_relaxed);  // scan claimed no slot
    return false;
  }

  // Parked-node cap: scales with the registered-thread high water so idle
  // retention is O(threads), bounded by the slot array.
  std::size_t cap() const {
    const std::size_t dynamic =
        kPerThread * (static_cast<std::size_t>(ThreadRegistry::high_water()) + 1);
    return dynamic < slots_.size() ? dynamic : slots_.size();
  }

  // Approximate count of parked nodes (exact at quiescence; counts puts
  // that have reserved but not yet parked).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  // Empty the pool through `release` (e.g. Node::destroy). Quiescent-only:
  // the owning queue's destructor calls this after draining reclamation.
  template <typename F>
  void drain(F&& release) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Node* n = slots_[i].value.exchange(nullptr, std::memory_order_acquire);
      if (n != nullptr) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        release(n);
      }
    }
  }

 private:
  AlignedArray<CacheAligned<std::atomic<Node*>>> slots_;
  alignas(kCacheLine) std::atomic<std::size_t> size_{0};
};

}  // namespace wcq
