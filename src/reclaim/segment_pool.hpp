// Lock-free pooled reclamation for ring segments (DESIGN.md §8, §12).
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
// NUMA partitioning (DESIGN.md §12): the slot array is split into
// `numa_nodes` contiguous partitions. Puts and gets are keyed by node and
// stay within its partition, so a segment whose backing store was
// first-touched on node k is recycled to node-k threads and never silently
// migrates its pages across the interconnect through the free list. A full
// partition rejects the put even when another partition has room — the
// caller frees the segment, which is exactly the §8 overflow behavior; the
// memory bound is node-count-independent. A one-partition pool is the flat
// pool: node 0's scan covers the whole array.
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
  // `numa_nodes`: number of contiguous partitions (1 = the flat pool); a
  // partition may be empty when slots < numa_nodes, in which case that
  // node's puts are rejected (freed) and gets miss (allocate) — correct,
  // just uncached.
  explicit SegmentPool(std::size_t slots = 64, unsigned numa_nodes = 1)
      : slots_(slots, kCacheLine),
        psize_(numa_nodes == 0 ? 1 : numa_nodes, kCacheLine),
        parts_(numa_nodes == 0 ? 1 : numa_nodes) {}

  SegmentPool(const SegmentPool&) = delete;
  SegmentPool& operator=(const SegmentPool&) = delete;

  unsigned partitions() const { return parts_; }

  // Take a parked node from `node`'s partition only, by a bounded claim
  // scan of its slots. A miss does NOT mean the whole pool is empty — the
  // caller allocates locally rather than adopting a remote segment.
  Node* try_get(unsigned node) {
    const unsigned p = node < parts_ ? node : 0;
    if (psize_[p].value.load(std::memory_order_relaxed) == 0) return nullptr;
    if (size_.load(std::memory_order_relaxed) == 0) return nullptr;
    for (std::size_t i = lo(p); i < hi(p); ++i) {
      Node* n = slots_[i].value.load(std::memory_order_relaxed);
      WCQ_SCHED_POINT(kPoolOp);
      if (n != nullptr &&
          slots_[i].value.compare_exchange_strong(
              n, nullptr, std::memory_order_acquire,
              std::memory_order_relaxed)) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        psize_[p].value.fetch_sub(1, std::memory_order_relaxed);
        return n;
      }
    }
    return nullptr;
  }

  // Park `n` in `node`'s partition only; false when that partition (or the
  // global cap) is full — the caller frees the node. On success the pool
  // owns the node until a try_get claims it.
  //
  // Reserve-then-claim: the F&A admits at most cap() reservations at once
  // (a racer that lands past the cap undoes its own), and only a reserved
  // put may park, so parked ≤ cap() holds at every instant.
  bool try_put(unsigned node, Node* n) {
    const unsigned p = node < parts_ ? node : 0;
    if (size_.load(std::memory_order_relaxed) >= cap()) return false;
    if (size_.fetch_add(1, std::memory_order_relaxed) >= cap()) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    for (std::size_t i = lo(p); i < hi(p); ++i) {
      Node* expected = nullptr;
      WCQ_SCHED_POINT(kPoolOp);
      if (slots_[i].value.load(std::memory_order_relaxed) == nullptr &&
          slots_[i].value.compare_exchange_strong(
              expected, n, std::memory_order_release,
              std::memory_order_relaxed)) {
        psize_[p].value.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    size_.fetch_sub(1, std::memory_order_relaxed);  // partition full
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

  // Approximate count parked in `node`'s partition (exact at quiescence).
  std::size_t size(unsigned node) const {
    const unsigned p = node < parts_ ? node : 0;
    return psize_[p].value.load(std::memory_order_relaxed);
  }

  // Empty the pool through `release` (e.g. Node::destroy). Quiescent-only:
  // the owning queue's destructor calls this after draining reclamation.
  template <typename F>
  void drain(F&& release) {
    for (unsigned p = 0; p < parts_; ++p) {
      for (std::size_t i = lo(p); i < hi(p); ++i) {
        Node* n = slots_[i].value.exchange(nullptr, std::memory_order_acquire);
        if (n != nullptr) {
          size_.fetch_sub(1, std::memory_order_relaxed);
          psize_[p].value.fetch_sub(1, std::memory_order_relaxed);
          release(n);
        }
      }
    }
  }

 private:
  std::size_t lo(unsigned p) const { return p * slots_.size() / parts_; }
  std::size_t hi(unsigned p) const {
    return (p + 1) * slots_.size() / parts_;
  }

  AlignedArray<CacheAligned<std::atomic<Node*>>> slots_;
  AlignedArray<CacheAligned<std::atomic<std::size_t>>> psize_;
  unsigned parts_ = 1;
  alignas(kCacheLine) std::atomic<std::size_t> size_{0};
};

}  // namespace wcq
