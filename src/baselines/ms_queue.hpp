// MSQueue — Michael & Scott's classic lock-free FIFO queue (1996/1998),
// one of the paper's baselines (§6: "well-known ... not very performant").
//
// A singly-linked list with a dummy head node. Enqueue CASes the tail node's
// next pointer and swings Tail; Dequeue swings Head. Both operations sit in
// CAS loops on two contended words, which is exactly the scaling behavior
// the F&A-based queues in this repository improve on.
//
// Reclamation: hazard pointers (as in the paper's evaluation) in a domain
// the queue owns; nodes are allocated through the alloc meter so MSQueue's
// footprint, retire bookkeeping included, shows up in the Fig 10 memory
// benchmark.
#pragma once

#include <atomic>
#include <optional>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class MSQueue {
 public:
  MSQueue() {
    Node* dummy = alloc_meter::create<Node>(u64{0});
    head_.value.store(dummy, std::memory_order_relaxed);
    tail_.value.store(dummy, std::memory_order_relaxed);
  }

  ~MSQueue() {
    Node* n = head_.value.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      alloc_meter::destroy(n);
      n = next;
    }
  }

  MSQueue(const MSQueue&) = delete;
  MSQueue& operator=(const MSQueue&) = delete;

  bool enqueue(u64 value) {
    Node* node = alloc_meter::create<Node>(value);
    auto& row = *hp_.slots_for(ThreadRegistry::tid());
    for (;;) {
      Node* tail = HazardDomain::protect(row, 0, tail_.value);
      Node* next = tail->next.load(std::memory_order_acquire);
      if (tail != tail_.value.load(std::memory_order_acquire)) continue;
      if (next != nullptr) {
        // Tail is lagging: help swing it.
        tail_.value.compare_exchange_strong(tail, next,
                                            std::memory_order_seq_cst);
        continue;
      }
      Node* expected = nullptr;
      if (tail->next.compare_exchange_strong(expected, node,
                                             std::memory_order_seq_cst)) {
        tail_.value.compare_exchange_strong(tail, node,
                                            std::memory_order_seq_cst);
        HazardDomain::clear(row, 0);
        return true;
      }
    }
  }

  std::optional<u64> dequeue() {
    const unsigned tid = ThreadRegistry::tid();
    auto& row = *hp_.slots_for(tid);
    for (;;) {
      Node* head = HazardDomain::protect(row, 0, head_.value);
      Node* tail = tail_.value.load(std::memory_order_acquire);
      Node* next = HazardDomain::protect(row, 1, head->next);
      if (head != head_.value.load(std::memory_order_acquire)) continue;
      if (next == nullptr) {
        HazardDomain::clear(row, 0);
        HazardDomain::clear(row, 1);
        return std::nullopt;  // empty
      }
      if (head == tail) {
        // Tail lagging behind a non-empty list: help.
        tail_.value.compare_exchange_strong(tail, next,
                                            std::memory_order_seq_cst);
        continue;
      }
      const u64 value = next->value;  // read before CAS frees the slot
      if (head_.value.compare_exchange_strong(head, next,
                                              std::memory_order_seq_cst)) {
        HazardDomain::clear(row, 0);
        HazardDomain::clear(row, 1);
        hp_.retire(tid, head, [](void* p, void*) {
          alloc_meter::destroy(static_cast<Node*>(p));
        }, nullptr);
        return value;
      }
    }
  }

 private:
  struct alignas(kCacheLine) Node {
    explicit Node(u64 v) : value(v) {}
    u64 value;
    std::atomic<Node*> next{nullptr};
  };

  // Retired nodes are off the list; the domain's destructor frees them.
  HazardDomain hp_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Node*>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Node*>> tail_;
};

}  // namespace wcq
