// CRTurnQueue — a Ramalhete & Correia-style "turn" queue, the paper's
// truly-wait-free-but-slow baseline (§6), and the outer-layer algorithm the
// appendix uses to chain wCQ rings into an unbounded queue.
//
// Enqueue is the turn-based wait-free protocol exactly as sketched in the
// paper's Fig 13 (adapted from rings back to single-item nodes): a thread
// publishes its node in enqueuers[tid]; every enqueuer (a) clears the
// satisfied request of the node currently at Tail, (b) picks the next
// pending request round-robin starting *after* the Tail node's enqueuer id
// (the "turn"), (c) CASes it as Tail->next and swings Tail. Each round
// appends at least one request and the turn ordering reaches every pending
// request within NUM_THRDS appends, which bounds the loop.
//
// Reproduction note (DESIGN.md §4): the original's dequeue side (deqself /
// deqhelp assignment with giveUp cancellation) is replaced by a lock-free
// Michael&Scott-style dequeue. The original sources are unavailable offline
// and the cancellation protocol is not reconstructible from the paper text
// alone; the substitution preserves what the evaluation measures — a
// CAS-per-operation queue with no F&A scaling, an order of magnitude below
// the ring-based queues.
//
// Reclamation: hazard pointers in a domain the queue owns; nodes allocated
// via the alloc meter.
#pragma once

#include <atomic>
#include <optional>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "common/backoff.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

class CRTurnQueue {
 public:
  CRTurnQueue() {
    Node* dummy = alloc_meter::create<Node>(u64{0}, 0u);
    head_.value.store(dummy, std::memory_order_relaxed);
    tail_.value.store(dummy, std::memory_order_relaxed);
    for (auto& e : enqueuers_) {
      e.value.store(nullptr, std::memory_order_relaxed);
    }
  }

  ~CRTurnQueue() {
    Node* n = head_.value.load(std::memory_order_relaxed);
    while (n != nullptr) {
      Node* next = n->next.load(std::memory_order_relaxed);
      alloc_meter::destroy(n);
      n = next;
    }
  }

  CRTurnQueue(const CRTurnQueue&) = delete;
  CRTurnQueue& operator=(const CRTurnQueue&) = delete;

  bool enqueue(u64 value) {
    const unsigned tid = ThreadRegistry::tid();
    auto& row = *hp_.slots_for(tid);
    Node* my = alloc_meter::create<Node>(value, tid);
    enqueuers_[tid].value.store(my, std::memory_order_seq_cst);

    // One high-water read bounds the help rounds and each round's turn scan.
    const unsigned n = ThreadRegistry::high_water();
    for (unsigned i = 0; i < n + 2; ++i) {
      if (enqueuers_[tid].value.load(std::memory_order_seq_cst) == nullptr) {
        break;  // our node was appended (and its request cleared)
      }
      help_append_one(row, n);
    }
    // The turn argument bounds the loop above; the guard below only spins if
    // that bound was computed against a stale thread high-water mark, so it
    // reads a fresh one each round. Each help round that swings Tail is
    // progress this thread drives itself, so back off only when a round
    // leaves Tail unchanged (the blocked-on-a-descheduled-peer case).
    Backoff bo;
    Node* last_tail = tail_.value.load(std::memory_order_seq_cst);
    while (enqueuers_[tid].value.load(std::memory_order_seq_cst) != nullptr) {
      help_append_one(row, ThreadRegistry::high_water());
      Node* t = tail_.value.load(std::memory_order_seq_cst);
      if (t == last_tail) {
        bo.pause();
      } else {
        last_tail = t;
        bo.reset();
      }
    }
    HazardDomain::clear(row, 0);
    return true;
  }

  std::optional<u64> dequeue() {
    const unsigned tid = ThreadRegistry::tid();
    auto& row = *hp_.slots_for(tid);
    for (;;) {
      Node* lhead = HazardDomain::protect(row, 0, head_.value);
      Node* ltail = tail_.value.load(std::memory_order_acquire);
      Node* lnext = HazardDomain::protect(row, 1, lhead->next);
      if (lhead != head_.value.load(std::memory_order_acquire)) continue;
      if (lnext == nullptr) {
        HazardDomain::clear(row, 0);
        HazardDomain::clear(row, 1);
        return std::nullopt;
      }
      if (lhead == ltail) {
        // Keep the MS invariant head <= tail before removing lnext.
        tail_.value.compare_exchange_strong(ltail, lnext,
                                            std::memory_order_seq_cst);
        continue;
      }
      const u64 value = lnext->value;
      if (head_.value.compare_exchange_strong(lhead, lnext,
                                              std::memory_order_seq_cst)) {
        HazardDomain::clear(row, 0);
        HazardDomain::clear(row, 1);
        hp_.retire(tid, lhead, [](void* p, void*) {
          alloc_meter::destroy(static_cast<Node*>(p));
        }, nullptr);
        return value;
      }
    }
  }

 private:
  struct alignas(kCacheLine) Node {
    Node(u64 v, unsigned tid) : value(v), enq_tid(tid) {}
    u64 value;
    unsigned enq_tid;  // the "turn" anchor (Fig 13: ltail->enqTid)
    std::atomic<Node*> next{nullptr};
  };

  // One helping round (Fig 13 lines 14-27): clear the Tail node's satisfied
  // request, append the next pending request by turn order among the first
  // `n` (the caller's thread high-water mark) requests, swing Tail.
  void help_append_one(HazardDomain::ThreadSlots& row, unsigned n) {
    Node* ltail = HazardDomain::protect(row, 0, tail_.value);
    if (ltail != tail_.value.load(std::memory_order_seq_cst)) return;
    // (a) The node at Tail is appended: drop its request so the turn scan
    //     cannot pick it again.
    Node* req = enqueuers_[ltail->enq_tid].value.load(std::memory_order_seq_cst);
    if (req == ltail) {
      enqueuers_[ltail->enq_tid].value.compare_exchange_strong(
          req, nullptr, std::memory_order_seq_cst);
    }
    // (b) Pick the next pending request, round-robin after the turn anchor.
    for (unsigned j = 1; j <= n; ++j) {
      Node* cand =
          enqueuers_[(ltail->enq_tid + j) % n].value.load(
              std::memory_order_seq_cst);
      if (cand == nullptr) continue;
      Node* expected = nullptr;
      ltail->next.compare_exchange_strong(expected, cand,
                                          std::memory_order_seq_cst);
      break;  // either we appended cand or someone appended first
    }
    // (c) Swing Tail over whatever is linked now.
    Node* lnext = ltail->next.load(std::memory_order_seq_cst);
    if (lnext != nullptr) {
      tail_.value.compare_exchange_strong(ltail, lnext,
                                          std::memory_order_seq_cst);
    }
  }

  // Retired nodes are off the list; the domain's destructor frees them.
  HazardDomain hp_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Node*>> head_;
  alignas(kDestructiveRange) CacheAligned<std::atomic<Node*>> tail_;
  CacheAligned<std::atomic<Node*>> enqueuers_[ThreadRegistry::kMaxThreads];
};

}  // namespace wcq
