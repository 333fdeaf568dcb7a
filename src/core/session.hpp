// Session ownership shared by every queue layer's Handle (DESIGN.md §10).
//
// BoundedQueue, UnboundedQueue and ShardedQueue hand out owned per-thread
// sessions through acquire() and unowned per-op views through
// handle_for(tid). The ownership half is the same on all three: the owned
// handle pins its queue (destroying the queue first is a diagnosed abort)
// and, when it dies, tells the queue which session ended so the layer can
// return that session's cached state. These two types are that half,
// written once; each layer's Handle adds only what it derives from the tid.
#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace wcq {

// A queue's count of live owned session handles. The RMWs are acq_rel and
// the reads acquire (HANDLE-RC, DESIGN.md §11): the count is a refcount on
// the queue's lifetime.
class LiveSessions {
 public:
  void add() { n_.fetch_add(1, std::memory_order_acq_rel); }
  void remove() { n_.fetch_sub(1, std::memory_order_acq_rel); }
  int live() const { return n_.load(std::memory_order_acquire); }

  // First statement of a queue's destructor. A live owned handle holds
  // pointers into the queue; letting the destructor proceed would leave it
  // dangling and its eventual release would scribble on freed memory, so
  // fail deterministically instead.
  void check_none_live(const char* queue) const {
    const int n = live();
    if (n == 0) return;
    std::fprintf(stderr,
                 "wcq: %s destroyed with %d live session handle(s); "
                 "destroy handles before their queue\n",
                 queue, n);
    std::abort();
  }

 private:
  std::atomic<int> n_{0};
};

// The ownership core of a layer's Handle: the session's dense tid and, for
// an owned session, its queue. A null queue marks a view, which owns
// nothing and releases nothing. Move-only; the owned session is released —
// `Q::release_session(tid)`, private to the layer, which befriends this
// type — exactly once: when the owner is destroyed, or when a move
// assignment overwrites it. A moved-from owner is a view.
template <typename Q>
class SessionOwner {
 public:
  SessionOwner() = default;
  SessionOwner(Q* q, unsigned tid) : q_(q), tid_(tid) {}
  SessionOwner(SessionOwner&& o) noexcept
      : q_(std::exchange(o.q_, nullptr)), tid_(o.tid_) {}
  SessionOwner& operator=(SessionOwner&& o) noexcept {
    if (this != &o) {
      release();
      q_ = std::exchange(o.q_, nullptr);
      tid_ = o.tid_;
    }
    return *this;
  }
  ~SessionOwner() { release(); }

  unsigned tid() const { return tid_; }
  bool owned() const { return q_ != nullptr; }

 private:
  void release() {
    if (q_ != nullptr) std::exchange(q_, nullptr)->release_session(tid_);
  }

  Q* q_ = nullptr;
  unsigned tid_ = 0;
};

}  // namespace wcq
