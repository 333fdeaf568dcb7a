// ShardedQueue<T, Ring> — a sharded front-end over Fig 2 bounded queues
// (DESIGN.md §7).
//
// wCQ's bounded-memory rings are the building block; this composes a
// power-of-two number of BoundedQueue<T, Ring> shards so that unrelated
// threads stop contending on one Head/Tail pair. Policy:
//
//  * Affinity — every operation starts at the caller's *home shard*,
//    `tid & (shards-1)` for the dense registry tid. A session handle
//    (DESIGN.md §10) fixes its sweep — two words — once at acquire(), and
//    every visit rebuilds the shard's session from the tid by arithmetic,
//    so the handle path resolves nothing per operation and no session
//    allocates; the implicit path resolves the tid once per call.
//  * Stealing — when the home shard is empty (dequeue) or full (enqueue),
//    the operation sweeps the remaining shards exactly once, in ring order
//    from home: visit s is shard `(home + s) & (shards-1)`. "Empty"/"full"
//    is reported only after the full sweep fails, so an element visible in
//    any shard before the sweep began is found. The sweep stays bounded
//    (one visit per shard), preserving the rings' progress guarantee per
//    operation.
//  * Batching — enqueue_bulk/dequeue_bulk forward to the shards' batch
//    paths (one ring F&A per chunk instead of per element), spilling the
//    unplaced/unfilled remainder across the same sweep.
//
// Ordering contract: each shard is an independent FIFO queue. Elements
// routed through one shard retain per-producer FIFO order; the composition
// does not define a global order across shards (the usual partitioned-queue
// trade: Jiffy-style sharded consumers re-merge by key or don't care).
// Emptiness is likewise per-sweep: a concurrent enqueue racing the sweep may
// be missed, exactly as a dequeue racing a single queue's enqueue may be.
//
// Pipeline mode (DESIGN.md §13): `Options::mode = Mode::kPipeline` declares
// the sharded-ingest shape — every shard drained by exactly one owning
// consumer — and is meant to be instantiated as `ShardedQueue<T, MpscRing>`
// so each shard's data ring drops to the single-consumer fast path. That
// ring is also laid out flat, without Cache_Remap (core/bounded_queue.hpp,
// "Ring layout"): its one consumer reads the shard's ranks in order, so a
// line of ranks a producer span delivered serves it whole.
// Consumers enter through acquire_consumer(shard), which returns a session
// whose sweep is just {shard}: the owning consumer never steals, so the
// steal sweep is producer-side only, exactly the restriction that keeps one
// consumer per MPSC ring. Producers are unchanged (hash to home shards,
// full sweep). The mode is enforced at this layer — a dequeue through
// anything but a consumer session traps — and again at the ring layer by
// MpscRing's SessionGuard, so a second consumer on a shard is a diagnosed
// abort, not silent corruption. The same options minus the mode (and minus
// the ring substitution) give the full-MPMC baseline the wcq_bench
// pipeline-panel A/B measures against.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"
#include "core/bounded_queue.hpp"
#include "core/session.hpp"
#include "core/wcq.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {

// Line-aligned because every visit of every thread reads shards_: left
// unaligned, the 32-byte object can share a heap line with a neighbour's
// writes, which cost the perfbench sharded_pipeline workload ~15% of its
// items/s against the aligned build (4-vCPU x86-64).
template <typename T, typename Ring = WCQ>
class alignas(kCacheLine) ShardedQueue {
 public:
  using Shard = BoundedQueue<T, Ring>;

  // Front-end discipline (see header comment). kMpmc is the historic
  // behavior: any thread may enqueue or dequeue anywhere in the sweep.
  // kPipeline restricts draining to per-shard owning consumers.
  enum class Mode { kMpmc, kPipeline };

  // One operation's visit order: `n` shards in ring order from `start`
  // (visit s is shard `(start + s) & (shard_count() - 1)`). A producer's
  // sweep is {home, shard_count()}; a consumer's is {its shard, 1}.
  struct Sweep {
    unsigned start = 0;
    unsigned n = 0;
  };

  // Per-thread session (DESIGN.md §10): the caller's sweep fixed once at
  // acquire(); each visit rebuilds the shard's session from the tid by pure
  // arithmetic, so the sweep never touches the registry. Move-only; owned
  // handles pin the queue (core/session.hpp). Releasing the session flushes
  // this tid's magazine in every shard back to the shard's fq, so a pool
  // worker's cached capacity returns immediately, not at thread exit.
  class Handle {
   public:
    Handle() = default;

    unsigned tid() const { return owner_.tid(); }
    // The first shard of the session's sweep (the implicit path recomputes
    // it from the registry tid once per call).
    unsigned home_shard() const { return sweep_.start; }
    // True for sessions from acquire_consumer(): the sweep is pinned to the
    // owned shard and pipeline-mode dequeues are permitted.
    bool is_consumer() const { return consumer_; }

   private:
    friend class ShardedQueue;
    Handle(ShardedQueue* q, unsigned tid, bool owned, Sweep sweep,
           bool consumer)
        : owner_(owned ? q : nullptr, tid), sweep_(sweep),
          consumer_(consumer) {}

    SessionOwner<ShardedQueue> owner_;
    Sweep sweep_;
    bool consumer_ = false;
  };

  struct Options {
    // Rounded up to a power of two (at least 1).
    unsigned shards = 4;
    // Each shard is an independent BoundedQueue of capacity 2^shard_order.
    unsigned shard_order = 12;
    // Per-thread free-index magazines inside each shard (DESIGN.md §9);
    // home-shard affinity means a thread's magazine hits concentrate on one
    // shard, exactly the locality magazines reward.
    IndexMagazines::Config magazine{};
    // Front-end discipline; see Mode. Pipeline instantiations should pair
    // this with Ring = MpscRing to actually collect the fast-path win.
    Mode mode = Mode::kMpmc;
  };

  explicit ShardedQueue(Options opt) : mode_(opt.mode) {
    const unsigned n = std::bit_ceil(opt.shards == 0 ? 1u : opt.shards);
    shards_.resize(n);
    for (auto& s : shards_) {
      s.reset(alloc_meter::create<Shard>(
          typename Shard::Options{opt.shard_order, opt.magazine}));
    }
  }

  ShardedQueue(unsigned shards, unsigned shard_order)
      : ShardedQueue(Options{shards, shard_order}) {}

  ~ShardedQueue() { sessions_.check_none_live("ShardedQueue"); }

  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  Mode mode() const { return mode_; }
  u64 capacity() const { return shard_count() * shards_[0]->capacity(); }
  Shard& shard(unsigned i) { return *shards_[i]; }
  const Shard& shard(unsigned i) const { return *shards_[i]; }

  // The full visit order for a producer thread `tid`: every shard once, in
  // ring order from its home shard. Exposed for tests; a Handle walks
  // exactly this.
  std::vector<unsigned> sweep_order(unsigned tid) const {
    const Sweep sw = sweep_for(tid);
    std::vector<unsigned> out(sw.n);
    for (unsigned s = 0; s < sw.n; ++s) out[s] = at(sw, s);
    return out;
  }

  // The calling thread's home shard (tests pin expectations to this; stays
  // consistent with Handle::home_shard() for a handle acquired here).
  unsigned home_shard() const {
    return sweep_for(ThreadRegistry::tid()).start;
  }

  // Owned per-thread session: one registry lookup now, none per operation.
  Handle acquire() {
    sessions_.add();
    return session(ThreadRegistry::tid(), /*owned=*/true);
  }

  // Unowned per-op view for a known tid: no allocation, no ownership. The
  // implicit wrappers use this.
  Handle handle_for(unsigned tid) { return session(tid, /*owned=*/false); }

  // Owning-consumer session for `shard` (pipeline mode's drain side,
  // usable in either mode): a session whose sweep is exactly {shard}. The
  // consumer never steals, which is what keeps one consumer per MPSC data
  // ring. One consumer per shard is the caller's contract; with Ring =
  // MpscRing the shard's SessionGuard enforces it (a second consumer
  // traps). The calling thread's CPU affinity is left alone — a consumer
  // that wants pinning pins itself first.
  Handle acquire_consumer(unsigned shard) {
    assert(shard < shard_count());
    sessions_.add();
    return Handle(this, ThreadRegistry::tid(), /*owned=*/true,
                  Sweep{shard, 1}, /*consumer=*/true);
  }

  // --- operations ----------------------------------------------------------

  // False only after every shard rejected the element during one sweep.
  bool enqueue(T value) { return enqueue_movable(value); }

  bool enqueue(Handle& h, T value) { return enqueue_movable(h, value); }

  // Value-preserving variant (mirrors BoundedQueue::enqueue_movable): `value`
  // is moved from only on success, so retry loops — the blocking Channel send
  // path — can re-offer the same element after a full sweep failed.
  bool enqueue_movable(T& value) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue_movable(h, value);
  }

  bool enqueue_movable(Handle& h, T& value) {
    return sweep(h, 1, [&](Shard& s, typename Shard::Handle& sh, std::size_t) {
             return s.enqueue_movable(sh, value) ? 1 : 0;
           }) == 1;
  }

  // Nullopt only after a full steal sweep found every shard empty.
  std::optional<T> dequeue() {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue(h);
  }

  std::optional<T> dequeue(Handle& h) {
    require_consumer(h.consumer_);
    std::optional<T> out;
    sweep(h, 1, [&](Shard& s, typename Shard::Handle& sh, std::size_t) {
      out = s.dequeue(sh);
      return out ? 1 : 0;
    });
    return out;
  }

  // Batch insert: places up to `n` elements (home shard first, spilling the
  // remainder across the sweep) and returns how many were taken; exactly the
  // first `ret` elements of `first` are moved-from. Partial success means
  // every shard filled up during the sweep.
  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(U* first, std::size_t n) {
    Handle h = handle_for(ThreadRegistry::tid());
    return enqueue_bulk(h, first, n);
  }

  template <typename U,
            std::enable_if_t<std::is_same_v<std::remove_const_t<U>, T>, int> = 0>
  std::size_t enqueue_bulk(Handle& h, U* first, std::size_t n) {
    return sweep(h, n,
                 [&](Shard& s, typename Shard::Handle& sh, std::size_t done) {
                   return s.enqueue_bulk(sh, first + done, n - done);
                 });
  }

  // Batch remove: fills `out` from the home shard first, then steals across
  // the sweep. Returns how many were dequeued; fewer than `n` does not prove
  // emptiness (see the shard-level contract), dequeue() does.
  std::size_t dequeue_bulk(T* out, std::size_t n) {
    Handle h = handle_for(ThreadRegistry::tid());
    return dequeue_bulk(h, out, n);
  }

  std::size_t dequeue_bulk(Handle& h, T* out, std::size_t n) {
    require_consumer(h.consumer_);
    return sweep(h, n,
                 [&](Shard& s, typename Shard::Handle& sh, std::size_t done) {
                   return s.dequeue_bulk(sh, out + done, n - done);
                 });
  }

  // Owned session handles currently alive (test hook).
  int live_handles() const { return sessions_.live(); }

 private:
  Sweep sweep_for(unsigned tid) const {
    return Sweep{tid & (shard_count() - 1), shard_count()};
  }

  unsigned at(const Sweep& sw, unsigned s) const {
    return (sw.start + s) & (shard_count() - 1);
  }

  Handle session(unsigned tid, bool owned) {
    return Handle(this, tid, owned, sweep_for(tid), /*consumer=*/false);
  }

  // The one sweep loop behind every operation: visit h's shards in order,
  // each through a shard session rebuilt from the tid, until `want`
  // elements moved or every shard was visited once. `visit(shard, session,
  // done)` returns how many elements that visit moved.
  template <typename Visit>
  std::size_t sweep(Handle& h, std::size_t want, Visit&& visit) {
    std::size_t done = 0;
    for (unsigned s = 0; s < h.sweep_.n && done < want; ++s) {
      Shard& shard = *shards_[at(h.sweep_, s)];
      auto sh = shard.handle_for(h.tid());
      done += visit(shard, sh, done);
    }
    return done;
  }

  // Session release (DESIGN.md §10): the session returns its cached free
  // indices in every shard now; the thread-exit hook remains the fallback
  // for implicit use.
  friend class SessionOwner<ShardedQueue>;
  void release_session(unsigned tid) {
    for (auto& s : shards_) s->flush_magazine(tid);
    sessions_.remove();
  }

  // Pipeline-mode role check: draining is reserved to owning-consumer
  // sessions, and violating that is the same severity as a second MPSC
  // consumer (it IS one, a sweep deep) — diagnosed abort, not UB. In kMpmc
  // mode this is a single predictable branch.
  void require_consumer(bool consumer) const {
    if (mode_ != Mode::kPipeline || consumer) return;
    std::fprintf(stderr,
                 "wcq: dequeue on a pipeline-mode ShardedQueue requires an "
                 "acquire_consumer() session\n");
    assert(false && "pipeline-mode dequeue without a consumer session");
    __builtin_trap();
  }

  // The shard objects and this table are queue-owned bytes like the
  // shards' rings, so both go through the meter (Fig 10).
  struct DestroyShard {
    void operator()(Shard* s) const { alloc_meter::destroy(s); }
  };
  using ShardPtr = std::unique_ptr<Shard, DestroyShard>;
  std::vector<ShardPtr, alloc_meter::MeteredAllocator<ShardPtr>> shards_;
  Mode mode_ = Mode::kMpmc;
  LiveSessions sessions_;
};

}  // namespace wcq
