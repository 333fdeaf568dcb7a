// ShardedQueue<T, Ring> — a topology-aware sharded front-end over Fig 2
// bounded queues (DESIGN.md §7, §12).
//
// wCQ's bounded-memory rings are the building block; this composes a
// power-of-two number of BoundedQueue<T, Ring> shards so that unrelated
// threads stop contending on one Head/Tail pair. Policy:
//
//  * Placement — shards are assigned to NUMA nodes in contiguous groups
//    (shard i belongs to node i*m/n for m nodes, n shards), and on a real
//    multi-node machine each group's backing store is constructed by a
//    helper thread pinned to the owning node, so first-touch puts the ring
//    arrays in that node's memory.
//  * Affinity — every operation starts at the caller's *home shard*: the
//    thread's current node selects the local shard group, the dense
//    registry tid picks within it (`group[tid % group_size]`). On a flat
//    (single-node) topology this degenerates to the pre-topology
//    `tid & (shards-1)`. A session handle (DESIGN.md §10) resolves the node
//    and its sweep — a few words pointing into the queue's placement tables
//    — once at acquire(), and every visit rebuilds the shard's session from
//    the tid by arithmetic, so the handle path resolves nothing per
//    operation and no session allocates; the implicit path resolves tid and
//    node once per call.
//  * Stealing — when the home shard is empty (dequeue) or full (enqueue),
//    the operation sweeps the remaining shards exactly once,
//    hierarchically: first the rest of the local node's group (rotated to
//    start after home), then each remote node's group, nearest node first
//    by the topology's distance matrix. "Empty"/"full" is reported only
//    after the full sweep fails, so an element visible in any shard before
//    the sweep began is found — the reordering of visits relative to the
//    flat ring sweep does not weaken that contract (DESIGN.md §12). The
//    sweep stays bounded (one visit per shard), preserving the rings'
//    progress guarantee per operation.
//  * Accounting — an operation that *succeeds* on a shard of a different
//    node than the caller's increments the thread-local remote_steal
//    counter (common/op_counters.hpp): crossing the interconnect is the
//    expensive event worth gating on, failed remote probes are not.
//  * Batching — enqueue_bulk/dequeue_bulk forward to the shards' batch
//    paths (one ring F&A per chunk instead of per element), spilling the
//    unplaced/unfilled remainder across the same hierarchical sweep.
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
// so each shard's data ring drops to the single-consumer fast path.
// Consumers enter through acquire_consumer(shard), which pins the calling
// thread to the shard's owning node (PR 7 placement) and returns a session
// whose sweep is just {shard}: the owning consumer never steals, so the
// steal sweep is producer-side only, exactly the restriction that keeps one
// consumer per MPSC ring. Producers are unchanged (hash to home shards,
// full hierarchical sweep). The mode is enforced at this layer — a dequeue
// through anything but a consumer session traps — and again at the ring
// layer by MpscRing's SessionGuard, so a second consumer on a shard is a
// diagnosed abort, not silent corruption. The same options minus the mode
// (and minus the ring substitution) give the full-MPMC baseline the
// wcq_bench pipeline-panel A/B measures against.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cpu.hpp"
#include "common/op_counters.hpp"
#include "common/topology.hpp"
#include "core/bounded_queue.hpp"
#include "core/session.hpp"
#include "core/wcq.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {

template <typename T, typename Ring = WCQ>
class ShardedQueue {
 public:
  using Shard = BoundedQueue<T, Ring>;

  // Front-end discipline (see header comment). kMpmc is the historic
  // behavior: any thread may enqueue or dequeue anywhere in the sweep.
  // kPipeline restricts draining to per-shard owning consumers.
  enum class Mode { kMpmc, kPipeline };

  // One operation's visit order (DESIGN.md §12): the first `local` visits
  // walk the node's shard group rotated by `rot`, the rest follow the
  // node's canonical order. Pointers into the queue's tables, so building
  // one allocates nothing; a consumer's sweep is its one shard.
  struct Sweep {
    const unsigned* group = nullptr;  // local_[node]
    const unsigned* order = nullptr;  // order_[node]
    unsigned local = 0;
    unsigned rot = 0;
    unsigned n = 0;

    unsigned at(unsigned s) const {
      return s < local ? group[(rot + s) % local] : order[s];
    }
  };

  // Per-thread session (DESIGN.md §10, §12): the caller's node and sweep
  // resolved once at acquire(); each visit rebuilds the shard's session
  // from the tid by pure arithmetic, so the sweep touches neither the
  // registry nor the topology. Move-only; owned handles pin the queue
  // (core/session.hpp). Releasing the session flushes this tid's magazine
  // in every shard back to the shard's fq, so a pool worker's cached
  // capacity returns immediately, not at thread exit.
  class Handle {
   public:
    Handle() = default;

    unsigned tid() const { return owner_.tid(); }
    // The node this session resolved at acquire(); a thread that migrates
    // afterwards keeps its original placement (sessions are cheap — reacquire
    // to re-home).
    unsigned node() const { return node_; }
    // The first shard of the session's sweep (the implicit path recomputes
    // it from the registry tid and current node once per call).
    unsigned home_shard() const { return sweep_.n != 0 ? sweep_.at(0) : 0; }
    // True for sessions from acquire_consumer(): the sweep is pinned to the
    // owned shard and pipeline-mode dequeues are permitted.
    bool is_consumer() const { return consumer_; }

   private:
    friend class ShardedQueue;
    Handle(ShardedQueue* q, unsigned tid, bool owned, unsigned node,
           Sweep sweep, bool consumer)
        : owner_(owned ? q : nullptr, tid), sweep_(sweep), node_(node),
          consumer_(consumer) {}

    SessionOwner<ShardedQueue> owner_;
    Sweep sweep_;
    unsigned node_ = 0;
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
    // Placement source; nullptr means the process topology
    // (Topology::instance(), i.e. WCQ_TOPOLOGY or the live machine). Tests
    // inject simulated shapes here without touching the environment.
    const Topology* topology = nullptr;
    // Front-end discipline; see Mode. Pipeline instantiations should pair
    // this with Ring = MpscRing to actually collect the fast-path win.
    Mode mode = Mode::kMpmc;
  };

  explicit ShardedQueue(Options opt)
      : topo_(opt.topology != nullptr ? opt.topology
                                      : &Topology::instance()),
        mode_(opt.mode) {
    const unsigned n = std::bit_ceil(opt.shards == 0 ? 1u : opt.shards);
    const unsigned m = topo_->node_count();

    // Contiguous groups: shard i -> node i*m/n. With m > n the trailing
    // nodes own no shards and their threads start the sweep at the nearest
    // node that does; with m <= n every node owns >= floor(n/m) shards.
    shard_node_.resize(n);
    for (unsigned i = 0; i < n; ++i) {
      shard_node_[i] =
          static_cast<unsigned>(static_cast<u64>(i) * m / n);
    }
    local_.assign(m, {});
    for (unsigned i = 0; i < n; ++i) local_[shard_node_[i]].push_back(i);

    // Canonical per-node visit order: own group first, then each remote
    // node's group nearest-first (Topology::remote_order). Every shard
    // appears exactly once; per-(thread, node) sweeps only rotate the
    // leading local segment.
    order_.resize(m);
    for (unsigned t = 0; t < m; ++t) {
      auto& ord = order_[t];
      ord = local_[t];
      for (unsigned r : topo_->remote_order(t)) {
        ord.insert(ord.end(), local_[r].begin(), local_[r].end());
      }
    }

    shards_.resize(n);
    auto build_range = [&](unsigned lo, unsigned hi) {
      for (unsigned i = lo; i < hi; ++i) {
        shards_[i] = std::make_unique<Shard>(
            typename Shard::Options{opt.shard_order, opt.magazine});
      }
    };
    if (m > 1 && !topo_->simulated()) {
      // First-touch: one builder thread per node group, pinned to the
      // owning node, so each group's ring arrays fault into that node's
      // memory. Simulated topologies skip this — their nodes have no
      // distinct physical memory to touch.
      std::vector<std::thread> builders;
      for (unsigned t = 0; t < m; ++t) {
        if (local_[t].empty()) continue;
        const unsigned lo = local_[t].front();
        const unsigned hi = local_[t].back() + 1;
        builders.emplace_back([this, build_range, t, lo, hi] {
          pin_thread(0,
                     Topology::PinSpec{Topology::PinPolicy::kNode, t},
                     *topo_);
          build_range(lo, hi);
        });
      }
      for (auto& b : builders) b.join();
    } else {
      build_range(0, n);
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
  const Topology& topology() const { return *topo_; }

  // Node owning shard `i` under this queue's placement.
  unsigned shard_node(unsigned i) const { return shard_node_[i]; }

  // The full hierarchical visit order for a thread `tid` on `node`: the
  // local group rotated to start at the home shard, then remote groups
  // nearest-node-first. Exposed for tests; a Handle walks exactly this.
  std::vector<unsigned> sweep_order(unsigned node, unsigned tid) const {
    const Sweep sw = sweep_for(node, tid);
    std::vector<unsigned> out(sw.n);
    for (unsigned s = 0; s < sw.n; ++s) out[s] = sw.at(s);
    return out;
  }

  // Home shard for a thread `tid` homed on `node`: its slot in the node's
  // local group (the flat-topology case reduces to tid & (shards-1)), or
  // the nearest populated node's first shard when `node` owns none.
  unsigned home_shard_for(unsigned node, unsigned tid) const {
    return sweep_for(node, tid).at(0);
  }
  // The calling thread's home shard (tests pin expectations to this; stays
  // consistent with Handle::home_shard() for a handle acquired here).
  unsigned home_shard() const {
    return home_shard_for(topo_->current_node(), ThreadRegistry::tid());
  }

  // Owned per-thread session: one registry lookup and one topology
  // resolution now, none per operation.
  Handle acquire() {
    sessions_.add();
    return session(ThreadRegistry::tid(), /*owned=*/true);
  }

  // Unowned per-op view for a known tid, resolving the caller's current
  // node: no allocation, no ownership. The implicit wrappers use this.
  Handle handle_for(unsigned tid) { return session(tid, /*owned=*/false); }

  // Owning-consumer session for `shard` (pipeline mode's drain side,
  // usable in either mode). Pins the calling thread to the shard's owning
  // node — node placement via the topology groups; under a simulated
  // topology the pin only records the node, no affinity syscalls — and
  // returns a session whose sweep is exactly {shard}: the consumer never
  // steals, which is what keeps one consumer per MPSC data ring. One
  // consumer per shard is the caller's contract; with Ring = MpscRing the
  // shard's SessionGuard enforces it (a second consumer traps).
  Handle acquire_consumer(unsigned shard) {
    assert(shard < shard_count());
    const unsigned node = shard_node_[shard];
    pin_thread(shard, Topology::PinSpec{Topology::PinPolicy::kNode, node},
               *topo_);
    sessions_.add();
    // Groups are contiguous shard ranges, so the shard sits at this offset
    // in its node's group.
    const auto& group = local_[node];
    const Sweep sw{&group[shard - group.front()], nullptr, 1, 0, 1};
    return Handle(this, ThreadRegistry::tid(), /*owned=*/true, node, sw,
                  /*consumer=*/true);
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
  // every shard filled up during the sweep. Remote accounting is per shard
  // visit that transferred at least one element, not per element.
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
  Sweep sweep_for(unsigned node, unsigned tid) const {
    const auto& group = local_[node];
    const unsigned local = static_cast<unsigned>(group.size());
    return Sweep{group.data(), order_[node].data(), local,
                 local != 0 ? tid % local : 0, shard_count()};
  }

  Handle session(unsigned tid, bool owned) {
    const unsigned node = topo_->current_node();
    return Handle(this, tid, owned, node, sweep_for(node, tid),
                  /*consumer=*/false);
  }

  // The one sweep loop behind every operation: visit h's shards in order,
  // each through a shard session rebuilt from the tid, until `want`
  // elements moved or every shard was visited once. `visit(shard, session,
  // done)` returns how many elements that visit moved. A visit that moves
  // any on another node than the session's counts one remote steal.
  template <typename Visit>
  std::size_t sweep(Handle& h, std::size_t want, Visit&& visit) {
    std::size_t done = 0;
    for (unsigned s = 0; s < h.sweep_.n && done < want; ++s) {
      const unsigned i = h.sweep_.at(s);
      auto sh = shards_[i]->handle_for(h.tid());
      const std::size_t got = visit(*shards_[i], sh, done);
      if (got != 0 && shard_node_[i] != h.node_) opcount::count_remote_steal();
      done += got;
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

  const Topology* topo_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<unsigned> shard_node_;           // shard -> owning node
  std::vector<std::vector<unsigned>> local_;   // node -> its shard group
  std::vector<std::vector<unsigned>> order_;   // node -> canonical sweep
  Mode mode_ = Mode::kMpmc;
  LiveSessions sessions_;
};

}  // namespace wcq
