// Queue adapters for the benchmark harness: every queue from the paper's
// comparison set behind one uniform shape, constructed with the paper's §6
// parameters (ring 2^16 slots for wCQ/SCQ i.e. order 15; MAX_PATIENCE 16/64;
// LCRQ rings 2^12; YMC segments 2^10).
//
// WCQ_BENCH_ORDER overrides the wCQ/SCQ ring order for quick experiments.
#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "baselines/cc_queue.hpp"
#include "baselines/crturn_queue.hpp"
#include "baselines/faa_queue.hpp"
#include "baselines/lcrq.hpp"
#include "baselines/ms_queue.hpp"
#include "baselines/ymc_queue.hpp"
#include "common/env.hpp"
#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "core/wcq_llsc.hpp"
#include "harness/workloads.hpp"
#include "scale/index_magazine.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq::bench {

inline unsigned ring_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_ORDER", 15));
}

inline unsigned sharded_shard_count() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_SHARDS", 4));
}

inline unsigned sharded_shard_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_SHARD_ORDER", 12));
}

namespace detail {

inline bool take(std::optional<u64> v, u64& out) {
  if (!v) return false;
  out = *v;
  return true;
}

}  // namespace detail

// Index rings: wCQ and its LL/SC builds, SCQ, and the degree-specialized
// MPSC ring, all at 2^ring_order() slots. Rings transfer indices
// < capacity; the harness masks payloads (the paper's benchmark does the
// same — throughput, not payload, is measured). Bulk spans are masked
// through a fixed chunk so the adapter keeps the harness's "payload is
// arbitrary" contract without allocating.
template <typename Ring, const char* Name>
struct RingAdapter {
  static constexpr const char* kName = Name;
  using Queue = Ring;
  static Queue* create() { return new Queue(ring_order()); }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) {
    q.enqueue(v & (q.capacity() - 1));
    return true;
  }
  static bool dequeue(Queue& q, u64& out) {
    return detail::take(q.dequeue(), out);
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n) {
    return masked_bulk(q, v, n, [&q](const u64* m, std::size_t k) {
      q.enqueue_bulk(m, k);
    });
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n) {
    return q.dequeue_bulk(out, n);
  }

 protected:
  // Feeds `v` masked to the ring's indices through `put(chunk, len)`.
  template <typename Put>
  static std::size_t masked_bulk(Queue& q, const u64* v, std::size_t n,
                                 Put put) {
    constexpr std::size_t kChunk = 64;
    u64 masked[kChunk];
    const u64 mask = q.capacity() - 1;
    for (std::size_t done = 0; done < n;) {
      const std::size_t span = n - done < kChunk ? n - done : kChunk;
      for (std::size_t i = 0; i < span; ++i) masked[i] = v[done + i] & mask;
      put(masked, span);
      done += span;
    }
    return n;  // ring bulk enqueue inserts everything
  }
};

// The wCQ rings with the per-thread session the paper's benchmark gives
// each thread (DESIGN.md §10): every worker takes one Handle at attach and
// every operation passes it, so the registry is read only by the help
// check's high-water refresh, once per HELP_DELAY operations. Without it
// each operation resolved the tid again (~1.06 lookups per op); the
// `wcq_handle` gate holds these series at <= 0.07. The implicit
// operations stay for callers without sessions (bench_micro).
template <typename Ring, const char* Name>
struct WcqRingAdapter : RingAdapter<Ring, Name> {
  using Base = RingAdapter<Ring, Name>;
  using Queue = Ring;
  using Handle = typename Ring::Handle;
  using Base::dequeue;
  using Base::dequeue_bulk;
  using Base::enqueue;
  using Base::enqueue_bulk;
  static Handle attach(Queue& q) { return q.handle(); }
  static bool enqueue(Queue& q, Handle& h, u64 v) {
    q.enqueue(h, v & (q.capacity() - 1));
    return true;
  }
  static bool dequeue(Queue& q, Handle& h, u64& out) {
    return detail::take(q.dequeue(h), out);
  }
  static std::size_t enqueue_bulk(Queue& q, Handle& h, const u64* v,
                                  std::size_t n) {
    return Base::masked_bulk(q, v, n, [&q, &h](const u64* m, std::size_t k) {
      q.enqueue_bulk(h, m, k);
    });
  }
  static std::size_t dequeue_bulk(Queue& q, Handle& h, u64* out,
                                  std::size_t n) {
    return q.dequeue_bulk(h, out, n);
  }
};

inline constexpr char kWcqName[] = "wCQ";
inline constexpr char kWcqLlscName[] = "wCQ-LLSC";
inline constexpr char kScqName[] = "SCQ";
inline constexpr char kMpscName[] = "Mpsc";

using WcqAdapter = WcqRingAdapter<WCQ, kWcqName>;
using WcqLlscAdapter = WcqRingAdapter<WCQLLSC, kWcqLlscName>;
using ScqAdapter = RingAdapter<SCQ, kScqName>;
// Degree-specialized ring (DESIGN.md §13). Valid only under workloads that
// respect the degree restriction — the pipeline panel runs Mpsc on p8to1
// points with exactly one consumer-role worker; any other shape trips the
// ring's SessionGuard by design.
using MpscAdapter = RingAdapter<MpscRing, kMpscName>;

#if defined(WCQ_HAS_NATIVE_LLSC)
// Native AArch64 exclusive pairs (DESIGN.md §15, LLSC-NATIVE) — same ring,
// the granule ops go through ldaxp/stlxp instead of the simulated
// reservation table. Only exists on aarch64 builds; the harness picks it
// up automatically there and the panel gains a fourth backend column.
inline constexpr char kWcqLlscNativeName[] = "wCQ-LLSC-native";
using WcqLlscNativeAdapter =
    WcqRingAdapter<WCQLLSCNative, kWcqLlscNativeName>;
#endif  // WCQ_HAS_NATIVE_LLSC

// Value queues: no index masking, and full is real backpressure, so
// enqueue's boolean matters to the workloads. The bulk paths exist only
// where the queue has them.
template <typename Q, const char* Name>
struct ValueAdapter {
  static constexpr const char* kName = Name;
  using Queue = Q;
  static Queue* create() { return new Queue(); }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& q, u64 v) { return q.enqueue(v); }
  static bool dequeue(Queue& q, u64& out) {
    return detail::take(q.dequeue(), out);
  }
  static std::size_t enqueue_bulk(Queue& q, const u64* v, std::size_t n)
    requires requires { q.enqueue_bulk(v, n); }
  {
    return q.enqueue_bulk(v, n);
  }
  static std::size_t dequeue_bulk(Queue& q, u64* out, std::size_t n)
    requires requires { q.dequeue_bulk(out, n); }
  {
    return q.dequeue_bulk(out, n);
  }
};

inline constexpr char kFaaName[] = "FAA";
inline constexpr char kMsName[] = "MSQueue";
inline constexpr char kCcName[] = "CCQueue";
inline constexpr char kLcrqName[] = "LCRQ";
inline constexpr char kYmcName[] = "YMC";
inline constexpr char kCrTurnName[] = "CRTurn";

using FaaAdapter = ValueAdapter<FAAQueue, kFaaName>;
using MsAdapter = ValueAdapter<MSQueue, kMsName>;
using CcAdapter = ValueAdapter<CCQueue, kCcName>;
using LcrqAdapter = ValueAdapter<LCRQ, kLcrqName>;
using YmcAdapter = ValueAdapter<YMCQueue, kYmcName>;
using CrTurnAdapter = ValueAdapter<CRTurnQueue, kCrTurnName>;

// Unbounded (Appendix A) queue, as an A/B pair over the segment pool
// (DESIGN.md §8): "UwCQ" recycles retired segments, "UwCQ-nopool" is the
// malloc/free-per-segment behavior. WCQ_BENCH_SEGMENT_ORDER (default 10,
// the paper's YMC segment size) sets elements per segment; small orders
// (4-6) maximize segment churn and make the pool's allocation-count win
// visible even in short runs.
inline unsigned unbounded_segment_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_SEGMENT_ORDER", 10));
}

template <bool Recycle, const char* Name>
struct UnboundedQueueAdapter : ValueAdapter<UnboundedQueue<u64>, Name> {
  static UnboundedQueue<u64>* create() {
    typename UnboundedQueue<u64>::Options o;
    o.segment_order = unbounded_segment_order();
    o.recycle = Recycle;
    return new UnboundedQueue<u64>(o);
  }
};

inline constexpr char kUnboundedName[] = "UwCQ";
inline constexpr char kUnboundedNoPoolName[] = "UwCQ-nopool";

using UnboundedAdapter = UnboundedQueueAdapter<true, kUnboundedName>;
using UnboundedNoPoolAdapter =
    UnboundedQueueAdapter<false, kUnboundedNoPoolName>;

// Fig 2 bounded value queue, as an A/B pair over the per-thread index
// magazines (DESIGN.md §9): "Bounded" claims/recycles free indices through
// its magazine, "Bounded-nomag" is the plain double-ring behavior. The
// shared-ring F&A counters (ring_faa in the report) are the comparison
// metric — the magazine's amortization claim is about coherence traffic,
// not wall-clock, so it holds on 1-core CI hosts too.
// WCQ_BENCH_BOUNDED_ORDER (default 12) sets capacity; WCQ_BENCH_MAGAZINE
// (default 16) the per-thread magazine slots.
inline unsigned bounded_order() {
  return static_cast<unsigned>(env_u64("WCQ_BENCH_BOUNDED_ORDER", 12));
}

inline std::size_t bounded_magazine_capacity() {
  return static_cast<std::size_t>(env_u64("WCQ_BENCH_MAGAZINE", 16));
}

using Bounded = BoundedQueue<u64, WCQ>;

template <bool Mag, const char* Name>
struct BoundedQueueAdapter : ValueAdapter<Bounded, Name> {
  static Bounded* create() {
    Bounded::Options o{bounded_order()};
    o.magazine.enabled = Mag;
    o.magazine.capacity = bounded_magazine_capacity();
    return new Bounded(o);
  }
};

inline constexpr char kBoundedName[] = "Bounded";
inline constexpr char kBoundedNoMagName[] = "Bounded-nomag";
inline constexpr char kBoundedHandleName[] = "Bounded-handle";

using BoundedAdapter = BoundedQueueAdapter<true, kBoundedName>;
using BoundedNoMagAdapter = BoundedQueueAdapter<false, kBoundedNoMagName>;

// Explicit-session variant of the Fig 2 bounded queue (DESIGN.md §10):
// identical configuration to "Bounded", but every worker acquires one
// session handle at attach time and every operation takes it. The A/B
// metric is `registry` (tid()/high_water() lookups per op): the implicit
// path resolves the thread_local tid once per operation, the handle path
// only on the amortized help-check refresh — the per-op difference the
// handle refactor exists to produce, and wall-clock-independent like the
// magazine counters. CI gates the handle series at ≤1 lookup/op.
struct BoundedHandleAdapter : BoundedQueueAdapter<true, kBoundedHandleName> {
  using Handle = Bounded::Handle;
  static Handle attach(Bounded& q) { return q.acquire(); }
  static bool enqueue(Bounded& q, Handle& h, u64 v) { return q.enqueue(h, v); }
  static bool dequeue(Bounded& q, Handle& h, u64& out) {
    return detail::take(q.dequeue(h), out);
  }
  static std::size_t enqueue_bulk(Bounded& q, Handle& h, const u64* v,
                                  std::size_t n) {
    return q.enqueue_bulk(h, v, n);
  }
  static std::size_t dequeue_bulk(Bounded& q, Handle& h, u64* out,
                                  std::size_t n) {
    return q.dequeue_bulk(h, out, n);
  }
};

// One pipeline shard on its own (DESIGN.md §13): a standalone
// BoundedQueue<u64, MpscRing> of 2^WCQ_BENCH_SHARD_ORDER with magazines on,
// as ShardedQueue builds its shards. Its data ring is flat, which serves a
// pipeline consumer sweeping several shards; here the one consumer polls
// only this ring, the line its producers are still writing, and this
// series measures what the flat layout costs in that shape.
inline constexpr char kBoundedMpscName[] = "Bounded-Mpsc";

struct BoundedMpscAdapter
    : ValueAdapter<BoundedQueue<u64, MpscRing>, kBoundedMpscName> {
  static BoundedQueue<u64, MpscRing>* create() {
    return new BoundedQueue<u64, MpscRing>(sharded_shard_order());
  }
};

// Sharded front-end (src/scale/): a value queue, `Shards` shards (0 = the
// WCQ_BENCH_SHARDS default) of capacity 2^WCQ_BENCH_SHARD_ORDER each.
inline constexpr char kShardedName[] = "Sharded-wCQ";

template <unsigned Shards = 0>
struct ShardedAdapter : ValueAdapter<ShardedQueue<u64, WCQ>, kShardedName> {
  static ShardedQueue<u64, WCQ>* create() {
    return new ShardedQueue<u64, WCQ>(Shards != 0 ? Shards
                                                  : sharded_shard_count(),
                                      sharded_shard_order());
  }
};

// Mode::kPipeline over MpscRing shards (DESIGN.md §13): producers go
// through the normal hashing/steal sweep; each dequeuing worker claims a
// consumer slot on its first dequeue and drains only the shards it owns,
// through acquire_consumer sessions. create(threads) sizes the consumer
// count to the skewed workload's minority at that point, so consumers
// divide the shards among themselves (consumer c owns shards i ≡ c mod
// consumers). The claim is thread_local and the harness spawns fresh
// workers per measurement run, so each run starts with a clean assignment;
// the TLS handles are destroyed at worker exit, before the run's
// Adapter::destroy. A/B against ShardedAdapter at the same shard count
// measures exactly the MPSC-shard win (the ≥20% BENCH_PR8.json gate).
struct ShardedPipelineAdapter {
  static constexpr const char* kName = "Sharded-pipeline";
  using Shards = ShardedQueue<u64, MpscRing>;
  struct Queue {
    Shards q;
    unsigned consumers;
    std::atomic<unsigned> next_consumer{0};
    Queue(typename Shards::Options o, unsigned c) : q(o), consumers(c) {}
  };
  static Queue* create(unsigned threads) {
    typename Shards::Options o;
    o.shards = sharded_shard_count();
    o.shard_order = sharded_shard_order();
    o.mode = Shards::Mode::kPipeline;
    return new Queue(o, skewed_minority(threads));
  }
  static void destroy(Queue* q) { delete q; }
  static bool enqueue(Queue& qq, u64 v) { return qq.q.enqueue(v); }
  static std::size_t enqueue_bulk(Queue& qq, const u64* v, std::size_t n) {
    return qq.q.enqueue_bulk(v, n);
  }
  static bool dequeue(Queue& qq, u64& out) {
    for (auto& h : own(qq)) {
      if (detail::take(qq.q.dequeue(h), out)) return true;
    }
    return false;
  }
  static std::size_t dequeue_bulk(Queue& qq, u64* out, std::size_t n) {
    std::size_t done = 0;
    for (auto& h : own(qq)) {
      if (done >= n) break;
      done += qq.q.dequeue_bulk(h, out + done, n - done);
    }
    return done;
  }

 private:
  // This worker's owned-shard sessions for `qq`, claimed on first use.
  static std::vector<typename Shards::Handle>& own(Queue& qq) {
    thread_local std::vector<typename Shards::Handle> handles;
    thread_local Queue* bound = nullptr;
    if (bound != &qq) {
      handles.clear();
      const unsigned c =
          qq.next_consumer.fetch_add(1, std::memory_order_relaxed) %
          qq.consumers;
      for (unsigned i = c; i < qq.q.shard_count(); i += qq.consumers) {
        handles.push_back(qq.q.acquire_consumer(i));
      }
      bound = &qq;
    }
    return handles;
  }
};

}  // namespace wcq::bench
