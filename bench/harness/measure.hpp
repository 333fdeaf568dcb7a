// Templated measurement core: runs one (queue, workload, thread-count) point
// and returns throughput plus memory counters.
//
// Queue concept (provided by harness/adapters.hpp wrappers):
//   struct Adapter {
//     static constexpr const char* kName;
//     using Queue = ...;
//     static Queue* create();            // fresh instance, paper parameters
//     static void destroy(Queue*);
//     static bool enqueue(Queue&, u64);  // false = full (retried by workload)
//     static bool dequeue(Queue&, u64&); // false = empty
//     // Optional batch path, used when BenchParams::batch > 1:
//     static std::size_t enqueue_bulk(Queue&, const u64*, std::size_t);
//     static std::size_t dequeue_bulk(Queue&, u64*, std::size_t);
//     // Optional explicit-session path (DESIGN.md §10): when attach() is
//     // present every operation takes the handle instead; each worker
//     // attaches once, outside the measured loop.
//     static Handle attach(Queue&);
//     // Optional: create(threads) replaces create() for adapters that size
//     // themselves to the point (the pipeline's consumer count).
//     static bool enqueue(Queue&, Handle&, u64);
//     static bool dequeue(Queue&, Handle&, u64&);
//   };
//
// Accounting contract: every workload loop counts the operations it actually
// attempted (a full/empty attempt counts, exactly as in the paper's
// methodology; an operation the loop never issued does not), each worker
// returns its count, and the reported throughput divides the summed executed
// ops — never the requested `p.ops` — by the wall time. The item rate
// divides the items the dequeues returned by the same wall time; on the
// skewed workload, where empty and full attempts are cheap and counted,
// it is the figure that follows the hand-off. Memory counters are
// sampled per run and summarized across runs like the throughput samples.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/cpu.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "harness/workloads.hpp"

namespace wcq::bench {

using u64 = std::uint64_t;

// One row per scalar metric a point reports. Every metric is sampled once
// per run and summarized across runs like the throughput samples; the JSON
// report and the printed tables iterate this table.
enum class Metric {
  kMops,       // millions of executed operations per second, per run
  kItems,      // millions of delivered items (successful dequeues) per
               // second, per run: the item rate attempt-counting hides
  kLiveBytes,  // allocator-live delta after each run
  kOverhead,   // (live bytes - payload bytes) / capacity, bounded queues only
  kPeakBytes,  // allocator peak during each run
  kRssBytes,   // process RSS sampled after each run
  kAllocs,     // metered allocation events per run (count, not bytes;
               // includes queue construction — a recycling queue's count
               // converges to its warm-up allocations while a churning one
               // keeps growing with ops)
  // One <field>_per_op row per opcount event (common/op_counters.hpp), e.g.
  // Metric::faa_per_op: that counter's sum over the workers per executed
  // op. Counter sums, not wall-clock, so meaningful on 1-core CI.
#define WCQ_EVENT_METRIC(f, key, desc) f##_per_op,
  WCQ_EVENTS(WCQ_EVENT_METRIC)
#undef WCQ_EVENT_METRIC
  // Role-split ring counters for the skewed workload (p8to1): F&As
  // and threshold RMWs per op *executed by that role's workers*. The
  // consumer split is the pipeline gate — an MPSC consumer path must report
  // exactly zero for both — and it is wall-clock-independent, so it holds
  // on the 1-core runner. Zero for symmetric workloads.
  kConsFaa,
  kConsThld,
  kProdFaa,
  kProdThld,
  kCount
};

inline constexpr std::size_t kMetricCount =
    static_cast<std::size_t>(Metric::kCount);

// Printable rows carry a caption, cell format and scale (every opcount row
// does: its table description is the caption); the rest are JSON-only and
// leave them null.
struct MetricInfo {
  const char* key;                // JSON key of the per-point mean
  const char* json_fmt;           // printf format of that mean in the JSON
  const char* caption = nullptr;  // printed-table caption (units)
  const char* fmt = nullptr;      // printf format of a printed-table cell
  double scale = 1.0;             // printed cell = mean * scale
};

inline constexpr MetricInfo kMetrics[kMetricCount] = {
    {"mops_mean", "%.6f", "Mops/sec", "%.2f"},
    {"items_mps_mean", "%.6f", "delivered Mitems/sec", "%.2f"},
    {"live_bytes_mean", "%.1f"},
    {"overhead_bytes_per_elem_mean", "%.3f"},
    {"peak_bytes_mean", "%.1f", "peak MB allocated during run", "%.2f", 1e-6},
    {"rss_bytes_mean", "%.1f"},
    {"allocs_mean", "%.1f", "allocations per run, count", "%.0f"},
#define WCQ_EVENT_METRIC(f, key, desc) \
  {key "_per_op_mean", "%.6f", desc, "%.3f"},
    WCQ_EVENTS(WCQ_EVENT_METRIC)
#undef WCQ_EVENT_METRIC
    {"cons_faa_per_op_mean", "%.6f"},
    {"cons_thld_per_op_mean", "%.6f"},
    {"prod_faa_per_op_mean", "%.6f"},
    {"prod_thld_per_op_mean", "%.6f"},
};

inline const MetricInfo& info(Metric m) {
  return kMetrics[static_cast<std::size_t>(m)];
}

struct PointResult {
  unsigned threads = 0;
  std::array<Summary, kMetricCount> metrics;

  const Summary& operator[](Metric m) const {
    return metrics[static_cast<std::size_t>(m)];
  }
};

namespace detail {

inline void tiny_random_delay(Xoshiro256& rng, unsigned max_spins) {
  const u64 spins = rng.bounded(max_spins + 1);
  for (u64 i = 0; i < spins; ++i) cpu_relax();
}

template <typename Adapter>
concept HasBulk = requires(typename Adapter::Queue& q, const u64* in,
                           u64* out, std::size_t n) {
  Adapter::enqueue_bulk(q, in, n);
  Adapter::dequeue_bulk(q, out, n);
};

// Explicit-session adapters (DESIGN.md §10) expose `attach(Queue&)` and
// handle-taking operations; each worker attaches once, outside the measured
// loop, exactly as a thread-pool worker would hold a session.
template <typename Adapter>
concept HasHandle =
    requires(typename Adapter::Queue& q) { Adapter::attach(q); };

template <typename Adapter>
concept HasHandleBulk =
    HasHandle<Adapter> &&
    requires(typename Adapter::Queue& q,
             decltype(Adapter::attach(q))& h, const u64* in, u64* out,
             std::size_t n) {
      Adapter::enqueue_bulk(q, h, in, n);
      Adapter::dequeue_bulk(q, h, out, n);
    };

// One worker's operation surface: the queue plus, for handle adapters, the
// session attached for this worker's lifetime. The workload loops are
// written against this so the same code measures both calling conventions.
// `delivered` counts the items the worker's dequeues returned.
template <typename Adapter>
struct OpsCtx {
  typename Adapter::Queue& q;
  u64 delivered = 0;
  static constexpr bool kBulk = HasBulk<Adapter>;
  explicit OpsCtx(typename Adapter::Queue& queue) : q(queue) {}
  bool enqueue(u64 v) { return Adapter::enqueue(q, v); }
  bool dequeue(u64& out) {
    const bool ok = Adapter::dequeue(q, out);
    delivered += ok ? 1 : 0;
    return ok;
  }
  std::size_t enqueue_bulk(const u64* v, std::size_t n) {
    return Adapter::enqueue_bulk(q, v, n);
  }
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    const std::size_t got = Adapter::dequeue_bulk(q, out, n);
    delivered += got;
    return got;
  }
};

template <HasHandle Adapter>
struct OpsCtx<Adapter> {
  typename Adapter::Queue& q;
  decltype(Adapter::attach(std::declval<typename Adapter::Queue&>())) h;
  u64 delivered = 0;
  static constexpr bool kBulk = HasHandleBulk<Adapter>;
  explicit OpsCtx(typename Adapter::Queue& queue)
      : q(queue), h(Adapter::attach(queue)) {}
  bool enqueue(u64 v) { return Adapter::enqueue(q, h, v); }
  bool dequeue(u64& out) {
    const bool ok = Adapter::dequeue(q, h, out);
    delivered += ok ? 1 : 0;
    return ok;
  }
  std::size_t enqueue_bulk(const u64* v, std::size_t n) {
    return Adapter::enqueue_bulk(q, h, v, n);
  }
  std::size_t dequeue_bulk(u64* out, std::size_t n) {
    const std::size_t got = Adapter::dequeue_bulk(q, h, out, n);
    delivered += got;
    return got;
  }
};

// Per-workload loops. Each returns the number of operations it executed;
// `my_ops` is the exact quota this worker was assigned (measure_point spreads
// the p.ops % threads remainder instead of dropping it).
template <typename Adapter>
u64 worker_body(OpsCtx<Adapter>& ops, const BenchParams& p, u64 my_ops,
                unsigned thread_index, unsigned threads, unsigned run) {
  // Mix the run index into the seed so repeated runs of one point do not
  // replay identical coin-flip/delay sequences (which made the run-to-run
  // spread a fiction for the random workloads).
  Xoshiro256 rng{0x1234567ULL * (thread_index + 1) +
                 0x9e3779b97f4a7c15ULL * run};
  const u64 payload = thread_index % 16;
  // Batch staging buffers. Enqueue payloads are constant; the dequeue buffer
  // is scratch. Sized by the parse()-enforced kMaxBatch clamp.
  const u64 batch = p.batch > 1 ? p.batch : 1;
  u64 enq_buf[BenchParams::kMaxBatch];
  u64 deq_buf[BenchParams::kMaxBatch];
  for (u64 i = 0; i < batch; ++i) enq_buf[i] = payload;
  constexpr bool kBulk = OpsCtx<Adapter>::kBulk;

  u64 executed = 0;
  switch (p.workload) {
    case Workload::kPairs: {
      u64 i = 0;
      if constexpr (kBulk) {
        // Per-thread ledger of enqueued-minus-dequeued. A bulk dequeue can
        // transiently return fewer than its span (contended ranks yield
        // nothing; the elements sit at later ranks), while ring bulk
        // enqueues insert everything — without compensation that shortfall
        // accumulates run-long and can push ring occupancy past the
        // "at most capacity() live indices" precondition. The ledger
        // credits actual insertions (value queues may accept fewer) and is
        // drained whenever it reaches 2*batch, capping this thread's
        // occupancy contribution; a zero-yield drain means other threads
        // consumed the elements (no occupancy risk), so it stops rather
        // than spin. Drain attempts are real dequeues and count as
        // executed ops.
        u64 outstanding = 0;
        for (; batch > 1 && i + 2 * batch <= my_ops; i += 2 * batch) {
          outstanding += ops.enqueue_bulk(enq_buf, batch);
          const u64 span = outstanding < batch ? outstanding : batch;
          const u64 got = span > 0 ? ops.dequeue_bulk(deq_buf, span) : 0;
          outstanding -= got < outstanding ? got : outstanding;
          executed += batch + span;
          while (outstanding >= 2 * batch) {
            const u64 g2 = ops.dequeue_bulk(deq_buf, batch);
            executed += batch;
            if (g2 == 0) break;
            outstanding -= g2 < outstanding ? g2 : outstanding;
          }
        }
      }
      for (; i + 1 < my_ops; i += 2) {
        while (!ops.enqueue(payload)) cpu_relax();
        u64 out;
        (void)ops.dequeue(out);
        executed += 2;
      }
      if (i < my_ops) {  // odd quota: the final op is a lone enqueue
        while (!ops.enqueue(payload)) cpu_relax();
        executed += 1;
      }
      break;
    }
    case Workload::kP5050: {
      for (u64 i = 0; i < my_ops;) {
        const u64 span = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (span > 1) {
            if (rng.coin()) {
              (void)ops.enqueue_bulk(enq_buf, span);  // full = attempt
            } else {
              (void)ops.dequeue_bulk(deq_buf, span);
            }
            executed += span;
            i += span;
            continue;
          }
        }
        if (rng.coin()) {
          (void)ops.enqueue(payload);  // full counts as an attempt
        } else {
          u64 out;
          (void)ops.dequeue(out);
        }
        ++executed;
        ++i;
      }
      break;
    }
    case Workload::kEmptyDeq: {
      for (u64 i = 0; i < my_ops;) {
        const u64 span = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (span > 1) {
            (void)ops.dequeue_bulk(deq_buf, span);
            executed += span;
            i += span;
            continue;
          }
        }
        u64 out;
        (void)ops.dequeue(out);
        ++executed;
        ++i;
      }
      break;
    }
    case Workload::kMemory: {
      // Deliberately single-op regardless of batch: the tiny delays between
      // individual operations are the point of the Fig 10 configuration.
      for (u64 i = 0; i < my_ops; ++i) {
        if (rng.coin()) {
          (void)ops.enqueue(payload);
        } else {
          u64 out;
          (void)ops.dequeue(out);
        }
        ++executed;
        tiny_random_delay(rng, p.max_delay_spins);
      }
      break;
    }
    case Workload::kBurst: {
      // Producer phase of `batch` enqueues, then a consumer phase draining
      // the same span: bursty occupancy with backpressure at the full/empty
      // edges. Attempts count whether or not the queue accepted them. The
      // bulk path keeps the same insertion ledger as kPairs — ring adapters
      // never report full, so a systematic dequeue shortfall would
      // otherwise ratchet occupancy up run-long.
      u64 outstanding = 0;
      for (u64 i = 0; i < my_ops;) {
        const u64 eb = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (eb > 1) {
            outstanding += ops.enqueue_bulk(enq_buf, eb);
          } else if (ops.enqueue(payload)) {
            ++outstanding;
          }
        } else {
          for (u64 k = 0; k < eb; ++k) (void)ops.enqueue(payload);
        }
        executed += eb;
        i += eb;
        const u64 db = batch < my_ops - i ? batch : my_ops - i;
        if (db == 0) break;
        if constexpr (kBulk) {
          u64 got = 0;
          if (db > 1) {
            got = ops.dequeue_bulk(deq_buf, db);
          } else {
            u64 out;
            got = ops.dequeue(out) ? 1 : 0;
          }
          outstanding -= got < outstanding ? got : outstanding;
        } else {
          for (u64 k = 0; k < db; ++k) {
            u64 out;
            (void)ops.dequeue(out);
          }
        }
        executed += db;
        i += db;
        if constexpr (kBulk) {
          while (outstanding >= 4 * batch) {
            const u64 g2 = ops.dequeue_bulk(deq_buf, batch);
            executed += batch;
            if (g2 == 0) break;  // consumed elsewhere: no occupancy risk
            outstanding -= g2 < outstanding ? g2 : outstanding;
          }
        }
      }
      break;
    }
    case Workload::kP8to1: {
      // Skewed roles (DESIGN.md §13): this worker is a pure producer or a
      // pure consumer for the whole run, by thread index. Attempt-counting
      // exactly as kP5050 (a full enqueue or empty dequeue still counts),
      // so the loop terminates with no cross-role coordination — which is
      // what keeps the smoke points deterministic on the 1-core runner.
      const bool consumer =
          skewed_consumer(p.workload, thread_index, threads);
      for (u64 i = 0; i < my_ops;) {
        const u64 span = batch < my_ops - i ? batch : my_ops - i;
        if constexpr (kBulk) {
          if (span > 1) {
            if (consumer) {
              (void)ops.dequeue_bulk(deq_buf, span);
            } else {
              (void)ops.enqueue_bulk(enq_buf, span);
            }
            executed += span;
            i += span;
            continue;
          }
        }
        if (consumer) {
          u64 out;
          (void)ops.dequeue(out);
        } else {
          (void)ops.enqueue(payload);
        }
        ++executed;
        ++i;
      }
      break;
    }
  }
  return executed;
}

}  // namespace detail

template <typename Adapter>
PointResult measure_point(const BenchParams& p, unsigned threads) {
  PointResult result;
  result.threads = threads;
  std::array<std::vector<double>, kMetricCount> samples;
  auto sample = [&samples](Metric m, double v) {
    samples[static_cast<std::size_t>(m)].push_back(v);
  };

  for (unsigned run = 0; run < p.runs; ++run) {
    alloc_meter::reset_peak();
    const std::int64_t live_before = alloc_meter::live_bytes();
    const std::int64_t allocs_before = alloc_meter::total_allocations();
    typename Adapter::Queue* q = nullptr;
    if constexpr (requires { Adapter::create(threads); }) {
      q = Adapter::create(threads);
    } else {
      q = Adapter::create();
    }

    std::atomic<unsigned> ready{0};
    std::atomic<bool> go{false};
    // Exact quota split: the first (p.ops % threads) workers take one extra
    // op, so requested and assigned totals match.
    const u64 per_thread = p.ops / threads;
    const u64 remainder = p.ops % threads;
    std::vector<u64> executed(threads, 0);
    std::vector<u64> delivered(threads, 0);
    std::vector<opcount::Counters> delta(threads);
    std::vector<std::thread> ts;
    ts.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        if (p.pin) pin_thread(t);
        const u64 my_ops = per_thread + (t < remainder ? 1 : 0);
        // Session attach (handle adapters) happens here, outside the
        // measured window and the counter snapshots: a pool worker pays it
        // once per worker lifetime, not per operation.
        detail::OpsCtx<Adapter> ops(*q);
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (!go.load(std::memory_order_acquire)) cpu_relax();
        const opcount::Counters before = opcount::snapshot();
        executed[t] =
            detail::worker_body<Adapter>(ops, p, my_ops, t, threads, run);
        delta[t] = opcount::snapshot() - before;
        delivered[t] = ops.delivered;
      });
    }
    while (ready.load(std::memory_order_acquire) < threads) cpu_relax();
    const auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : ts) t.join();
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();

    // Counter sums over all workers, and over each role's workers for the
    // skewed workloads (symmetric workloads leave both roles empty). Each
    // per-op figure divides by the executed ops of the workers it sums.
    struct Sum {
      u64 ops = 0;
      opcount::Counters c{};
      void add(u64 n, const opcount::Counters& d) {
        ops += n;
        c += d;
      }
      double per_op(u64 v) const {
        return static_cast<double>(v) /
               (ops > 0 ? static_cast<double>(ops) : 1.0);
      }
    } all, cons, prod;
    u64 items = 0;
    for (unsigned t = 0; t < threads; ++t) {
      items += delivered[t];
      all.add(executed[t], delta[t]);
      if (!workload_skewed(p.workload)) continue;
      (skewed_consumer(p.workload, t, threads) ? cons : prod)
          .add(executed[t], delta[t]);
    }
    sample(Metric::kMops, static_cast<double>(all.ops) / secs / 1e6);
    sample(Metric::kItems, static_cast<double>(items) / secs / 1e6);
#define WCQ_EVENT_SAMPLE(f, key, desc) \
  sample(Metric::f##_per_op, all.per_op(all.c.f));
    WCQ_EVENTS(WCQ_EVENT_SAMPLE)
#undef WCQ_EVENT_SAMPLE
    // The role split is counter sums, not wall-clock, so the consumer-side
    // zeros the pipeline gate asserts are exact on any host.
    sample(Metric::kConsFaa, cons.per_op(cons.c.faa));
    sample(Metric::kConsThld, cons.per_op(cons.c.threshold));
    sample(Metric::kProdFaa, prod.per_op(prod.c.faa));
    sample(Metric::kProdThld, prod.per_op(prod.c.threshold));

    const std::int64_t live = alloc_meter::live_bytes() - live_before;
    sample(Metric::kLiveBytes, static_cast<double>(live));
    // Bytes the queue holds beyond its elements' own u64 payloads, per
    // element it can hold: the overhead Aksenov et al. bound. Only queues
    // with a fixed capacity report it; the others leave it unsampled.
    if constexpr (requires { q->capacity(); }) {
      const double cap = static_cast<double>(q->capacity());
      sample(Metric::kOverhead,
             (static_cast<double>(live) - cap * sizeof(u64)) / cap);
    }
    sample(Metric::kPeakBytes,
           static_cast<double>(alloc_meter::peak_bytes() - live_before));
    sample(Metric::kRssBytes, static_cast<double>(current_rss_bytes()));
    sample(Metric::kAllocs, static_cast<double>(
                                alloc_meter::total_allocations() -
                                allocs_before));
    Adapter::destroy(q);
  }
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    result.metrics[m] = summarize(samples[m]);
  }
  return result;
}

}  // namespace wcq::bench
