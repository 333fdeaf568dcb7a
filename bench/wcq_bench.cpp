// The closed-loop bench driver: every paper figure and every layer A/B as a
// named panel of one binary.
//
//   wcq_bench --panel=fig11,magazine --threads=1,2,4 --ops=N --runs=N ...
//
// Panels (default: all of them, in this order):
//
//   fig10     Figure 10: memory usage (a) and throughput (b) under a 50%/50%
//             random workload with tiny random delays between operations
//             (the configuration the paper found amplifies memory-efficiency
//             artifacts). Memory comes from the deterministic allocation
//             meter every queue here allocates through (DESIGN.md §4 says
//             why not RSS). Expected shape: LCRQ's allocation grows steeply
//             with threads (closed rings pile up), YMC more slowly (segment
//             churn + reclamation lag), wCQ/SCQ stay at their statically
//             allocated ring (~1 MB for wCQ at order 15, half that for SCQ)
//             plus per-thread records.
//   fig11     Figure 11 a/b/c (x86-64): empty-dequeue, pairwise and 50%/50%
//             throughput across the full comparison set. Expected shape
//             (paper §6): wCQ ≈ SCQ everywhere; 11a: wCQ/SCQ far ahead via
//             the Threshold short-circuit, FAA poor (RMW invalidations);
//             11b/11c: F&A-based queues above MSQueue/CCQueue/CRTurn.
//   fig12     Figure 12 a/b/c (PowerPC): the same panels for the portable
//             wCQ built on LL/SC (paper §4, Fig 9). No PowerPC hardware is
//             available (DESIGN.md §4), so this runs the LL/SC-decomposed
//             wCQ next to the CAS2 build and the paper's PowerPC comparison
//             set (no LCRQ — it requires true CAS2); on aarch64 builds the
//             native-exclusives backend joins as wCQ-LLSC-native. Absolute
//             numbers are the host's; the comparisons of interest are
//             wCQ-LLSC vs SCQ vs the slower queues, and wCQ-LLSC vs the
//             CAS2 wCQ (the §4 decomposition overhead).
//   ablation  MAX_PATIENCE, Cache_Remap, HELP_DELAY and entry-width sweeps.
//   sharding  shard-count sweep (burst) and batch-vs-single (p5050).
//   magazine  index-magazine and session-handle A/B (DESIGN.md §9/§10).
//   pipeline  degree-specialized rings on skewed workloads (DESIGN.md §13).
//
// fig11 and fig12 also name their single panels (fig11a ... fig12c).
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "common/dwcas.hpp"
#include "harness/adapters.hpp"
#include "harness/runner.hpp"
#include "portability/llsc_native.hpp"

namespace wcq::bench {
namespace {

template <typename... Adapters>
struct AdapterList {
  static void run(const BenchParams& p, std::vector<Series>& out,
                  const SkipFn& skip = {}) {
    (run_series<Adapters>(p, out, Adapters::kName, skip), ...);
  }
};

void panel_end(const std::string& caption, const BenchParams& p,
               const std::vector<Series>& series, JsonReport& report) {
  print_cv_note(series);
  report.add_panel(caption, p, series);
  std::printf("\n");
}

void fig10(const BenchParams& base, JsonReport& report) {
  BenchParams p = base;
  p.workload = Workload::kMemory;
  print_preamble("Figure 10", "memory test (p5050 + tiny random delays)", p);
  std::vector<Series> series;
  // UwCQ / UwCQ-nopool is the segment-pool A/B (DESIGN.md §8): same queue,
  // recycling on/off; WCQ_BENCH_SEGMENT_ORDER=4 amplifies segment churn for
  // short runs.
  AdapterList<FaaAdapter, WcqAdapter, ScqAdapter, LcrqAdapter, YmcAdapter,
              CcAdapter, CrTurnAdapter, MsAdapter, UnboundedAdapter,
              UnboundedNoPoolAdapter>::run(p, series);
  std::printf("## Figure 10a: memory usage\n");
  print_metric_table(Metric::kPeakBytes, series, p.thread_counts);
  std::printf("\n## Figure 10b: throughput during the memory test\n");
  print_metric_table(Metric::kMops, series, p.thread_counts);
  std::printf("\n## Allocation churn (events per run; UwCQ vs UwCQ-nopool "
              "is the segment-pool A/B)\n");
  print_metric_table(Metric::kAllocs, series, p.thread_counts);
  print_cv_note(series);
  report.add_panel("Figure 10 memory test", p, series);
}

struct Fig11 {
  static constexpr const char* kFigure = "Figure 11";
  static constexpr const char* kBuild = "x86-64";
  using Adapters = AdapterList<FaaAdapter, WcqAdapter, ScqAdapter, LcrqAdapter,
                               YmcAdapter, CcAdapter, CrTurnAdapter, MsAdapter>;
  static void note() {}
};

struct Fig12 {
  static constexpr const char* kFigure = "Figure 12";
  static constexpr const char* kBuild = "portable (LL/SC) build";
  using Adapters = AdapterList<FaaAdapter, WcqLlscAdapter,
#if defined(WCQ_HAS_NATIVE_LLSC)
                               WcqLlscNativeAdapter,
#endif
                               WcqAdapter, ScqAdapter, YmcAdapter, CcAdapter,
                               CrTurnAdapter, MsAdapter>;
  // The backend matrix (DESIGN.md §15): which backends this binary actually
  // selected is part of the result, so it goes in every panel's preamble.
  static void note() {
    std::printf("# backends: wCQ/SCQ cas2=%s; wCQ-LLSC llsc=sim",
                dwcas_backend_name());
#if defined(WCQ_HAS_NATIVE_LLSC)
    std::printf("; wCQ-LLSC-native llsc=%s", llsc_backend_name());
#endif
    std::printf("\n");
  }
};

// Panel `Sub` (0 = a, 1 = b, 2 = c) of Figure 11 or 12.
template <typename Fig, int Sub>
void figure_panel(const BenchParams& base, JsonReport& report) {
  static constexpr Workload kWorkload[] = {Workload::kEmptyDeq,
                                           Workload::kPairs, Workload::kP5050};
  static constexpr const char* kWhat[] = {"empty Dequeue throughput",
                                          "pairwise Enqueue-Dequeue",
                                          "50%/50% Enqueue-Dequeue"};
  BenchParams p = base;
  p.workload = kWorkload[Sub];
  const std::string caption = std::string(kWhat[Sub]) + ", " + Fig::kBuild;
  print_preamble(Fig::kFigure + std::string(1, static_cast<char>('a' + Sub)),
                 caption, p);
  Fig::note();
  std::vector<Series> series;
  Fig::Adapters::run(p, series);
  print_metric_table(Metric::kMops, series, p.thread_counts);
  panel_end(caption, p, series, report);
}

// Ablations for the design choices DESIGN.md calls out, measured on the
// pairs workload at the middle thread count:
//   A1  MAX_PATIENCE sweep — how often the slow path fires and what it
//       costs (paper §6 picks 16/64 so the slow path is "relatively
//       infrequent"; patience 1 forces it on every operation).
//   A2  Cache_Remap on/off — the false-sharing permutation's contribution
//       under contended pairwise traffic (paper §2).
//   A3  HELP_DELAY sweep — helping-check amortization (Fig 6).
//   A4  Entry width — SCQ's 8-byte entries vs wCQ's 16-byte pairs on a
//       single thread (the effect behind the paper's Fig 11c remark that
//       wCQ's larger entries reduce cache contention between neighbors).
WCQ::Options g_tuned_opts;

struct TunedWcqAdapter : WcqAdapter {
  static Queue* create() { return new Queue(g_tuned_opts); }
};

double measure_wcq(const BenchParams& p, const WCQ::Options& o,
                   unsigned threads) {
  g_tuned_opts = o;
  return measure_point<TunedWcqAdapter>(p, threads)[Metric::kMops].mean;
}

void ablation(const BenchParams& base, JsonReport&) {
  BenchParams p = base;
  p.workload = Workload::kPairs;
  const unsigned threads = p.thread_counts[p.thread_counts.size() / 2];
  print_preamble("Ablations", "wCQ design-choice sweeps (pairs workload)", p);
  std::printf("# measured at %u threads\n\n", threads);

  std::printf("## A1: MAX_PATIENCE sweep (enq/deq patience, Mops/s)\n");
  for (int pat : {1, 2, 4, 16, 64}) {
    WCQ::Options o;
    o.order = ring_order();
    o.enq_patience = pat;
    o.deq_patience = pat;
    std::fprintf(stderr, "  [A1] patience %d...\n", pat);
    std::printf("patience=%-3d %8.2f\n", pat, measure_wcq(p, o, threads));
  }
  {
    WCQ::Options paper;
    paper.order = ring_order();
    std::printf("paper(16/64) %8.2f\n\n", measure_wcq(p, paper, threads));
  }

  std::printf("## A2: Cache_Remap on/off (Mops/s)\n");
  for (bool remap : {true, false}) {
    WCQ::Options o;
    o.order = ring_order();
    o.cache_remap = remap;
    std::fprintf(stderr, "  [A2] remap %d...\n", remap ? 1 : 0);
    std::printf("remap=%-5s %8.2f\n", remap ? "on" : "off",
                measure_wcq(p, o, threads));
  }
  std::printf("\n");

  std::printf("## A3: HELP_DELAY sweep at patience 2 (Mops/s)\n");
  for (unsigned hd : {1u, 4u, 16u, 64u}) {
    WCQ::Options o;
    o.order = ring_order();
    o.enq_patience = 2;
    o.deq_patience = 2;
    o.help_delay = hd;
    std::fprintf(stderr, "  [A3] help_delay %u...\n", hd);
    std::printf("help_delay=%-3u %8.2f\n", hd, measure_wcq(p, o, threads));
  }
  std::printf("\n");

  std::printf("## A4: entry width, single-threaded pairs (Mops/s)\n");
  std::fprintf(stderr, "  [A4] SCQ (8B entries)...\n");
  const double scq = measure_point<ScqAdapter>(p, 1)[Metric::kMops].mean;
  std::fprintf(stderr, "  [A4] wCQ (16B pairs)...\n");
  const double wcq_m = measure_point<WcqAdapter>(p, 1)[Metric::kMops].mean;
  std::printf("SCQ  (8-byte entries)  %8.2f\nwCQ (16-byte pairs)    %8.2f\n",
              scq, wcq_m);
}

// Sharded front-end sweep (src/scale/, DESIGN.md §7): how the sharded wCQ
// composition scales with shard count, and what the batch path buys.
//   S1  shard-count sweep on the burst workload — bursty occupancy with
//       backpressure, the traffic shape the sharded front-end targets; the
//       plain wCQ ring is the 1-shard baseline.
//   S2  batch-vs-single on the p5050 workload — the bulk paths amortize the
//       ring F&A and threshold traffic, so batch >= 8 should sit at or
//       above the single-op series for the same queue.
// This panel exists for the batch path, so an *unset* batch defaults to 8;
// an explicit --batch=1 / WCQ_BENCH_BATCH=1 is honored (single-op sweep).
void sharding(const BenchParams& base, JsonReport& report) {
  BenchParams q = base;
  if (q.batch <= 1 && !q.batch_set) q.batch = 8;

  q.workload = Workload::kBurst;
  print_preamble("Sharding S1",
                 "shard-count sweep, burst workload (batch path)", q);
  std::printf("# batch=%u shard_order=%u\n", q.batch, sharded_shard_order());
  std::vector<Series> series;
  run_series<WcqAdapter>(q, series, "wCQ-ring");
  run_series<ShardedAdapter<1>>(q, series, "shards=1");
  run_series<ShardedAdapter<2>>(q, series, "shards=2");
  run_series<ShardedAdapter<4>>(q, series, "shards=4");
  run_series<ShardedAdapter<8>>(q, series, "shards=8");
  print_metric_table(Metric::kMops, series, q.thread_counts);
  panel_end("S1 shard sweep (burst)", q, series, report);

  // S2: both series report executed ops (see harness/measure.hpp), so the
  // batch and single-op throughputs compare honestly.
  q.workload = Workload::kP5050;
  print_preamble("Sharding S2", "batch vs single-op, p5050 workload", q);
  BenchParams single = q;
  single.batch = 1;
  series.clear();
  run_series<WcqAdapter>(single, series, "wCQ batch=1");
  run_series<ShardedAdapter<>>(single, series, "Sharded batch=1");
  const std::vector<Series> singles = series;
  if (q.batch > 1) {
    const std::string b = " batch=" + std::to_string(q.batch);
    run_series<WcqAdapter>(q, series, "wCQ" + b);
    run_series<ShardedAdapter<>>(q, series, "Sharded" + b);
  }
  print_metric_table(Metric::kMops, series, q.thread_counts);
  print_cv_note(series);
  report.add_panel("S2 batch vs single (p5050)", q, series);
  // The mixed panel above carries q.batch; record the single-op baseline
  // under its own batch=1 params so the JSON is self-describing.
  report.add_panel("S2 single-op baseline (p5050)", single, singles);
}

// Index-magazine and session-handle A/B (DESIGN.md §9/§10) on the Fig 2
// double ring, on p5050 (M1: magazine occupancy random-walks, so refills
// and spills happen) and pairs (M2: the freed index is re-claimed by the
// same thread, the steady-state best case). "Bounded" (magazines on) vs
// "Bounded-nomag" compares shared-ring F&As per logical operation — the
// honest metric on small hosts, since the magazines exist to remove
// coherence traffic. "Bounded-handle" drives the same queue through
// explicit per-worker session handles; its metric is registry lookups per
// op (~1 implicit, only the amortized help-check refresh with a handle).
// WCQ_BENCH_BOUNDED_ORDER / WCQ_BENCH_MAGAZINE size the queue and magazine.
void magazine(const BenchParams& base, JsonReport& report) {
  const struct {
    Workload w;
    const char* figure;
    const char* caption;
  } panels[] = {
      {Workload::kP5050, "Magazine M1", "magazine A/B, p5050 workload"},
      {Workload::kPairs, "Magazine M2", "magazine A/B, pairs workload"}};
  for (const auto& panel : panels) {
    BenchParams q = base;
    q.workload = panel.w;
    print_preamble(panel.figure, panel.caption, q);
    std::printf("# order=%u magazine=%zu\n", bounded_order(),
                bounded_magazine_capacity());
    std::vector<Series> series;
    AdapterList<BoundedAdapter, BoundedNoMagAdapter,
                BoundedHandleAdapter>::run(q, series);
    print_metric_table(Metric::kMops, series, q.thread_counts);
    print_metric_table(Metric::faa_per_op, series, q.thread_counts);
    print_metric_table(Metric::registry_per_op, series, q.thread_counts);
    panel_end(panel.caption, q, series, report);
  }
}

// Degree-specialized ring A/B (MpscRing in src/core/scq.hpp, DESIGN.md
// §13): what deleting the consumer-side F&A/threshold machinery buys when
// the workload actually has one consumer. On p8to1 fan-in the minority role
// is the single consumer: the raw MpscRing against the full-MPMC SCQ it was
// derived from, and ShardedQueue Mode::kPipeline (MPSC shards, owning
// consumers) against the full-MPMC Sharded-wCQ at the same shard count. The
// sharded pair is committed as BENCH_PR8.json and gated at >= 1.2x.
// The roles table / JSON carry the per-role counter split: the MPSC
// consumer column must read exactly 0 F&As and 0 threshold RMWs per op —
// the deterministic, 1-core-safe pipeline gate. Bounded-Mpsc is one
// pipeline shard on its own, a value queue whose one consumer polls only
// that ring: the shape where the shard's flat data ring costs throughput
// (DESIGN.md §13), kept so the trade can be rerun.
// WCQ_BENCH_ORDER / WCQ_BENCH_SHARDS / WCQ_BENCH_SHARD_ORDER size the rings.
// p8to1 hands its minority role to one consumer first, so every series
// skips points below kPipelineMinThreads: a lone worker is only the
// consumer, and its row would time pure empty dequeues. A sweep with no
// point left is a bad --threads.
constexpr unsigned kPipelineMinThreads = 2;

void pipeline(const BenchParams& base, JsonReport& report) {
  const char* caption = "fan-in p8to1: MPSC ring / pipeline shards vs MPMC";
  BenchParams q = base;
  q.workload = Workload::kP8to1;
  if (std::ranges::none_of(q.thread_counts, [](unsigned t) {
        return t >= kPipelineMinThreads;
      })) {
    std::string arg = "--threads=";
    for (unsigned t : q.thread_counts) arg += std::to_string(t) + ",";
    arg.pop_back();
    q.usage_error(arg, "the pipeline panel needs a point of at least " +
                           std::to_string(kPipelineMinThreads) + " threads");
  }
  const SkipFn no_producer = [](unsigned t) -> std::string {
    if (t >= kPipelineMinThreads) return "";
    return "the lone worker is the consumer; p8to1 needs a producer too";
  };
  // Raw-ring points (Mpsc and SCQ alike) are measured only where they can
  // terminate. The skewed workload enqueues without a matching drain and a
  // raw index ring cannot report full, so past 2^ring_order() live indices
  // the producers would loop forever once the consumer has spent its quota:
  // the producer role's whole quota must fit the ring, which keeps
  // occupancy <= capacity. The sharded series report full as real
  // backpressure (a counted attempt) and need no bound.
  const SkipFn over_capacity = [&](unsigned t) -> std::string {
    if (std::string why = no_producer(t); !why.empty()) return why;
    u64 quota = 0;
    for (unsigned i = 0; i < t; ++i) {
      if (skewed_consumer(q.workload, i, t)) continue;
      quota += q.ops / t + (i < q.ops % t ? 1 : 0);
    }
    const u64 capacity = u64{1} << ring_order();
    if (quota <= capacity) return "";
    return "producer quota " + std::to_string(quota) +
           " exceeds ring capacity " + std::to_string(capacity) +
           "; a raw ring cannot report full";
  };
  // Mpsc and Bounded-Mpsc also need the consumer role to be exactly one
  // worker: a wider minority is a second consumer session, which the ring
  // traps by design.
  const SkipFn one_consumer = [&](unsigned t) -> std::string {
    if (std::string why = no_producer(t); !why.empty()) return why;
    const unsigned minority = skewed_minority(t);
    if (minority == 1) return "";
    return "minority role is " + std::to_string(minority) +
           " wide; the ring admits exactly one";
  };
  const SkipFn single_minority = [&](unsigned t) -> std::string {
    if (std::string why = one_consumer(t); !why.empty()) return why;
    return over_capacity(t);
  };
  print_preamble("Pipeline P1", caption, q);
  std::printf("# order=%u shards=%u shard_order=%u\n", ring_order(),
              sharded_shard_count(), sharded_shard_order());
  std::vector<Series> series;
  run_series<MpscAdapter>(q, series, MpscAdapter::kName, single_minority);
  run_series<ScqAdapter>(q, series, ScqAdapter::kName, over_capacity);
  run_series<BoundedMpscAdapter>(q, series, BoundedMpscAdapter::kName,
                                 one_consumer);
  AdapterList<ShardedPipelineAdapter, ShardedAdapter<>>::run(q, series,
                                                             no_producer);
  print_metric_table(Metric::kMops, series, q.thread_counts);
  print_metric_table(Metric::kItems, series, q.thread_counts);
  print_metric_table(Metric::faa_per_op, series, q.thread_counts);
  print_roles_table(series, q.thread_counts);
  panel_end(caption, q, series, report);
}

struct PanelDef {
  const char* name;
  const char* group;  // a --panel name that also selects this panel
  void (*run)(const BenchParams&, JsonReport&);
};

constexpr PanelDef kPanels[] = {
    {"fig10", "", fig10},
    {"fig11a", "fig11", figure_panel<Fig11, 0>},
    {"fig11b", "fig11", figure_panel<Fig11, 1>},
    {"fig11c", "fig11", figure_panel<Fig11, 2>},
    {"fig12a", "fig12", figure_panel<Fig12, 0>},
    {"fig12b", "fig12", figure_panel<Fig12, 1>},
    {"fig12c", "fig12", figure_panel<Fig12, 2>},
    {"ablation", "", ablation},
    {"sharding", "", sharding},
    {"magazine", "", magazine},
    {"pipeline", "", pipeline},
};

int run(int argc, char** argv) {
  const BenchParams p = BenchParams::parse(argc, argv, {"--panel"});
  const std::string& panel_arg = p.extra.at("--panel");
  const std::vector<std::string> names = split_list(panel_arg);
  std::vector<bool> chosen(std::size(kPanels), names.empty());
  for (const std::string& name : names) {
    bool known = false;
    for (std::size_t i = 0; i < std::size(kPanels); ++i) {
      if (name == kPanels[i].name || name == kPanels[i].group) {
        chosen[i] = known = true;
      }
    }
    if (!known) {
      p.usage_error("--panel=" + panel_arg,
                    "unknown panel '" + name +
                        "'; panels: fig10, fig11[a-c], fig12[a-c], "
                        "ablation, sharding, magazine, pipeline");
    }
  }
  JsonReport report;
  bool unfiltered = false;  // ablation measures no named series
  for (std::size_t i = 0; i < std::size(kPanels); ++i) {
    if (!chosen[i]) continue;
    kPanels[i].run(p, report);
    unfiltered |= kPanels[i].run == ablation;
  }
  // An --only naming no series of the chosen panels measured nothing: a
  // typo (names are case-sensitive), not an empty result.
  if (!p.only.empty() && !unfiltered && report.series_count() == 0) {
    std::string arg = "--only=";
    for (const std::string& name : p.only) arg += name + ",";
    arg.pop_back();
    p.usage_error(arg, "no series of the chosen panels matches");
  }
  if (!report.empty()) report.write(p.json_path);
  return 0;
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) { return wcq::bench::run(argc, argv); }
