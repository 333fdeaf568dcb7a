// Degree-specialized ring A/B (MpscRing/SpmcRing in src/core/scq.hpp, DESIGN.md
// §13): what deleting the consumer-side F&A/threshold machinery buys when
// the workload actually has one consumer (or one producer).
//
//   P1  p8to1 fan-in — the minority role is the single consumer. Series:
//       the raw MpscRing against the full-MPMC SCQ it was derived from,
//       and ShardedQueue Mode::kPipeline (MPSC shards, pinned owning
//       consumers) against the full-MPMC Sharded-wCQ at the same shard
//       count. The sharded pair is the PR acceptance A/B: committed as
//       BENCH_PR8.json and gated at >= 1.2x by bench/check_pipeline.py.
//   P2  p1to8 fan-out — the minority role is the single producer; the raw
//       SpmcRing against SCQ.
//
// Raw Mpsc/Spmc points are only measured where the minority role is exactly
// one worker (skewed_minority(threads) == 1) — a wider minority would be a
// second consumer/producer session, which those rings trap by design. The
// sharded/SCQ series have no such restriction; the pipeline adapter divides
// the shards among skewed_minority(threads) consumers, communicated per
// point through g_pipeline_consumers.
//
// Beyond throughput, the roles table / JSON carry the per-role counter
// split: the MPSC consumer column must read exactly 0 F&As and 0 threshold
// RMWs per op — the deterministic, 1-core-safe CI gate in check_pipeline.py.
//
// Sizing caveat: the skewed workloads enqueue without a matching drain, so
// cumulative production can exceed ring capacity. The sharded adapters
// report full as real backpressure (a counted attempt), but the raw-ring
// adapters loop on full — and once the lone consumer has finished its
// attempt quota nothing drains, so the producers would spin forever. Keep
// --ops below the raw ring capacity (or raise WCQ_BENCH_ORDER); the driver
// warns when a sweep is configured past that bound.
//
// Flags as the other drivers; WCQ_BENCH_ORDER / WCQ_BENCH_SHARDS /
// WCQ_BENCH_SHARD_ORDER size the rings and the sharded pair.
#include <cstdio>
#include <vector>

#include "harness/adapters.hpp"
#include "harness/runner.hpp"

namespace wcq::bench {
namespace {

// One series over the thread sweep. `minority_one_only` marks the raw
// degree-restricted rings: points whose minority role is wider than one
// worker are skipped (printed as "-" in the tables), not measured-and-
// trapped. Every point publishes its consumer count for the pipeline
// adapter before measuring.
template <typename Adapter>
void run_sweep(const BenchParams& p, bool minority_one_only,
               std::vector<Series>& out) {
  if (!p.selected(Adapter::kName)) return;
  Series s;
  s.name = Adapter::kName;
  for (unsigned t : p.thread_counts) {
    const unsigned minority = skewed_minority(t);
    if (minority_one_only && minority != 1) {
      std::fprintf(stderr,
                   "  [%s] %u thread(s): skipped (minority role is %u wide; "
                   "the ring admits exactly one)\n",
                   s.name.c_str(), t, minority);
      continue;
    }
    g_pipeline_consumers = minority;
    std::fprintf(stderr, "  [%s] %u thread(s)...\n", s.name.c_str(), t);
    s.points.push_back(measure_point<Adapter>(p, t));
  }
  out.push_back(std::move(s));
}

void run_pipeline(const BenchParams& p) {
  // Conservative bound (produced <= ops): past raw ring capacity the
  // producer-majority points can fill the ring after the consumer's quota
  // is spent, and the raw adapters' looping enqueue never returns.
  const u64 raw_capacity = u64{1} << ring_order();
  if (p.ops > raw_capacity) {
    std::fprintf(stderr,
                 "bench_pipeline: WARNING --ops=%llu exceeds raw ring "
                 "capacity %llu; skewed points may never terminate "
                 "(raise WCQ_BENCH_ORDER or lower --ops)\n",
                 static_cast<unsigned long long>(p.ops),
                 static_cast<unsigned long long>(raw_capacity));
  }
  JsonReport report;
  {
    BenchParams q = p;
    q.workload = Workload::kP8to1;
    print_preamble("Pipeline P1",
                   "fan-in p8to1: MPSC ring / pipeline shards vs MPMC", q);
    std::printf("# order=%u shards=%u shard_order=%u\n", ring_order(),
                sharded_shard_count(), sharded_shard_order());
    std::vector<Series> series;
    run_sweep<MpscAdapter>(q, /*minority_one_only=*/true, series);
    run_sweep<ScqAdapter>(q, false, series);
    run_sweep<ShardedPipelineAdapter>(q, false, series);
    run_sweep<ShardedAdapter>(q, false, series);
    print_throughput_table(series, q.thread_counts);
    print_ringops_table(series, q.thread_counts);
    print_roles_table(series, q.thread_counts);
    print_cv_note(series);
    report.add_panel("fan-in p8to1: MPSC ring / pipeline shards vs MPMC", q,
                     series);
    std::printf("\n");
  }
  {
    BenchParams q = p;
    q.workload = Workload::kP1to8;
    print_preamble("Pipeline P2", "fan-out p1to8: SPMC ring vs MPMC", q);
    std::printf("# order=%u\n", ring_order());
    std::vector<Series> series;
    run_sweep<SpmcAdapter>(q, /*minority_one_only=*/true, series);
    run_sweep<ScqAdapter>(q, false, series);
    print_throughput_table(series, q.thread_counts);
    print_ringops_table(series, q.thread_counts);
    print_roles_table(series, q.thread_counts);
    print_cv_note(series);
    report.add_panel("fan-out p1to8: SPMC ring vs MPMC", q, series);
  }
  if (!p.json_path.empty()) report.write(p.json_path);
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) {
  wcq::bench::BenchParams p = wcq::bench::BenchParams::parse(argc, argv);
  wcq::bench::run_pipeline(p);
  return 0;
}
