// The four workloads and the layer ladder. Each run_* function is one pass:
// `setups` set-ups (all but the last torn down straight after warm-up, the
// last followed by a timed window of `window_s` seconds), the final drain
// and the output check.
#pragma once

#include <string>
#include <vector>

#include "util.hpp"

namespace pb {

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where traced passes write their span files
};

// One pass's results. The end-to-end fields are filled by every pass;
// `layer` only by traced passes (and the ladder).
struct Pass {
  std::vector<double> setup_s;
  double ops_mops = 0;
  double items_mps = 0;
  double handoff_p50_us = 0;
  double handoff_p99_us = 0;  // channel_openloop only
  double cpu_ns_per_item = 0;         // consumer threads' CPU per item
  double thread_cpu_ns_per_item = 0;  // every worker's CPU per item
  double peak_mib = 0;
  u64 attempted = 0;
  u64 failed = 0;
  bool valid = true;  // false when the run did not measure what it claims
  std::vector<Metric> layer;
  std::vector<std::string> notes;
};

constexpr unsigned kThreads = 4;

Pass run_mpmc_p5050(const Args& a, double window_s, int setups, bool traced);
Pass run_sharded_pipeline(const Args& a, double window_s, int setups,
                          bool traced);
Pass run_channel_openloop(const Args& a, double window_s, int setups,
                          bool traced);
Pass run_unbounded_burst(const Args& a, double window_s, int setups,
                         bool traced);
Pass run_workload(const std::string& name, const Args& a, double window_s,
                  int setups, bool traced);

// Replays the mpmc_p5050 mix rung by rung (ring, BoundedQueue without and
// with magazines, ShardedQueue, Channel) and reports each layer's ns/op by
// difference, next to each rung's op-counter deltas.
Pass run_ladder(const Args& a, double window_s);

// Runs the output check against a lossy and a reordering adapter (both must
// be flagged) and an honest one (must pass). Returns false with `detail`
// set when the check misbehaves.
bool self_test(std::string& detail);

}  // namespace pb
