// perfbench: runs one workload of the repository benchmark and prints its
// metrics, then one JSON line as the last line of standard output.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// --trace 0 measures the named workload untraced and reports the
// end-to-end metrics. --trace 1 reports the per-layer metrics: every
// workload is run traced (each layer's metrics come from the workload that
// loads it), the layer ladder replays the p5050 mix rung by rung, and the
// named workload is also run untraced to give the tracing overhead.
// The exit code is 0 only when every item was delivered exactly once and in
// order wherever the queue promises FIFO, the output check's self-test
// flagged its lossy and reordering adapters, and no run was invalid (an
// open-loop generator or its receivers that fell behind the schedule).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using namespace pb;

const char* const kWorkloads[] = {"mpmc_p5050", "sharded_pipeline",
                                  "channel_openloop", "unbounded_burst"};

// Set-ups per end-to-end run: setup_s is their median.
constexpr int kSetups = 9;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "{mpmc_p5050|sharded_pipeline|channel_openloop|"
               "unbounded_burst} --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n");
  return 2;
}

void print_json(bool correct, u64 attempted, u64 failed,
                const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), v,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<Metric> end_to_end(const Pass& p) {
  return {
      {"setup_s", median(p.setup_s), "s"},
      {"ops_mops", p.ops_mops, "Mop/s"},
      {"items_mps", p.items_mps, "Mitem/s"},
      {"handoff_p50_us", p.handoff_p50_us, "us"},
      {"consumer_cpu_ns_per_item", p.cpu_ns_per_item, "ns"},
      {"peak_mib", p.peak_mib, "MiB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) {
      return usage();
    } else if (k == "--workload") {
      a.workload = argv[++i];
      for (const char* w : kWorkloads) have_workload |= a.workload == w;
    } else if (k == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--trace-dir") {
      a.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }

  if (!have_workload || !(a.seconds > 0) || a.seconds > 120) return usage();
  std::string detail;
  const bool check_ok = self_test(detail);
  std::printf("self-test: %s\n",
              check_ok ? "the output check flagged the lossy and reordering "
                         "adapters and passed the honest one"
                       : detail.c_str());

  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  u64 attempted = 0, failed = 0;
  bool valid = true;
  auto tally = [&](const Pass& p) {
    attempted += p.attempted;
    failed += p.failed;
    valid = valid && p.valid;
    notes.insert(notes.end(), p.notes.begin(), p.notes.end());
  };

  if (!a.trace) {
    const Pass p = run_workload(a.workload, a, a.seconds, kSetups, false);
    tally(p);
    metrics = end_to_end(p);
    std::string line = a.workload + ": setup_s is the median of";
    for (double s : p.setup_s) {
      char v[32];
      std::snprintf(v, sizeof v, " %.5f", s);
      line += v;
    }
    notes.push_back(line + " s");
  } else {
    // Shares of --seconds: the named workload untraced (the overhead
    // baseline), each workload traced, and the ladder.
    const double share = a.seconds * 0.15;
    const Pass base = run_workload(a.workload, a, share, 1, false);
    tally(base);
    double traced_cpu = 0;
    for (const char* w : kWorkloads) {
      const Pass p = run_workload(w, a, share, 1, true);
      tally(p);
      metrics.insert(metrics.end(), p.layer.begin(), p.layer.end());
      if (a.workload == w) traced_cpu = p.thread_cpu_ns_per_item;
    }
    const Pass ladder = run_ladder(a, a.seconds * 0.25);
    tally(ladder);
    metrics.insert(metrics.end(), ladder.layer.begin(), ladder.layer.end());
    metrics.push_back(
        {"bench.trace_overhead_frac",
         base.thread_cpu_ns_per_item > 0
             ? traced_cpu / base.thread_cpu_ns_per_item - 1.0
             : 0.0,
         "frac"});
    notes.emplace_back(
        "unavailable: hardware cycle/instruction/cache counters "
        "(perf_event_open is not available on the reference host)");
  }

  for (const std::string& n : notes) {
    std::printf("%s%s", n.c_str(), !n.empty() && n.back() == '\n' ? "" : "\n");
  }
  const double frac =
      attempted == 0 ? 0.0
                     : static_cast<double>(failed) / static_cast<double>(attempted);
  for (const Metric& m : metrics) {
    std::printf("metric %-40s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("check: %llu items sent, %llu lost/duplicated/reordered, "
              "failed_frac %.6g\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), frac);
  const bool correct = check_ok && failed == 0 && attempted > 0 && valid;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
