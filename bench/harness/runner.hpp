// Table-driven bench runner: sweeps thread counts for a set of queue
// adapters and prints one paper-style series per queue.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "harness/measure.hpp"
#include "harness/workloads.hpp"

namespace wcq::bench {

struct Series {
  std::string name;
  std::vector<PointResult> points;
};

void print_preamble(const std::string& figure, const std::string& caption,
                    const BenchParams& p);
// One table per metric: a row per thread count, a column per series, each
// cell the metric's per-point mean in the metric table's format ("-" for
// a skipped point). Only metrics whose kMetrics row has a caption print.
// The counter metrics are wall-clock-independent, so they stay meaningful
// on the 1-core CI host.
void print_metric_table(Metric m, const std::vector<Series>& series,
                        const std::vector<unsigned>& threads);
// Role-split ring counters for the skewed workload (p8to1, DESIGN.md §13):
// consumer-role and producer-role F&As + threshold RMWs per op executed by
// that role. The consumer column is the degree-specialization claim — an
// MPSC consumer path must print 0.000|0.000 — and is gated by the pipeline
// CI gate.
void print_roles_table(const std::vector<Series>& series,
                       const std::vector<unsigned>& threads);
void print_cv_note(const std::vector<Series>& series);

// Machine-readable run report: panels add one entry per table they print
// and the driver writes the whole thing when BenchParams::json_path is set
// (CI uploads the smoke-run reports as workflow artifacts).
class JsonReport {
 public:
  void add_panel(const std::string& caption, const BenchParams& p,
                 const std::vector<Series>& series);
  bool empty() const { return panels_.empty(); }
  std::size_t series_count() const;
  // Writes the collected panels; no-op when path is empty. Returns false
  // (with a note on stderr) if the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  struct Panel {
    std::string caption;
    BenchParams params;  // workload, ops, runs and batch go in the report
    std::vector<Series> series;
  };
  std::vector<Panel> panels_;
};

// Why a sweep point is left unmeasured, or "" to measure it.
using SkipFn = std::function<std::string(unsigned threads)>;

// Measure one adapter across the sweep as series `name` (default: the
// adapter's name). --only selects by either name. A point `skip` rejects is
// reported on stderr and left out of the series ("-" in the tables).
template <typename Adapter>
void run_series(const BenchParams& p, std::vector<Series>& out,
                std::string name = Adapter::kName, const SkipFn& skip = {}) {
  if (!p.selected(name) && !p.selected(Adapter::kName)) return;
  Series s;
  s.name = std::move(name);
  for (unsigned t : p.thread_counts) {
    if (const std::string why = skip ? skip(t) : ""; !why.empty()) {
      std::fprintf(stderr, "  [%s] %u thread(s): skipped (%s)\n",
                   s.name.c_str(), t, why.c_str());
      continue;
    }
    std::fprintf(stderr, "  [%s] %u thread(s)...\n", s.name.c_str(), t);
    s.points.push_back(measure_point<Adapter>(p, t));
  }
  out.push_back(std::move(s));
}

}  // namespace wcq::bench
