#include "harness/runner.hpp"

#include <cassert>
#include <cstddef>
#include <cstdio>

namespace wcq::bench {

void print_preamble(const std::string& figure, const std::string& caption,
                    const BenchParams& p) {
  std::printf("# %s — %s\n", figure.c_str(), caption.c_str());
  std::printf("# workload=%s ops=%llu runs=%u pin=%d\n",
              workload_name(p.workload),
              static_cast<unsigned long long>(p.ops), p.runs, p.pin ? 1 : 0);
  std::printf(
      "# (paper scale: WCQ_BENCH_FULL=1 or --full → 10 runs x 10M ops)\n");
}

namespace {

const PointResult* find_point(const Series& s, unsigned threads) {
  for (const auto& pt : s.points) {
    if (pt.threads == threads) return &pt;
  }
  return nullptr;
}

}  // namespace

void print_metric_table(Metric m, const std::vector<Series>& series,
                        const std::vector<unsigned>& threads) {
  const MetricInfo& mi = info(m);
  assert(mi.caption != nullptr && mi.fmt != nullptr);  // a printed row
  std::printf("threads");
  for (const auto& s : series) std::printf(",%s", s.name.c_str());
  std::printf("   (%s)\n", mi.caption);
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt != nullptr) {
        std::printf(",");
        std::printf(mi.fmt, (*pt)[m].mean * mi.scale);
      } else {
        std::printf(",-");
      }
    }
    std::printf("\n");
  }
}

void print_roles_table(const std::vector<Series>& series,
                       const std::vector<unsigned>& threads) {
  std::printf("threads");
  for (const auto& s : series) {
    std::printf(",%s[cons faa|thld / prod faa|thld]", s.name.c_str());
  }
  std::printf("   (per role-executed op)\n");
  for (unsigned t : threads) {
    std::printf("%7u", t);
    for (const auto& s : series) {
      const PointResult* pt = find_point(s, t);
      if (pt == nullptr) {
        std::printf(",-");
        continue;
      }
      std::printf(",%.3f|%.3f / %.3f|%.3f", (*pt)[Metric::kConsFaa].mean,
                  (*pt)[Metric::kConsThld].mean, (*pt)[Metric::kProdFaa].mean,
                  (*pt)[Metric::kProdThld].mean);
    }
    std::printf("\n");
  }
}

void print_cv_note(const std::vector<Series>& series) {
  double worst = 0.0;
  for (const auto& s : series) {
    for (const auto& pt : s.points) {
      if (pt[Metric::kMops].cv > worst) worst = pt[Metric::kMops].cv;
    }
  }
  std::printf("# worst coefficient of variation across points: %.4f%s\n",
              worst, worst < 0.01 ? " (<0.01, as in the paper)" : "");
}

void JsonReport::add_panel(const std::string& caption, const BenchParams& p,
                           const std::vector<Series>& series) {
  panels_.push_back({caption, p, series});
}

bool JsonReport::write(const std::string& path) const {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReport: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"panels\": [\n");
  for (std::size_t pi = 0; pi < panels_.size(); ++pi) {
    const Panel& p = panels_[pi];
    std::fprintf(f,
                 "    {\"caption\": \"%s\", \"workload\": \"%s\", "
                 "\"ops\": %llu, \"runs\": %u, \"batch\": %u,\n"
                 "     \"series\": [\n",
                 p.caption.c_str(), workload_name(p.params.workload),
                 static_cast<unsigned long long>(p.params.ops), p.params.runs,
                 p.params.batch);
    for (std::size_t si = 0; si < p.series.size(); ++si) {
      const Series& s = p.series[si];
      std::fprintf(f, "      {\"name\": \"%s\", \"points\": [\n",
                   s.name.c_str());
      for (std::size_t qi = 0; qi < s.points.size(); ++qi) {
        const PointResult& pt = s.points[qi];
        std::fprintf(f, "        {\"threads\": %u", pt.threads);
        for (std::size_t m = 0; m < kMetricCount; ++m) {
          std::fprintf(f, ", \"%s\": ", kMetrics[m].key);
          if (pt.metrics[m].n == 0) {
            std::fprintf(f, "null");  // not defined for this queue
            continue;
          }
          std::fprintf(f, kMetrics[m].json_fmt, pt.metrics[m].mean);
          if (static_cast<Metric>(m) == Metric::kMops) {
            std::fprintf(f, ", \"mops_cv\": %.6f", pt.metrics[m].cv);
          }
        }
        std::fprintf(f, "}%s\n", qi + 1 < s.points.size() ? "," : "");
      }
      std::fprintf(f, "      ]}%s\n",
                   si + 1 < p.series.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", pi + 1 < panels_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "JsonReport: wrote %s\n", path.c_str());
  return true;
}

}  // namespace wcq::bench
