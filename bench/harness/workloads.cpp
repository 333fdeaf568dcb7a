#include "harness/workloads.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/cpu.hpp"
#include "common/env.hpp"

namespace wcq::bench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPairs:
      return "pairs";
    case Workload::kP5050:
      return "p5050";
    case Workload::kEmptyDeq:
      return "empty";
    case Workload::kMemory:
      return "memory";
    case Workload::kBurst:
      return "burst";
    case Workload::kP8to1:
      return "p8to1";
    case Workload::kP1to8:
      return "p1to8";
  }
  return "?";
}

std::vector<unsigned> default_thread_counts() {
  const unsigned n = cpu_count();
  std::vector<unsigned> out;
  for (unsigned t = 1; t < n; t *= 2) out.push_back(t);
  if (out.empty() || out.back() != n) out.push_back(n);
  out.push_back(2 * n);  // oversubscribed tail (the paper's 144-thread point)
  return out;
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok = s.substr(pos, comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void BenchParams::usage_error(const std::string& arg,
                              const std::string& why) const {
  std::fprintf(stderr,
               "%s: bad argument '%s': %s\n"
               "usage: %s [--threads=N,...] [--ops=N] [--runs=N] "
               "[--batch=N] [--json=PATH] [--only=NAME,...] "
               "[--no-pin] [--full]",
               prog.c_str(), arg.c_str(), why.c_str(), prog.c_str());
  for (const auto& [name, value] : extra) {
    std::fprintf(stderr, " [%s=...]", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

BenchParams BenchParams::parse(int argc, char** argv,
                               std::initializer_list<const char*> extra_flags) {
  BenchParams p;
  const char* slash = std::strrchr(argv[0], '/');
  p.prog = slash != nullptr ? slash + 1 : argv[0];
  for (const char* name : extra_flags) p.extra[name] = "";
  // A count is a positive decimal integer that fits its field: 0 would
  // divide p.ops by zero threads or run nothing, and stoul-style prefixes
  // ("2x") hide typos.
  constexpr std::uint64_t kUnsignedMax = std::numeric_limits<unsigned>::max();
  auto count = [&p](const std::string& arg, const std::string& tok,
                    std::uint64_t max) {
    std::uint64_t n = 0;
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, n);
    if (ec != std::errc() || ptr != end || n == 0 || n > max) {
      p.usage_error(arg, "expected a positive integer");
    }
    return n;
  };
  auto counts = [&](const std::string& arg, const std::string& list) {
    std::vector<unsigned> out;
    for (const auto& tok : split_list(list)) {
      out.push_back(static_cast<unsigned>(count(arg, tok, kUnsignedMax)));
    }
    if (out.empty()) p.usage_error(arg, "expected a positive integer");
    return out;
  };

  p.thread_counts = default_thread_counts();
  p.ops = env_u64("WCQ_BENCH_OPS", p.ops);
  p.runs = static_cast<unsigned>(env_u64("WCQ_BENCH_RUNS", p.runs));
  p.pin = env_flag("WCQ_BENCH_PIN", p.pin);
  p.batch = static_cast<unsigned>(env_u64("WCQ_BENCH_BATCH", p.batch));
  p.batch_set = std::getenv("WCQ_BENCH_BATCH") != nullptr;
  if (env_flag("WCQ_BENCH_FULL", false)) {
    p.ops = 10'000'000;
    p.runs = 10;
  }
  const std::string env_threads = env_str("WCQ_BENCH_THREADS", "");
  if (!env_threads.empty()) {
    p.thread_counts = counts("WCQ_BENCH_THREADS=" + env_threads, env_threads);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string v = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (arg == "--no-pin") {
      p.pin = false;
    } else if (arg == "--full") {
      p.ops = 10'000'000;
      p.runs = 10;
    } else if (eq == std::string::npos) {
      p.usage_error(arg, "unknown flag");
    } else if (name == "--threads") {
      p.thread_counts = counts(arg, v);
    } else if (name == "--ops") {
      p.ops = count(arg, v, std::numeric_limits<std::uint64_t>::max());
    } else if (name == "--runs") {
      p.runs = static_cast<unsigned>(count(arg, v, kUnsignedMax));
    } else if (name == "--batch") {
      p.batch = static_cast<unsigned>(count(arg, v, kUnsignedMax));
      p.batch_set = true;
    } else if (name == "--json") {
      p.json_path = v;
    } else if (name == "--only") {
      p.only = split_list(v);
    } else if (auto it = p.extra.find(name); it != p.extra.end()) {
      it->second = v;
    } else {
      p.usage_error(arg, "unknown flag");
    }
  }
  if (p.runs == 0) p.runs = 1;
  if (p.batch == 0) p.batch = 1;
  if (p.batch > kMaxBatch) p.batch = kMaxBatch;
  return p;
}

bool BenchParams::selected(const std::string& queue_name) const {
  if (only.empty()) return true;
  return std::find(only.begin(), only.end(), queue_name) != only.end();
}

}  // namespace wcq::bench
