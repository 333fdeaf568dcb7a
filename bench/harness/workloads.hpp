// Benchmark workloads and parameters reproducing the paper's §6 methodology.
//
// Workloads (one per figure panel, plus the scaling additions):
//   pairs    — Enqueue immediately followed by Dequeue, in a tight loop
//              (Fig 11b / 12b "Pairwise Enqueue-Dequeue").
//   p5050    — every operation is Enqueue or Dequeue with probability 1/2
//              (Fig 11c / 12c "50%/50% Enqueue-Dequeue").
//   empty    — Dequeue in a tight loop on an empty queue
//              (Fig 11a / 12a "Empty Dequeue throughput").
//   memory   — p5050 with tiny random delays between operations; measures
//              allocator growth rather than only throughput (Fig 10).
//   burst    — alternating bursts of `batch` enqueues then `batch` dequeues
//              (producer/consumer phases): bursty occupancy plus
//              backpressure, the shape sharded front-ends are built for.
//   p8to1    — skewed roles, ~8 producers per consumer: the minority
//              (threads/9, at least 1) of workers only dequeue, the rest
//              only enqueue. The natural stressor for MPSC rings and the
//              sharded pipeline mode (DESIGN.md §13): with <= 17 threads
//              there is exactly one consumer, so the consumer-role counter
//              split below gates the zero-F&A/zero-threshold claim.
//   p1to8    — the dual, ~8 consumers per producer (the SPMC stressor):
//              the minority only enqueues, the rest only dequeue.
//
// `batch > 1` routes pairs/p5050/empty/burst through the adapters' batch
// path (enqueue_bulk/dequeue_bulk) when the adapter provides one; reported
// ops always count attempted operations, batched or not.
//
// Methodology knobs follow the paper: each point is measured `runs` times
// for `ops` operations; the mean and coefficient of variation are reported.
// Defaults are CI-sized; WCQ_BENCH_FULL=1 or --full selects the paper's
// 10 x 10,000,000 configuration.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

namespace wcq::bench {

enum class Workload { kPairs, kP5050, kEmptyDeq, kMemory, kBurst, kP8to1,
                      kP1to8 };

const char* workload_name(Workload w);

// Role split for the skewed-ratio workloads. Both assign the first
// `skewed_minority(threads)` worker indices to the minority role, so every
// point has at least one worker of each role and the 8:1 ratio is exact at
// 9, 18, ... threads. Symmetric workloads have no roles (consumer == false
// for all, by convention).
inline bool workload_skewed(Workload w) {
  return w == Workload::kP8to1 || w == Workload::kP1to8;
}
inline unsigned skewed_minority(unsigned threads) {
  return threads > 9 ? threads / 9 : 1;
}
inline bool skewed_consumer(Workload w, unsigned thread_index,
                            unsigned threads) {
  const unsigned m = skewed_minority(threads);
  return w == Workload::kP8to1 ? thread_index < m : thread_index >= m;
}

struct BenchParams {
  // Batch spans are staged through fixed worker-local buffers; parse() clamps
  // --batch to this.
  static constexpr unsigned kMaxBatch = 256;

  std::vector<unsigned> thread_counts;
  std::uint64_t ops = 200000;  // total operations per measurement run
  unsigned runs = 3;
  bool pin = true;  // worker t pins to cpu t % cpu_count()
  // Set by each panel, not by a flag: a panel is one workload.
  Workload workload = Workload::kPairs;
  // memory workload: delay up to this many spin iterations between ops
  unsigned max_delay_spins = 64;
  // span per bulk call (1 = single-op path); also the burst length
  unsigned batch = 1;
  bool batch_set = false;  // --batch or WCQ_BENCH_BATCH given explicitly
  // when non-empty, drivers append a machine-readable report here
  std::string json_path;
  // queue-name filter; empty = all queues in the binary
  std::vector<std::string> only;
  // Driver-local `--name=value` flags: parse() accepts exactly the names its
  // caller lists and stores their values here ("" when not given).
  std::map<std::string, std::string> extra;
  std::string prog;  // argv[0] basename, for usage errors

  // Parse --threads=1,2,4 --ops=N --runs=N --batch=N --json=PATH
  // --no-pin --full
  // --only=wCQ,SCQ  plus WCQ_BENCH_* env fallbacks. Any other flag, or a
  // zero or non-numeric count, exits 2 through usage_error().
  static BenchParams parse(int argc, char** argv,
                           std::initializer_list<const char*> extra_flags = {});

  // Prints "<prog>: bad argument '<arg>': <why>" and the usage line, exit 2.
  [[noreturn]] void usage_error(const std::string& arg,
                                const std::string& why) const;

  bool selected(const std::string& queue_name) const;
};

// The items of a comma-separated list, empty items dropped.
std::vector<std::string> split_list(const std::string& s);

// Default thread sweep mirroring the paper's 1..144 progression, scaled to
// this machine: powers of two up to nproc, nproc itself, and 2x nproc (the
// paper's oversubscription tail).
std::vector<unsigned> default_thread_counts();

}  // namespace wcq::bench
