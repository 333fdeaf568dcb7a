// Closed-loop thread crews: per-thread round records, the set-up clock and
// the per-round aggregation every closed-loop workload reports through.
#pragma once

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "check.hpp"
#include <pthread.h>

#include "common/alloc_meter.hpp"
#include "common/cpu.hpp"
#include "common/op_counters.hpp"
#include "runtime/thread_registry.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace pb {

// One thread's tallies for one phase of the round clock, a cache line of
// its own: the owner bumps it every op.
struct alignas(64) Slice {
  u64 ops = 0;     // attempted queue ops; a full or empty attempt counts
  u64 items = 0;   // items delivered, counted once at their consumer
  u64 cpu_ns = 0;  // thread CPU time spent in the phase
};

// One worker thread's state and results. tick() is called once per loop
// step: it notices phase changes (charging CPU time to the phase that
// ended, snapshotting the op counters around the timed window) and returns
// false once the round clock has stopped.
struct Worker {
  explicit Worker(int rounds) : slices(rounds + 2) {}

  bool tick(const Rounds& r) {
    const int p = r.phase();
    if (p != cur) change(p, r);
    return !r.stopped(p);
  }
  Slice& slice() { return slices[cur]; }

  // Pins the calling thread to CPU `cpu` for set-up only: warm-up then
  // never waits for the load balancer to spread a fresh crew (that wait
  // moved setup_s by a third from run to run). The first timed round
  // restores the affinity the thread started with.
  void pin_for_setup(unsigned cpu) {
    if (!unpin_) {
      CPU_ZERO(&mask_);
      unpin_ = pthread_getaffinity_np(pthread_self(), sizeof mask_, &mask_) == 0;
    }
    wcq::pin_thread(cpu);
  }

  std::vector<Slice> slices;  // index = phase
  Ledger ledger;
  u64 sent = 0;
  wcq::opcount::Counters oc_begin{}, oc_end{};
  std::int64_t allocs_begin = 0, allocs_end = 0;  // alloc_meter events
  u64 shorts = 0;  // bulk calls that took fewer items than offered
  SpanLog spans;   // traced passes only

 private:
  void change(int p, const Rounds& r) {
    const u64 cpu = thread_cpu_ns();
    if (cur >= 0) slices[cur].cpu_ns += cpu - cpu_mark;
    cpu_mark = cpu;
    if (cur < 1 && p >= 1) {
      if (unpin_) pthread_setaffinity_np(pthread_self(), sizeof mask_, &mask_);
      oc_begin = wcq::opcount::snapshot();
      allocs_begin = wcq::alloc_meter::total_allocations();
    }
    if (r.stopped(p) && !r.stopped(cur)) {
      oc_end = wcq::opcount::snapshot();
      allocs_end = wcq::alloc_meter::total_allocations();
    }
    cur = p;
  }
  int cur = -1;
  u64 cpu_mark = 0;
  cpu_set_t mask_{};
  bool unpin_ = false;
};

// Set-up barrier: each worker signals once, adding the CPU time it has
// used so far; the caller sleeps until all have, so it never competes with
// the warm-up for a CPU.
class Ready {
 public:
  void signal() {
    cpu_.fetch_add(thread_cpu_ns(), std::memory_order_relaxed);
    n_.fetch_add(1, std::memory_order_release);
    n_.notify_all();
  }
  // Returns the CPU time the signalling threads used up to their signals.
  u64 wait(unsigned n) {
    for (unsigned v; (v = n_.load(std::memory_order_acquire)) < n;) {
      n_.wait(v, std::memory_order_acquire);
    }
    return cpu_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<unsigned> n_{0};
  std::atomic<u64> cpu_{0};
};

// Runs `n` threads of `body(i, worker, ready)`. Thread i sets up on CPU i
// and runs the timed window unpinned: a crew as large as the host lets the
// scheduler move a worker off a CPU another tenant or the round clock
// needs, which measured steadier than a fixed placement. Every body
// signals `ready` once its handles are attached and its warm-up is done;
// then the round clock runs (timed) or stops at once.
//
// Returns the set-up time in seconds as CPU time: the caller's since `t0`
// (its thread_cpu_ns() before it constructed the queue) plus each worker's
// up to its signal. Wall time counted whatever else ran on the crew's CPUs:
// one busy CPU made it five times longer, and the host's other tenants
// made it vary tenfold from run to run.
inline double run_crew(unsigned n, Rounds& rounds, std::vector<Worker>& ws,
                       const std::function<void(unsigned, Worker&, Ready&)>& body,
                       u64 t0, bool timed, double round_s) {
  Ready ready;
  std::atomic<unsigned> turn{0};
  std::vector<std::thread> ts;
  ts.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    ts.emplace_back([&, i] {
      ws[i].pin_for_setup(i);
      // Register in index order: thread i then holds the same registry tid,
      // and with it the same home shard, on every run.
      for (unsigned t; (t = turn.load(std::memory_order_acquire)) != i;) {
        turn.wait(t, std::memory_order_acquire);
      }
      wcq::ThreadRegistry::tid();
      turn.fetch_add(1, std::memory_order_release);
      turn.notify_all();
      body(i, ws[i], ready);
    });
  }
  const u64 workers = ready.wait(n);
  const double setup =
      static_cast<double>(thread_cpu_ns() - t0 + workers) * 1e-9;
  if (timed) {
    rounds.drive(round_s);
  } else {
    rounds.stop();
  }
  for (auto& t : ts) t.join();
  return setup;
}

// Per-round sums over a crew, reported as medians over the timed rounds.
struct CrewStats {
  CrewStats(const std::vector<Worker>& ws, const Rounds& r) : ws_(ws), r_(r) {}

  template <typename F>
  double median_per_round(F f) const {
    std::vector<double> v;
    for (int k = 1; k <= r_.rounds(); ++k) {
      Slice sum;
      for (const Worker& w : ws_) {
        const Slice& s = w.slices[k];
        sum.ops += s.ops;
        sum.items += s.items;
        sum.cpu_ns += s.cpu_ns;
      }
      v.push_back(f(sum, r_.seconds(k)));
    }
    return median(v);
  }
  double ops_per_s() const {
    return median_per_round([](const Slice& s, double sec) {
      return static_cast<double>(s.ops) / sec;
    });
  }
  double items_per_s() const {
    return median_per_round([](const Slice& s, double sec) {
      return static_cast<double>(s.items) / sec;
    });
  }
  // Wall time a consumer spends per item it receives, with `consumers`
  // threads receiving: consumers / items per second.
  double ns_per_item(unsigned consumers) const {
    return median_per_round([consumers](const Slice& s, double sec) {
      return s.items == 0 ? 0.0
                          : consumers * sec * 1e9 /
                                static_cast<double>(s.items);
    });
  }
  // CPU time of workers [first, end) per item delivered by the crew.
  double cpu_ns_per_item(std::size_t first = 0) const {
    std::vector<double> v;
    for (int k = 1; k <= r_.rounds(); ++k) {
      u64 cpu = 0, items = 0;
      for (std::size_t i = 0; i < ws_.size(); ++i) {
        if (i >= first) cpu += ws_[i].slices[k].cpu_ns;
        items += ws_[i].slices[k].items;
      }
      v.push_back(items == 0 ? 0.0
                             : static_cast<double>(cpu) /
                                   static_cast<double>(items));
    }
    return median(v);
  }
  // Window totals over the timed rounds.
  Slice total() const {
    Slice sum;
    for (int k = 1; k <= r_.rounds(); ++k) {
      for (const Worker& w : ws_) {
        sum.ops += w.slices[k].ops;
        sum.items += w.slices[k].items;
      }
    }
    return sum;
  }
  wcq::opcount::Counters counters() const {
    wcq::opcount::Counters c{};
    for (const Worker& w : ws_) {
      c.faa += w.oc_end.faa - w.oc_begin.faa;
      c.threshold += w.oc_end.threshold - w.oc_begin.threshold;
      c.registry += w.oc_end.registry - w.oc_begin.registry;
      c.remote_steal += w.oc_end.remote_steal - w.oc_begin.remote_steal;
    }
    return c;
  }

 private:
  const std::vector<Worker>& ws_;
  const Rounds& r_;
};

}  // namespace pb
