// Schedule-exploration driver (DESIGN.md §11): runs per-worker op scripts
// against one queue under the PCT scheduler and records everything the
// assertions need — the operation history (for the linearizability check),
// the interleaving trace (for determinism), the per-op own-step maximum (the
// bounded-step wait-freedom budget) and the watchdog flag (wedge detection).
//
// Scope is deliberately small (2-3 workers, order-2 rings): PCT's detection
// probability and the exact checker's cost both scale with history size, and
// the small-scope hypothesis — concurrency bugs manifest in few-thread,
// few-op windows — is what makes this tier informative per CPU-second.
//
// Scripts keep the number of in-flight elements at or below the capacity the
// ring was built with, mirroring the Fig 2 usage contract (a ring holds at
// most `capacity` live indices): ring enqueues then never report full, so
// any full return or FIFO violation the checker sees is a real bug, not a
// contract violation by the harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "lin_check.hpp"
#include "pct_scheduler.hpp"

namespace wcq::analysis_test {

enum class OpKind : std::uint8_t { kEnq, kDeq };

struct ScriptOp {
  OpKind kind;
  std::uint64_t value = 0;  // kEnq only
};

using Script = std::vector<ScriptOp>;

// Each worker alternates enqueue/dequeue, so it holds at most one element in
// flight and `workers` bounds the queue's occupancy. Ring element values
// must stay below the ring's capacity (they are Fig 2 indices); with
// `unique_values` off every worker enqueues its own index, with it on the
// values also encode the pair ordinal (payload-carrying layers, where the
// stronger discrimination tightens the FIFO check).
inline std::vector<Script> pairs_scripts(unsigned workers, unsigned pairs,
                                         bool unique_values) {
  std::vector<Script> scripts(workers);
  for (unsigned w = 0; w < workers; ++w) {
    for (unsigned k = 0; k < pairs; ++k) {
      const std::uint64_t v =
          unique_values ? std::uint64_t{w} * 100 + k : std::uint64_t{w};
      scripts[w].push_back({OpKind::kEnq, v});
      scripts[w].push_back({OpKind::kDeq, 0});
    }
  }
  return scripts;
}

// Each worker enqueues `burst` values, then dequeues `burst` times. No
// dequeue runs before the first worker's last enqueue, so on an
// UnboundedQueue whose segments hold fewer than `burst` elements every
// schedule finalizes a segment and appends the next. Values encode worker
// and ordinal.
inline std::vector<Script> burst_scripts(unsigned workers, unsigned burst) {
  std::vector<Script> scripts(workers);
  for (unsigned w = 0; w < workers; ++w) {
    for (unsigned k = 0; k < burst; ++k) {
      scripts[w].push_back({OpKind::kEnq, std::uint64_t{w} * 100 + k});
    }
    for (unsigned k = 0; k < burst; ++k) {
      scripts[w].push_back({OpKind::kDeq, 0});
    }
  }
  return scripts;
}

// Two workers, producer/consumer: w0 enqueues `count` distinct values,
// w1 dequeues `count` times (empties included — they must linearize).
// `count` must not exceed the ring capacity.
inline std::vector<Script> prodcon_scripts(unsigned count) {
  std::vector<Script> scripts(2);
  for (unsigned k = 0; k < count; ++k) {
    scripts[0].push_back({OpKind::kEnq, k});
    scripts[1].push_back({OpKind::kDeq, 0});
  }
  return scripts;
}

// Queue adapters: one shape for the bare rings (void enqueue — the Fig 2
// contract says they are never full in-contract), one for BoundedQueue
// (bool enqueue, spurious full tolerated when magazines are on), and
// UnboundedQueue's, which never reports full (it appends a segment).
template <typename Ring>
struct RingAdapter {
  using Queue = Ring;
  static constexpr bool kAllowSpuriousFull = false;
  static bool enq(Queue& q, std::uint64_t v) {
    q.enqueue(v);
    return true;
  }
  static std::optional<std::uint64_t> deq(Queue& q) { return q.dequeue(); }
};

template <typename Bounded, bool AllowSpuriousFull>
struct BoundedAdapter {
  using Queue = Bounded;
  static constexpr bool kAllowSpuriousFull = AllowSpuriousFull;
  static bool enq(Queue& q, std::uint64_t v) { return q.enqueue(v); }
  static std::optional<std::uint64_t> deq(Queue& q) { return q.dequeue(); }
};

template <typename Unbounded>
using UnboundedAdapter = BoundedAdapter<Unbounded, false>;

// UnboundedQueue through owned sessions: each worker acquires one on its
// first op and keeps it, so its hazard slot stays published between ops
// (DESIGN.md §8); run_schedule ends it on the worker's thread, still under
// the scheduler, through end_session().
template <typename Unbounded>
struct OwnedUnboundedAdapter {
  using Queue = Unbounded;
  static constexpr bool kAllowSpuriousFull = false;
  static bool enq(Queue& q, std::uint64_t v) {
    return q.enqueue(session(q), v);
  }
  static std::optional<std::uint64_t> deq(Queue& q) {
    return q.dequeue(session(q));
  }
  static void end_session() { held().reset(); }

 private:
  static std::optional<typename Queue::Handle>& held() {
    thread_local std::optional<typename Queue::Handle> h;
    return h;
  }
  static typename Queue::Handle& session(Queue& q) {
    if (!held()) held().emplace(q.acquire());
    return *held();
  }
};

struct ScheduleResult {
  std::vector<OpRec> history;
  std::vector<std::uint8_t> trace;
  bool watchdog_fired = false;
  std::size_t max_op_steps = 0;
  std::size_t total_steps = 0;
};

// Run one schedule: install the scheduler, execute every script to
// completion, tear down. The queue must be constructed by the caller
// *before* this runs so no construction-time atomics hit the scheduler.
template <typename Adapter>
ScheduleResult run_schedule(typename Adapter::Queue& q,
                            const std::vector<Script>& scripts,
                            PctScheduler::Config cfg) {
  const auto workers = static_cast<unsigned>(scripts.size());
  cfg.workers = workers;
  ScheduleResult result;
  {
    PctScheduler sched(cfg);
    std::atomic<std::uint64_t> clock{0};
    std::vector<std::vector<OpRec>> recs(workers);
    std::vector<std::size_t> max_steps(workers, 0);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        sched.attach(w);
        for (const ScriptOp& op : scripts[w]) {
          const std::size_t s0 = sched.own_steps(w);
          OpRec r;
          r.thread = w;
          r.is_enq = op.kind == OpKind::kEnq;
          r.inv = clock.fetch_add(1, std::memory_order_seq_cst);
          if (r.is_enq) {
            r.value = op.value;
            r.ok = Adapter::enq(q, op.value);
          } else {
            const auto v = Adapter::deq(q);
            r.ok = v.has_value();
            r.value = v.value_or(0);
          }
          r.res = clock.fetch_add(1, std::memory_order_seq_cst);
          recs[w].push_back(r);
          const std::size_t steps = sched.own_steps(w) - s0;
          if (steps > max_steps[w]) max_steps[w] = steps;
        }
        if constexpr (requires { Adapter::end_session(); }) {
          Adapter::end_session();
        }
        sched.finish();
      });
    }
    for (auto& t : threads) t.join();
    for (unsigned w = 0; w < workers; ++w) {
      result.history.insert(result.history.end(), recs[w].begin(),
                            recs[w].end());
      if (max_steps[w] > result.max_op_steps) {
        result.max_op_steps = max_steps[w];
      }
    }
    result.trace = sched.trace();
    result.watchdog_fired = sched.watchdog_fired();
    result.total_steps = sched.total_steps();
  }  // ~PctScheduler uninstalls the hooks before the queue is torn down
  return result;
}

}  // namespace wcq::analysis_test
