// The p5050 mix (paper §6, Fig 11c): every thread holds one session and
// flips a seeded coin per operation between enqueue and dequeue. It drives
// mpmc_p5050, every rung of the layer ladder and the output-check self-test,
// through small adapters that give each queue the same three calls:
// session(), enq(session, item) and deq(session), plus kLanes: 1 for a FIFO
// queue, 0 for ShardedQueue, whose MPMC sweep keeps no order across shards.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/bounded_queue.hpp"
#include "core/wcq.hpp"
#include "crew.hpp"
#include "runtime/channel.hpp"
#include "scale/sharded_queue.hpp"

namespace pb {

// Capacity of every p5050 queue: 2^8 items. Under a 50/50 coin the depth is
// a random walk between empty and full that mixes in about capacity^2 ops:
// a 256-item queue mixes many times within one timed round, where a 2^16
// ring would drift as sqrt(t) for the whole run and make every
// depth-dependent figure (such as the empty share) a function of the seed.
constexpr unsigned kP5050Order = 8;

// Ladder rung 1: the aq ring alone. Indices name payload slots; each session
// owns a private stack of free indices in place of the fq ring, so at most
// capacity() indices are ever live (the ring's precondition).
class RingAdapter {
 public:
  static constexpr unsigned kLanes = 1;
  struct S {
    wcq::WCQ::Handle h;
    std::vector<u64> free;
  };
  RingAdapter(unsigned order, unsigned sessions)
      : ring_(order), data_(ring_.capacity()),
        share_(ring_.capacity() / sessions) {}

  S session() {
    S s{ring_.handle(), {}};
    s.free.reserve(ring_.capacity());
    const u64 first = next_.fetch_add(share_);
    for (u64 i = first; i < first + share_ && i < ring_.capacity(); ++i) {
      s.free.push_back(i);
    }
    return s;
  }
  bool enq(S& s, u64 v) {
    if (s.free.empty()) return false;
    const u64 idx = s.free.back();
    s.free.pop_back();
    data_[idx] = v;
    ring_.enqueue(s.h, idx);
    return true;
  }
  std::optional<u64> deq(S& s) {
    const auto idx = ring_.dequeue(s.h);
    if (!idx) return std::nullopt;
    s.free.push_back(*idx);
    return data_[*idx];
  }

 private:
  wcq::WCQ ring_;
  std::vector<u64> data_;
  u64 share_;
  std::atomic<u64> next_{0};
};

// Rungs 2 and 3, and mpmc_p5050: BoundedQueue<u64, WCQ> with or without
// index magazines.
class BoundedAdapter {
 public:
  static constexpr unsigned kLanes = 1;
  using Q = wcq::BoundedQueue<u64>;
  using S = Q::Handle;
  explicit BoundedAdapter(bool magazines)
      : q_(Q::Options{kP5050Order, {.enabled = magazines}}) {}
  S session() { return q_.acquire(); }
  bool enq(S& s, u64 v) { return q_.enqueue(s, v); }
  std::optional<u64> deq(S& s) { return q_.dequeue(s); }

 private:
  Q q_;
};

// Rung 4: ShardedQueue<u64, WCQ>, four shards of the same total capacity.
class ShardedAdapter {
 public:
  static constexpr unsigned kLanes = 0;
  using Q = wcq::ShardedQueue<u64>;
  using S = Q::Handle;
  ShardedAdapter() : q_(Q::Options{.shards = 4, .shard_order = kP5050Order - 2}) {}
  S session() { return q_.acquire(); }
  bool enq(S& s, u64 v) { return q_.enqueue(s, v); }
  std::optional<u64> deq(S& s) { return q_.dequeue(s); }

 private:
  Q q_;
};

// Rung 5: Channel<u64> over BoundedQueue, non-blocking calls.
class ChannelAdapter {
 public:
  static constexpr unsigned kLanes = 1;
  using C = wcq::Channel<u64>;
  using S = C::Handle;
  ChannelAdapter() : c_(kP5050Order) {}
  S session() { return c_.acquire(); }
  bool enq(S& s, u64 v) { return c_.try_send(s, v) == wcq::ChanStatus::kOk; }
  std::optional<u64> deq(S& s) {
    u64 out = 0;
    if (c_.try_recv(s, out) != wcq::ChanStatus::kOk) return std::nullopt;
    return out;
  }

 private:
  C c_;
};

// Self-test adapters: the output check must flag both.
// Lossy drops every 97th dequeued item.
class LossyAdapter {
 public:
  static constexpr unsigned kLanes = 1;
  struct S {
    BoundedAdapter::S s;
    u64 n = 0;
  };
  LossyAdapter() : in_(true) {}
  S session() { return S{in_.session()}; }
  bool enq(S& s, u64 v) { return in_.enq(s.s, v); }
  std::optional<u64> deq(S& s) {
    auto v = in_.deq(s.s);
    if (v && ++s.n % 97 == 0) v = in_.deq(s.s);
    return v;
  }

 private:
  BoundedAdapter in_;
};

// Reorder hands out the second of two dequeued items first.
class ReorderAdapter {
 public:
  static constexpr unsigned kLanes = 1;
  struct S {
    BoundedAdapter::S s;
    std::optional<u64> held;
  };
  ReorderAdapter() : in_(true) {}
  S session() { return S{in_.session(), std::nullopt}; }
  bool enq(S& s, u64 v) { return in_.enq(s.s, v); }
  std::optional<u64> deq(S& s) {
    if (s.held) return std::exchange(s.held, std::nullopt);
    auto a = in_.deq(s.s);
    if (!a) return a;
    auto b = in_.deq(s.s);
    if (!b) return a;
    s.held = a;
    return b;
  }

 private:
  BoundedAdapter in_;
};

// One p5050 worker. kTraced wraps each queue call (and its loop step) in a
// span; the untraced instantiation carries no tracing code at all.
template <bool kTraced, typename A>
void p5050_thread(A& a, unsigned tid, unsigned nthreads, u64 seed,
                  const Rounds& rounds, Worker& w, Ready& ready,
                  u64 warm_ops) {
  auto s = a.session();
  Rng rng(seed, tid);
  w.ledger = Ledger(nthreads, A::kLanes);
  u64 seq = 0, bits = 0, op = 0;
  unsigned left = 0;
  bool warm = true;
  while (w.tick(rounds)) {
    if (warm && op >= warm_ops) {
      warm = false;
      ready.signal();
    }
    if (left == 0) {
      bits = rng.next();
      left = 64;
    }
    const bool enq = (bits & 1) != 0;
    bits >>= 1;
    --left;
    Slice& sl = w.slice();
    ++sl.ops;
    [[maybe_unused]] u64 t0 = 0;
    [[maybe_unused]] u32 root = SpanLog::kNone;
    [[maybe_unused]] const bool keep = kTraced && SpanLog::keep(op);
    if constexpr (kTraced) {
      t0 = ticks();
      root = w.spans.begin(kOp, SpanLog::kNone, op, t0, keep);
    }
    if (enq) {
      bool ok;
      if constexpr (kTraced) {
        const u64 c0 = ticks();
        const u32 id = w.spans.begin(kBoundedEnq, root, op, c0, keep);
        ok = a.enq(s, make_item(tid, seq));
        w.spans.end(id, kBoundedEnq, c0, ticks());
      } else {
        ok = a.enq(s, make_item(tid, seq));
      }
      if (ok) ++seq;
    } else {
      std::optional<u64> v;
      if constexpr (kTraced) {
        const u64 c0 = ticks();
        const u32 id = w.spans.begin(kBoundedDeq, root, op, c0, keep);
        v = a.deq(s);
        w.spans.end(id, kBoundedDeq, c0, ticks());
      } else {
        v = a.deq(s);
      }
      if (v) {
        w.ledger.take(*v);
        ++sl.items;
      }
    }
    if constexpr (kTraced) w.spans.end(root, kOp, t0, ticks());
    ++op;
  }
  w.sent = seq;
}

// Everything one p5050 crew produced, after the final drain and check.
struct P5050Result {
  std::unique_ptr<Rounds> rounds;
  std::vector<Worker> workers;
  double setup_s = 0;
  u64 attempted = 0;
  u64 failed = 0;
};

// Constructs the adapter (timed as set-up), runs `nthreads` p5050 workers
// through `rounds` rounds of `round_s`, drains what is left on this thread
// and checks the delivery. `timed` false stops right after set-up.
template <bool kTraced, typename A, typename Make>
P5050Result run_p5050(Make make, unsigned nthreads, u64 seed, int rounds,
                      double round_s, bool timed, u64 warm_ops) {
  P5050Result res;
  res.rounds = std::make_unique<Rounds>(rounds);
  res.workers.reserve(nthreads);
  for (unsigned i = 0; i < nthreads; ++i) res.workers.emplace_back(rounds);
  const u64 t0 = thread_cpu_ns();
  std::unique_ptr<A> a = make();
  res.setup_s = run_crew(
      nthreads, *res.rounds, res.workers,
      [&](unsigned i, Worker& w, Ready& ready) {
        p5050_thread<kTraced>(*a, i, nthreads, seed, *res.rounds, w, ready,
                              warm_ops);
      },
      t0, timed, round_s);
  std::vector<Ledger> ledgers;
  std::vector<u64> sent;
  for (Worker& w : res.workers) {
    ledgers.push_back(w.ledger);
    sent.push_back(w.sent);
    res.attempted += w.sent;
  }
  {
    Ledger drain(nthreads, A::kLanes);
    auto s = a->session();
    while (auto v = a->deq(s)) drain.take(*v);
    ledgers.push_back(drain);
  }
  res.failed = Ledger::failures(ledgers, sent);
  return res;
}

}  // namespace pb
