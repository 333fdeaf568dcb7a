#include "workloads.hpp"

#include <pthread.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/alloc_meter.hpp"
#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "core/mpsc_ring.hpp"
#include "core/unbounded_queue.hpp"
#include "p5050.hpp"

namespace pb {
namespace {

// Timed rounds per window: each end-to-end figure is a median over these.
constexpr int kRounds = 20;
constexpr u64 kWarmOps = u64{1} << 12;

double peak_mib() {
  return static_cast<double>(wcq::alloc_meter::peak_bytes()) /
         (1024.0 * 1024.0);
}

double per(double num, double den) { return den == 0 ? 0.0 : num / den; }

// A closed loop has no arrival schedule to time a handoff from, so its
// handoff_p50_us is the wall time a consumer spends per item it receives:
// consumers / items_mps. It repeats items_mps and is reported only because
// every end-to-end metric is reported on every workload.
void closed_e2e(Pass& p, const CrewStats& cs, unsigned first_consumer) {
  p.ops_mops = cs.ops_per_s() * 1e-6;
  p.items_mps = cs.items_per_s() * 1e-6;
  p.handoff_p50_us = cs.ns_per_item(kThreads - first_consumer) * 1e-3;
  p.cpu_ns_per_item = cs.cpu_ns_per_item(first_consumer);
  p.thread_cpu_ns_per_item = cs.cpu_ns_per_item(0);
}

std::vector<const SpanLog*> span_logs(const std::vector<Worker>& ws) {
  std::vector<const SpanLog*> v;
  for (const Worker& w : ws) v.push_back(&w.spans);
  return v;
}

// Prints the traced pass's span summary into the notes and writes its
// span file.
TraceSummary summarize(Pass& p, const Args& a, const char* pass,
                       const std::vector<const SpanLog*>& logs,
                       const TickClock& clock) {
  const double k = clock.ns_per_tick();
  TraceSummary sum(logs, k);
  p.notes.push_back(sum.text(pass));
  if (!a.trace_dir.empty()) {
    TraceSummary::write(a.trace_dir + "/" + pass + ".spans.csv", logs,
                        clock.tk0, k);
  }
  return sum;
}

}  // namespace

// --- mpmc_p5050 -------------------------------------------------------------

Pass run_mpmc_p5050(const Args& a, double window_s, int setups, bool traced) {
  Pass p;
  auto make = [] { return std::make_unique<BoundedAdapter>(true); };
  for (int k = 0; k < setups; ++k) {
    const bool last = k + 1 == setups;
    if (last) wcq::alloc_meter::reset_peak();
    const TickClock clock;
    P5050Result r =
        traced ? run_p5050<true, BoundedAdapter>(make, kThreads, a.seed,
                                                 kRounds, window_s / kRounds,
                                                 last, kWarmOps)
               : run_p5050<false, BoundedAdapter>(make, kThreads, a.seed,
                                                  kRounds, window_s / kRounds,
                                                  last, kWarmOps);
    p.setup_s.push_back(r.setup_s);
    if (!last) continue;
    p.peak_mib = peak_mib();
    p.attempted = r.attempted;
    p.failed = r.failed;
    const CrewStats cs(r.workers, *r.rounds);
    closed_e2e(p, cs, 0);
    if (!traced) continue;
    const TraceSummary ts =
        summarize(p, a, "mpmc_p5050", span_logs(r.workers), clock);
    const Slice tot = cs.total();
    const auto oc = cs.counters();
    const double ops = static_cast<double>(tot.ops);
    p.layer.push_back({"core.ring.faa_per_op", per(oc.faa, ops), "count"});
    p.layer.push_back(
        {"runtime.registry.lookups_per_op", per(oc.registry, ops), "count"});
    p.layer.push_back({"core.bounded.enq_ns_p50", ts.ns(kBoundedEnq, 0.50), "ns"});
    p.layer.push_back({"core.bounded.enq_ns_p99", ts.ns(kBoundedEnq, 0.99), "ns"});
    p.layer.push_back({"core.bounded.deq_ns_p50", ts.ns(kBoundedDeq, 0.50), "ns"});
    p.layer.push_back({"core.bounded.deq_ns_p99", ts.ns(kBoundedDeq, 0.99), "ns"});
    const double deqs = static_cast<double>(ts.count(kBoundedDeq));
    u64 items = 0;
    for (const Worker& w : r.workers) {
      for (const Slice& s : w.slices) items += s.items;
    }
    p.layer.push_back({"core.bounded.deq_empty_frac",
                       per(deqs - static_cast<double>(items), deqs), "frac"});
  }
  return p;
}

// --- unbounded_burst --------------------------------------------------------

Pass run_unbounded_burst(const Args& a, double window_s, int setups,
                         bool traced) {
  using Q = wcq::UnboundedQueue<u64>;
  constexpr u64 kSegment = 1024;  // UnboundedQueue's default segment size
  constexpr int kWarmBursts = 3;
  Pass p;
  for (int k = 0; k < setups; ++k) {
    const bool last = k + 1 == setups;
    if (last) wcq::alloc_meter::reset_peak();
    Rounds rounds(kRounds);
    std::vector<Worker> ws;
    for (unsigned i = 0; i < kThreads; ++i) ws.emplace_back(kRounds);
    std::atomic<u64> seg_max{0};
    const TickClock clock;
    const u64 t0 = thread_cpu_ns();
    auto q = std::make_unique<Q>();
    auto body = [&](unsigned i, Worker& w, Ready& ready) {
      auto h = q->acquire();
      Rng rng(a.seed, i);
      w.ledger = Ledger(kThreads);
      u64 seq = 0, op = 0;
      int warm = kWarmBursts;
      for (bool run = true; run;) {
        // Each burst enqueues 2 to 6 segments' worth, then dequeues as many.
        // A thread never dequeues more than it enqueued, so the queue holds
        // at least this thread's outstanding items and no dequeue finds it
        // empty.
        const u64 n = 2 * kSegment + rng.next() % (4 * kSegment + 1);
        for (u64 j = 0; j < n && (run = w.tick(rounds)); ++j, ++op) {
          ++w.slice().ops;
          if (traced) {
            const u64 c0 = ticks();
            const u32 id =
                w.spans.begin(kUnboundedEnq, SpanLog::kNone, op, c0,
                              SpanLog::keep(op));
            q->enqueue(h, make_item(i, seq));
            w.spans.end(id, kUnboundedEnq, c0, ticks());
          } else {
            q->enqueue(h, make_item(i, seq));
          }
          ++seq;
        }
        if (traced && run) {
          const u64 segs = q->live_segments();
          u64 m = seg_max.load(std::memory_order_relaxed);
          while (segs > m && !seg_max.compare_exchange_weak(m, segs)) {
          }
        }
        for (u64 j = 0; j < n && run && (run = w.tick(rounds)); ++j, ++op) {
          Slice& sl = w.slice();
          ++sl.ops;
          std::optional<u64> v;
          if (traced) {
            const u64 c0 = ticks();
            const u32 id =
                w.spans.begin(kUnboundedDeq, SpanLog::kNone, op, c0,
                              SpanLog::keep(op));
            v = q->dequeue(h);
            w.spans.end(id, kUnboundedDeq, c0, ticks());
          } else {
            v = q->dequeue(h);
          }
          if (!v) continue;
          w.ledger.take(*v);
          ++sl.items;
        }
        if (warm > 0 && --warm == 0) {
          ready.signal();
        }
      }
      w.sent = seq;
    };
    p.setup_s.push_back(
        run_crew(kThreads, rounds, ws, body, t0, last, window_s / kRounds));
    std::vector<Ledger> ledgers;
    std::vector<u64> sent;
    for (const Worker& w : ws) {
      ledgers.push_back(w.ledger);
      sent.push_back(w.sent);
    }
    {
      auto h = q->acquire();
      Ledger drain(kThreads);
      while (auto v = q->dequeue(h)) drain.take(*v);
      ledgers.push_back(drain);
    }
    if (!last) continue;
    p.peak_mib = peak_mib();
    for (u64 s : sent) p.attempted += s;
    p.failed = Ledger::failures(ledgers, sent);
    const CrewStats cs(ws, rounds);
    closed_e2e(p, cs, 0);
    if (!traced) continue;
    const TraceSummary ts =
        summarize(p, a, "unbounded_burst", span_logs(ws), clock);
    p.layer.push_back(
        {"core.unbounded.enq_ns_p50", ts.ns(kUnboundedEnq, 0.50), "ns"});
    p.layer.push_back(
        {"core.unbounded.enq_ns_p999", ts.ns(kUnboundedEnq, 0.999), "ns"});
    p.layer.push_back({"core.unbounded.live_segments_max",
                       static_cast<double>(seg_max.load()), "count"});
    const double allocs =
        static_cast<double>(ws[0].allocs_end - ws[0].allocs_begin);
    p.layer.push_back(
        {"reclaim.allocs_per_mitem",
         per(allocs, static_cast<double>(cs.total().items) * 1e-6), "count"});
  }
  return p;
}

// --- sharded_pipeline -------------------------------------------------------

Pass run_sharded_pipeline(const Args& a, double window_s, int setups,
                          bool traced) {
  using Q = wcq::ShardedQueue<u64, wcq::MpscRing>;
  constexpr unsigned kProducers = 2;
  constexpr unsigned kShardsPerConsumer = 2;
  constexpr std::size_t kMaxBatch = 48;
  constexpr std::size_t kDeqBatch = 32;
  // Set-up CPU must count work, not waits. The producers' warm-up, about
  // 256 items each, fits in the queue's 1024 slots, so neither ever spins
  // on a full shard while a consumer is descheduled; the consumers' warm-up
  // is their attach, so neither spins waiting for items.
  constexpr u64 kWarmBatches = 8;
  Pass p;
  for (int k = 0; k < setups; ++k) {
    const bool last = k + 1 == setups;
    if (last) wcq::alloc_meter::reset_peak();
    Rounds rounds(kRounds);
    std::vector<Worker> ws;
    for (unsigned i = 0; i < kThreads; ++i) ws.emplace_back(kRounds);
    std::atomic<unsigned> producers_live{kProducers};
    const TickClock clock;
    const u64 t0 = thread_cpu_ns();
    Q::Options opt;
    opt.shards = (kThreads - kProducers) * kShardsPerConsumer;
    opt.shard_order = 8;
    opt.mode = Q::Mode::kPipeline;
    auto q = std::make_unique<Q>(opt);

    auto producer = [&](unsigned i, Worker& w, Ready& ready) {
      auto h = q->acquire();
      Rng rng(a.seed, i);
      wcq::Backoff bo;
      u64 buf[kMaxBatch];
      u64 seq = 0, batch = 0;
      bool run = true;
      for (; run && w.tick(rounds); ++batch) {
        if (batch == kWarmBatches) ready.signal();
        // Seeded span length, 16..48 (the example's 32 on average).
        const std::size_t n = 16 + rng.next() % 33;
        for (std::size_t j = 0; j < n; ++j) buf[j] = make_item(i, seq + j);
        const u64 b0 = traced ? ticks() : 0;
        const u32 root =
            traced ? w.spans.begin(kPipelineBatch, SpanLog::kNone, batch, b0,
                                   SpanLog::keep(batch))
                   : SpanLog::kNone;
        std::size_t sent = 0;
        bo.reset();
        while (sent < n) {
          const u64 c0 = traced ? ticks() : 0;
          const u32 id = traced ? w.spans.begin(kShardedEnqBulk, root, batch,
                                                c0, SpanLog::keep(batch))
                                : SpanLog::kNone;
          const std::size_t got = q->enqueue_bulk(h, buf + sent, n - sent);
          if (traced) {
            const u64 c1 = ticks();
            w.spans.end(id, kShardedEnqBulk, c0, c1);
            if (got > 0) w.spans.value(kShardedEnqItem, (c1 - c0) / got);
          }
          if (got < n - sent) ++w.shorts;
          Slice& sl = w.slice();
          if (got == 0) {
            ++sl.ops;
            // Every shard full: wait for the consumers, unless the window
            // closed (the unsent tail is simply never sent).
            if (!(run = w.tick(rounds))) break;
            bo.pause();
            continue;
          }
          sl.ops += got;
          sent += got;
          bo.reset();
        }
        if (traced) w.spans.end(root, kPipelineBatch, b0, ticks());
        seq += sent;
      }
      w.sent = seq;
      producers_live.fetch_sub(1, std::memory_order_release);
    };

    // Consumer c owns shards c*2 and c*2+1 through two owning-consumer
    // sessions; it is the only thread that may drain them, so its empty
    // probe after the producers stopped is authoritative.
    auto consumer = [&](unsigned i, Worker& w, Ready& ready) {
      const unsigned c = i - kProducers;
      const unsigned first = c * kShardsPerConsumer;
      Q::Handle hs[kShardsPerConsumer] = {q->acquire_consumer(first),
                                          q->acquire_consumer(first + 1)};
      w.pin_for_setup(i);  // acquire_consumer re-pinned it to the node
      w.ledger = Ledger(kProducers, opt.shards);
      ready.signal();
      wcq::Backoff bo;
      u64 buf[kDeqBatch];
      u64 op = 0;
      auto take = [&](Slice& sl, u64 v, unsigned shard) {
        w.ledger.take(v, shard);
        ++sl.items;
      };
      for (;; ++op) {
        w.tick(rounds);
        bool any = false;
        for (unsigned s = 0; s < kShardsPerConsumer; ++s) {
          const u64 c0 = traced ? ticks() : 0;
          const u32 id = traced ? w.spans.begin(kShardedDeqBulk, SpanLog::kNone,
                                                op, c0, SpanLog::keep(op))
                                : SpanLog::kNone;
          const std::size_t got = q->dequeue_bulk(hs[s], buf, kDeqBatch);
          if (traced) {
            const u64 c1 = ticks();
            w.spans.end(id, kShardedDeqBulk, c0, c1);
            if (got > 0) w.spans.value(kShardedDeqItem, (c1 - c0) / got);
          }
          Slice& sl = w.slice();
          if (got == 0) {
            ++sl.ops;
            continue;
          }
          any = true;
          sl.ops += got;
          for (std::size_t j = 0; j < got; ++j) take(sl, buf[j], first + s);
        }
        if (any) {
          bo.reset();
          continue;
        }
        if (producers_live.load(std::memory_order_acquire) == 0) {
          bool more = false;
          for (unsigned s = 0; s < kShardsPerConsumer; ++s) {
            if (auto v = q->dequeue(hs[s])) {
              take(w.slice(), *v, first + s);
              more = true;
            }
          }
          if (!more) break;
          continue;
        }
        bo.pause();
      }
    };

    p.setup_s.push_back(run_crew(
        kThreads, rounds, ws,
        [&](unsigned i, Worker& w, Ready& ready) {
          if (i < kProducers) {
            producer(i, w, ready);
          } else {
            consumer(i, w, ready);
          }
        },
        t0, last, window_s / kRounds));
    if (!last) continue;
    p.peak_mib = peak_mib();
    std::vector<Ledger> ledgers;
    std::vector<u64> sent;
    for (unsigned i = 0; i < kThreads; ++i) {
      if (i < kProducers) {
        sent.push_back(ws[i].sent);
        p.attempted += ws[i].sent;
      } else {
        ledgers.push_back(ws[i].ledger);
      }
    }
    p.failed = Ledger::failures(ledgers, sent);
    const CrewStats cs(ws, rounds);
    closed_e2e(p, cs, kProducers);
    if (!traced) continue;
    const TraceSummary ts =
        summarize(p, a, "sharded_pipeline", span_logs(ws), clock);
    const Slice tot = cs.total();
    const auto oc = cs.counters();
    const double ops = static_cast<double>(tot.ops);
    p.layer.push_back({"core.ring.thld_per_op", per(oc.threshold, ops), "count"});
    p.layer.push_back(
        {"scale.sharded.enq_ns_p50", ts.ns(kShardedEnqItem, 0.50), "ns"});
    p.layer.push_back(
        {"scale.sharded.enq_ns_p99", ts.ns(kShardedEnqItem, 0.99), "ns"});
    p.layer.push_back(
        {"scale.sharded.deq_ns_p50", ts.ns(kShardedDeqItem, 0.50), "ns"});
    u64 shorts = 0;
    for (const Worker& w : ws) shorts += w.shorts;
    const double enq_calls = static_cast<double>(ts.count(kShardedEnqBulk));
    const double deq_calls = static_cast<double>(ts.count(kShardedDeqBulk));
    p.layer.push_back({"scale.sharded.enq_short_frac",
                       per(static_cast<double>(shorts), enq_calls), "frac"});
    p.layer.push_back({"scale.sharded.deq_empty_frac",
                       per(deq_calls - static_cast<double>(ts.count(
                                           kShardedDeqItem)),
                           deq_calls),
                       "frac"});
    p.layer.push_back({"scale.sharded.remote_steal_per_op",
                       per(oc.remote_steal, ops), "count"});
    p.layer.push_back({"scale.sharded.enq_wait_frac",
                       ts.self_frac(kPipelineBatch), "frac"});
  }
  return p;
}

// --- channel_openloop -------------------------------------------------------

namespace {

// The open-loop generator and its two blocked receivers. The generator runs
// on the calling thread in segments: each segment offers Poisson arrivals
// at one rate for a fixed time. The unit-rate inter-arrival gaps are drawn
// from the seed before the run; a segment scales them by its rate. Every
// item's scheduled time is stamped before it is sent, and its latency runs
// from that time to its receipt, so a stall counts against every item it
// delays.
class OpenLoop {
 public:
  using Chan = wcq::Channel<u64>;
  static constexpr unsigned kReceivers = 2;
  static constexpr unsigned kOrder = 10;  // 1024 slots, bench_latency's
  static constexpr std::size_t kStampSlots = std::size_t{1} << 20;
  // Warm-up, the reference rounds and at most 13 search probes.
  static constexpr int kMaxSegments = 64;

  // One segment's figures. The receiver-side fields are final once finish()
  // has joined the receivers.
  struct Seg {
    u64 start = 0;     // the offer's time origin, ns
    u64 items = 0;     // sent
    u64 backlog = 0;   // sent minus received when the segment's offer ended
    bool drained = false;  // all received within 2 s of the offer's end
    u64 received = 0;  // summed over receivers
    u64 end = 0;       // the segment's last receipt, ns
    Hist lat;          // ns, merged over receivers
    Hist lag;          // generator lateness, ns
    u64 cpu_ns = 0;    // receiver CPU, summed
    u64 nvcsw = 0;     // receiver voluntary context switches, summed

    // Items received per second, from the offer's origin to the last
    // receipt: the offered rate while the receivers keep up, less once
    // they fall behind.
    double received_per_s() const {
      return end > start ? static_cast<double>(received) * 1e9 /
                               static_cast<double>(end - start)
                         : 0.0;
    }
  };

  // The backlog left when an offer ends that still counts as keeping up.
  static u64 slack(u64 items) { return std::max<u64>(64, items / 100); }

  OpenLoop(const std::vector<float>& gaps, bool traced)
      : gaps_(gaps), traced_(traced), stamps_(kStampSlots),
        first_(kMaxSegments), segs_(kMaxSegments), rx_(kReceivers) {
    for (auto& f : first_) f.store(~u64{0}, std::memory_order_relaxed);
    for (Rx& r : rx_) {
      r.lat.resize(kMaxSegments);
      r.cpu.assign(kMaxSegments, 0);
      r.nvcsw.assign(kMaxSegments, 0);
      r.items.assign(kMaxSegments, 0);
      r.last.assign(kMaxSegments, 0);
      r.ledger = Ledger(1);
    }
  }
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;
  ~OpenLoop() { finish(); }

  // Set-up: channel, receivers, sessions, and a warm-up segment at the
  // reference rate. Returns its duration in seconds.
  double setup(double warm_rate, double warm_s) {
    const u64 t0 = now_ns();
    ch_ = std::make_unique<Chan>(kOrder);
    Ready ready;
    for (unsigned r = 0; r < kReceivers; ++r) {
      threads_.emplace_back([this, r, &ready] { receive(r, ready); });
    }
    gen_.emplace(ch_->acquire());
    ready.wait(kReceivers);
    segment(warm_rate, warm_s);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  // Offers `rate` items/s for `seconds`, waits for the backlog to drain and
  // returns the segment's index.
  int segment(double rate, double seconds) {
    const int k = nseg_++;
    Seg& sg = segs_[k];
    first_[k].store(seq_, std::memory_order_relaxed);
    const double step = 1e9 / rate;
    const double span = seconds * 1e9;
    const u64 start = now_ns() + 20000;
    sg.start = start;
    double t = 0;
    for (u64 op = 0;; ++op) {
      t += static_cast<double>(gaps_[gi_++ % gaps_.size()]) * step;
      if (t >= span) break;
      const u64 sched = start + static_cast<u64>(t);
      stamps_[seq_ % kStampSlots].store(sched, std::memory_order_relaxed);
      const bool keep = traced_ && SpanLog::keep(op);
      const u64 g0 = traced_ ? ticks() : 0;
      const u32 root = traced_ ? gen_spans_.begin(kGenItem, SpanLog::kNone,
                                                  op, g0, keep)
                               : SpanLog::kNone;
      u64 now = now_ns();
      while (now < sched) now = now_ns();
      sg.lag.add(now - sched);
      if (traced_) {
        const u64 c0 = ticks();
        const u32 id = gen_spans_.begin(kChannelSend, root, op, c0, keep);
        ch_->send(*gen_, make_item(0, seq_));
        const u64 c1 = ticks();
        gen_spans_.end(id, kChannelSend, c0, c1);
        gen_spans_.end(root, kGenItem, g0, c1);
      } else {
        ch_->send(*gen_, make_item(0, seq_));
      }
      ++seq_;
      ++sg.items;
    }
    sg.backlog = seq_ - received();
    // Drain before the next segment, so one segment's backlog never lands
    // in the next one's latencies. A segment that does not drain within 2 s
    // fails any sustained-rate probe and invalidates a reference run; its
    // late receipts still count, in finish().
    const u64 give_up = now_ns() + 2000000000ull;
    while (received() < seq_ && now_ns() < give_up) std::this_thread::yield();
    sg.drained = received() >= seq_;
    // A drained segment's receipts are all recorded: each receiver publishes
    // its count after recording an item, and no later item is sent yet.
    if (sg.drained) {
      for (const Rx& r : rx_) sg.lat.merge(r.lat[k]);
    }
    return k;
  }

  // Closes the channel, joins the receivers and totals every segment's
  // receiver-side figures; idempotent.
  void finish() {
    if (!ch_ || closed_) return;
    closed_ = true;
    ch_->close();
    for (auto& t : threads_) t.join();
    gen_.reset();
    for (int k = 0; k < nseg_; ++k) {
      Seg& sg = segs_[k];
      sg.lat = Hist{};
      for (const Rx& r : rx_) {
        sg.lat.merge(r.lat[k]);
        sg.received += r.items[k];
        sg.end = std::max(sg.end, r.last[k]);
        sg.cpu_ns += r.cpu[k];
        sg.nvcsw += r.nvcsw[k];
      }
    }
  }

  const Seg& seg(int k) const { return segs_[k]; }
  u64 sent() const { return seq_; }
  u64 failures() const {
    std::vector<Ledger> ls;
    for (const Rx& r : rx_) ls.push_back(r.ledger);
    return Ledger::failures(ls, {seq_});
  }
  Chan::Stats stats() const { return ch_->stats(); }
  std::vector<const SpanLog*> logs() const {
    std::vector<const SpanLog*> v{&gen_spans_};
    for (const Rx& r : rx_) v.push_back(&r.spans);
    return v;
  }

  // Tests whether `rate` is sustained: the segment drained, no backlog was
  // left when the offer ended and p99 latency is within the limit. A
  // refused or lost item would show as a backlog (the check counts losses
  // separately).
  bool sustained(double rate, double seconds, double p99_limit_ns) {
    const Seg& s = segs_[segment(rate, seconds)];
    return s.drained && s.backlog <= slack(s.items) &&
           s.lat.quantile(0.99) <= p99_limit_ns;
  }

 private:
  struct Rx {
    alignas(64) std::atomic<u64> received{0};
    std::vector<Hist> lat;
    std::vector<u64> cpu, nvcsw, items;
    std::vector<u64> last;  // time of the segment's last receipt, ns
    Ledger ledger;
    SpanLog spans;
  };

  u64 received() const {
    u64 n = 0;
    for (const Rx& r : rx_) n += r.received.load(std::memory_order_acquire);
    return n;
  }

  static u64 nvcsw_now() {
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return static_cast<u64>(ru.ru_nvcsw);
  }

  void receive(unsigned r, Ready& ready) {
    // The generator runs on CPU 0, each receiver on a CPU of its own: where
    // the three threads land otherwise varies from run to run and moves the
    // wake-up latency with it.
    wcq::pin_thread(1 + r);
    Rx& rx = rx_[r];
    auto h = ch_->acquire();
    ready.signal();
    int seg = 0;
    u64 cpu_mark = thread_cpu_ns(), cs_mark = nvcsw_now(), n = 0;
    auto close_seg = [&] {
      const u64 cpu = thread_cpu_ns(), cs = nvcsw_now();
      rx.cpu[seg] += cpu - cpu_mark;
      rx.nvcsw[seg] += cs - cs_mark;
      cpu_mark = cpu;
      cs_mark = cs;
    };
    u64 v = 0;
    for (u64 op = 0;; ++op) {
      wcq::ChanStatus st;
      if (traced_) {
        const u64 c0 = ticks();
        const u32 id = rx.spans.begin(kChannelRecv, SpanLog::kNone, op, c0,
                                      SpanLog::keep(op));
        st = ch_->recv(h, v);
        rx.spans.end(id, kChannelRecv, c0, ticks());
      } else {
        st = ch_->recv(h, v);
      }
      if (st != wcq::ChanStatus::kOk) break;
      const u64 now = now_ns();
      const u64 s = item_seq(v);
      while (seg + 1 < kMaxSegments &&
             s >= first_[seg + 1].load(std::memory_order_relaxed)) {
        close_seg();
        ++seg;
      }
      rx.ledger.take(v);
      rx.lat[seg].add(now - stamps_[s % kStampSlots].load(
                                std::memory_order_relaxed));
      ++rx.items[seg];
      rx.last[seg] = now;
      rx.received.store(++n, std::memory_order_release);
    }
    close_seg();
  }

  const std::vector<float>& gaps_;
  bool traced_;
  std::unique_ptr<Chan> ch_;
  std::optional<Chan::Handle> gen_;
  std::vector<std::thread> threads_;
  std::vector<std::atomic<u64>> stamps_;
  std::vector<std::atomic<u64>> first_;  // first seq of each segment
  std::vector<Seg> segs_;
  std::vector<Rx> rx_;
  SpanLog gen_spans_;
  u64 seq_ = 0;
  std::size_t gi_ = 0;
  int nseg_ = 0;
  bool closed_ = false;
};

// The highest rate whose p99 stays within the limit with no growing
// backlog: bracket by doubling or halving from the reference rate, then
// bisect in log space to 2^(1/64) (about 1.1%).
double search_sustained(OpenLoop& ol, double ref, double probe_s,
                        double limit_ns) {
  constexpr double kMax = 25.6e6;
  const double kMin = ref / 16;
  double lo = 0, hi = 0, r = ref;
  if (ol.sustained(r, probe_s, limit_ns)) {
    lo = r;
    while (r < kMax) {
      r *= 2;
      if (!ol.sustained(r, probe_s, limit_ns)) {
        hi = r;
        break;
      }
      lo = r;
    }
  } else {
    hi = r;
    while (r > kMin) {
      r /= 2;
      if (ol.sustained(r, probe_s, limit_ns)) {
        lo = r;
        break;
      }
      hi = r;
    }
  }
  if (lo == 0 || hi == 0) return lo;
  for (int i = 0; i < 6; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (ol.sustained(mid, probe_s, limit_ns)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Pass run_channel_openloop(const Args& a, double window_s, int setups,
                          bool traced) {
  constexpr double kRefRate = 200000;   // items/s, bench_latency's default
  constexpr double kP99LimitNs = 100000;
  constexpr double kLagLimitNs = 50000;
  constexpr double kProbeS = 0.1;  // at most 13 probes: 7 bracket + 6 bisect
  Pass p;
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool restore =
      pthread_getaffinity_np(pthread_self(), sizeof saved, &saved) == 0;
  wcq::pin_thread(0);
  std::vector<float> gaps(std::size_t{1} << 20);
  Rng rng(a.seed, 0);
  for (float& g : gaps) g = static_cast<float>(-std::log(rng.unit()));

  for (int k = 0; k < setups; ++k) {
    const bool last = k + 1 == setups;
    if (last) wcq::alloc_meter::reset_peak();
    const TickClock clock;
    OpenLoop ol(gaps, traced);
    p.setup_s.push_back(ol.setup(kRefRate, 0.02));
    if (!last) continue;

    // The window runs reference rounds. A traced pass adds the sustained-
    // rate search: its edge moves by a fifth from run to run on a shared
    // host, too far to gate on, so it is a per-layer figure.
    std::vector<int> ref;
    for (int r = 0; r < kRounds; ++r) {
      ref.push_back(ol.segment(kRefRate, window_s / kRounds));
    }
    double found = 0;
    if (traced) found = search_sustained(ol, kRefRate, kProbeS, kP99LimitNs);
    ol.finish();
    p.peak_mib = peak_mib();
    p.attempted = ol.sent();
    p.failed = ol.failures();

    std::vector<double> p50, p99, ips, cpu, lag, backlog;
    int lagging = 0, backlogged = 0, undrained = 0;
    u64 samples = 0, received = 0, nvcsw = 0;
    for (int i : ref) {
      const OpenLoop::Seg& s = ol.seg(i);
      p50.push_back(s.lat.quantile(0.50));
      p99.push_back(s.lat.quantile(0.99));
      ips.push_back(s.received_per_s());
      cpu.push_back(per(static_cast<double>(s.cpu_ns),
                        static_cast<double>(s.received)));
      lag.push_back(s.lag.quantile(0.99));
      backlog.push_back(static_cast<double>(s.backlog));
      // A generator that cannot keep the schedule is late on the median
      // item; one preempted by the host is late only in the tail.
      if (s.lag.quantile(0.50) > kLagLimitNs) ++lagging;
      if (s.backlog > OpenLoop::slack(s.items)) ++backlogged;
      if (!s.drained) ++undrained;
      samples += s.lat.count();
      received += s.received;
      nvcsw += s.nvcsw;
    }
    p.handoff_p50_us = median(p50) * 1e-3;
    p.handoff_p99_us = median(p99) * 1e-3;
    p.items_mps = median(ips) * 1e-6;
    // One send and one recv call per item.
    p.ops_mops = 2 * p.items_mps;
    p.cpu_ns_per_item = median(cpu);
    p.thread_cpu_ns_per_item = p.cpu_ns_per_item;
    char line[320];
    std::snprintf(line, sizeof line,
                  "channel_openloop: reference %.0f items/s over %d rounds "
                  "(medians): handoff p50 %.3f us, p99 %.3f us from %llu "
                  "items; generator lag p99 %.2f us; backlog at the end of "
                  "the offer %.0f items (max %.0f)",
                  kRefRate, kRounds, p.handoff_p50_us, p.handoff_p99_us,
                  static_cast<unsigned long long>(samples), median(lag) * 1e-3,
                  median(backlog),
                  *std::max_element(backlog.begin(), backlog.end()));
    p.notes.emplace_back(line);
    // A run whose generator fell behind measured its own schedule, and one
    // whose receivers fell behind measured a backlog: neither is a figure
    // for the reference rate.
    const char* invalid =
        2 * lagging > kRounds
            ? "the generator fell behind its schedule (lag p50 > 50 us) in "
              "most reference rounds"
        : undrained > 0
            ? "a reference round's backlog did not drain within 2 s"
        : 2 * backlogged > kRounds
            ? "the backlog at the end of the offer exceeded 1% of the "
              "round's items in most reference rounds"
        : samples == 0 ? "no item was received"
                       : nullptr;
    if (invalid != nullptr) {
      p.valid = false;
      p.notes.push_back(std::string("channel_openloop: RUN INVALID: ") +
                        invalid);
    }
    if (!traced) continue;
    const TraceSummary ts = summarize(p, a, "channel_openloop", ol.logs(), clock);
    // The channel's counters cover the whole pass, warm-up included.
    const auto st = ol.stats();
    const double sent = static_cast<double>(ol.sent());
    p.layer.push_back({"runtime.channel.recv_parks_per_item",
                       per(static_cast<double>(st.recv_parks), sent), "count"});
    p.layer.push_back(
        {"runtime.channel.notifies_per_item",
         per(static_cast<double>(st.recv_notifies), sent), "count"});
    p.layer.push_back(
        {"runtime.channel.send_ns_p50", ts.ns(kChannelSend, 0.50), "ns"});
    p.layer.push_back(
        {"runtime.channel.send_ns_p99", ts.ns(kChannelSend, 0.99), "ns"});
    p.layer.push_back(
        {"runtime.channel.recv_wait_ns_p50", ts.ns(kChannelRecv, 0.50), "ns"});
    p.layer.push_back(
        {"runtime.channel.ctx_switches_per_item",
         per(static_cast<double>(nvcsw), static_cast<double>(received)),
         "count"});
    p.layer.push_back({"runtime.channel.sustained_kops", found * 1e-3,
                       "kitem/s"});
    p.layer.push_back(
        {"runtime.channel.handoff_p99_us", p.handoff_p99_us, "us"});
    p.layer.push_back({"bench.gen_lag_p99_us", median(lag) * 1e-3, "us"});
    p.layer.push_back({"bench.backlog_items", median(backlog), "count"});
  }
  if (restore) pthread_setaffinity_np(pthread_self(), sizeof saved, &saved);
  return p;
}

Pass run_workload(const std::string& name, const Args& a, double window_s,
                  int setups, bool traced) {
  if (name == "mpmc_p5050") return run_mpmc_p5050(a, window_s, setups, traced);
  if (name == "sharded_pipeline") {
    return run_sharded_pipeline(a, window_s, setups, traced);
  }
  if (name == "channel_openloop") {
    return run_channel_openloop(a, window_s, setups, traced);
  }
  return run_unbounded_burst(a, window_s, setups, traced);
}

}  // namespace pb
