// Open-loop latency bench for the blocking facade (DESIGN.md §14): a load
// generator that draws every arrival timestamp AHEAD of the run (Poisson
// process, seeded xorshift) and measures enqueue→dequeue latency from the
// *scheduled* arrival, not the actual send. That is the coordinated-omission
// fix: if the producer falls behind (channel backpressure, scheduler delay),
// the backlog shows up in the recorded latencies instead of silently
// stretching the inter-arrival gaps.
//
// Two consumer series over the same schedule:
//
//   spin  try_recv + Backoff::pause() — burns CPU while idle, never parks;
//   park  blocking recv() — watches the eventcount as the direction's one
//         spinner for up to EventCount::kSpinBudget (a send hands it the
//         wake with a CAS), then parks on the eventcount futex.
//
// Per series the JSON reports p50/p90/p99/p999/mean/max latency plus the
// full accounting the `latency` CI gate (bench/gates.json) verifies: sent ==
// received, lost == 0, percentiles monotone, and the channel's degraded-
// mode counters (parks, notifies, hand-offs, timeouts, closed rejects,
// accepted_after_close, stranded). It also reports the receiver's shared
// ring F&As and threshold RMWs per item received, from the opcount
// counters of the consumer thread: what its polling of an empty ring costs
// the lines the generator needs next.
//
// This driver is intentionally NOT built on the throughput harness's
// measure_point/Series machinery — open-loop latency has its own schema
// (samples, not Mops) — but it accepts the same smoke flags (--ops, --runs,
// --json, --no-pin, --threads is accepted and ignored: the open-loop model
// is one generator + one consumer by construction) and rejects the same bad
// flags. Extra knobs:
//   --rate=<hz>      mean arrival rate (default 200000)
//   WCQ_BENCH_ORDER  channel capacity order (default 10 -> 1024 slots)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/op_counters.hpp"
#include "harness/workloads.hpp"
#include "runtime/channel.hpp"

namespace wcq::bench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Deterministic per-run PRNG for the arrival schedule.
struct XorShift64 {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  // Uniform in (0, 1] — never 0, so log() below is finite.
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
  }
};

// Exponential inter-arrival offsets (a Poisson process at `rate_hz`), drawn
// before the run starts so the schedule cannot react to backpressure.
std::vector<std::uint64_t> draw_offsets(std::uint64_t ops, double rate_hz,
                                        std::uint64_t seed) {
  std::vector<std::uint64_t> offsets;
  offsets.reserve(ops);
  XorShift64 rng{seed * 0x9e3779b97f4a7c15ull + 1};
  double t = 0.0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    t += -std::log(rng.unit()) / rate_hz * 1e9;
    offsets.push_back(static_cast<std::uint64_t>(t));
  }
  return offsets;
}

struct SeriesResult {
  std::string name;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::vector<std::uint64_t> lat_ns;  // pooled over runs
  Channel<std::uint64_t>::Stats stats{};
  opcount::Counters recv_ops{};       // consumer-thread counters, summed

  double per_item(std::uint64_t n) const {
    return received ? static_cast<double>(n) / static_cast<double>(received)
                    : 0.0;
  }
};

struct Percentiles {
  double p50, p90, p99, p999, mean, max;
};

Percentiles percentiles(std::vector<std::uint64_t>& v) {
  Percentiles r{0, 0, 0, 0, 0, 0};
  if (v.empty()) return r;
  std::sort(v.begin(), v.end());
  auto at = [&](double q) {
    const auto n = v.size();
    auto idx = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
    if (idx == 0) idx = 1;
    if (idx > n) idx = n;
    return static_cast<double>(v[idx - 1]);
  };
  double sum = 0;
  for (auto x : v) sum += static_cast<double>(x);
  r.p50 = at(0.50);
  r.p90 = at(0.90);
  r.p99 = at(0.99);
  r.p999 = at(0.999);
  r.mean = sum / static_cast<double>(v.size());
  r.max = static_cast<double>(v.back());
  return r;
}

// One run of the generator against one consumer mode. The payload is the
// absolute scheduled arrival time (steady-clock ns), so the consumer
// computes latency without sharing any other state with the producer.
void one_run(bool park_consumer, std::uint64_t ops,
             const std::vector<std::uint64_t>& offsets, unsigned order,
             SeriesResult& out) {
  Channel<std::uint64_t> ch(order);
  std::vector<std::uint64_t> lat;
  lat.reserve(ops);

  opcount::Counters recv_ops{};
  std::thread consumer([&] {
    auto h = ch.acquire();
    const opcount::Counters before = opcount::snapshot();
    std::uint64_t sched = 0;
    if (park_consumer) {
      while (ch.recv(h, sched) == ChanStatus::kOk) {
        lat.push_back(now_ns() - sched);
      }
    } else {
      Backoff bo;
      for (;;) {
        const auto s = ch.try_recv(h, sched);
        if (s == ChanStatus::kOk) {
          lat.push_back(now_ns() - sched);
          bo.reset();
        } else if (s == ChanStatus::kClosed) {
          break;
        } else {
          bo.pause();
        }
      }
    }
    recv_ops = opcount::snapshot() - before;
  });

  {
    auto h = ch.acquire();
    const std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t sched = t0 + offsets[i];
      // Busy-wait to the scheduled arrival: the generator's own delay must
      // not depend on the consumer (open loop).
      while (now_ns() < sched) {
      }
      ch.send(h, sched);
      ++out.sent;
    }
    ch.close();
  }
  consumer.join();

  out.received += lat.size();
  out.lat_ns.insert(out.lat_ns.end(), lat.begin(), lat.end());
  const auto st = ch.stats();
  out.stats.send_parks += st.send_parks;
  out.stats.recv_parks += st.recv_parks;
  out.stats.send_notifies += st.send_notifies;
  out.stats.recv_notifies += st.recv_notifies;
  out.stats.send_handoffs += st.send_handoffs;
  out.stats.recv_handoffs += st.recv_handoffs;
  out.recv_ops += recv_ops;
  out.stats.send_timeouts += st.send_timeouts;
  out.stats.recv_timeouts += st.recv_timeouts;
  out.stats.closed_send_rejects += st.closed_send_rejects;
  out.stats.accepted_after_close += st.accepted_after_close;
  out.stats.stranded += st.stranded;
}

void write_series_json(std::FILE* f, const SeriesResult& s,
                       const Percentiles& p, bool last) {
  std::fprintf(
      f,
      "    {\"name\": \"%s\", \"sent\": %llu, \"received\": %llu, "
      "\"lost\": %lld,\n"
      "     \"latency_ns\": {\"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, "
      "\"p999\": %.1f, \"mean\": %.1f, \"max\": %.1f, \"samples\": %zu},\n"
      "     \"channel\": {\"send_parks\": %llu, \"recv_parks\": %llu, "
      "\"send_notifies\": %llu, \"recv_notifies\": %llu, "
      "\"send_handoffs\": %llu, \"recv_handoffs\": %llu, "
      "\"send_timeouts\": %llu, \"recv_timeouts\": %llu, "
      "\"closed_send_rejects\": %llu, \"accepted_after_close\": %llu, "
      "\"stranded\": %llu},\n"
      "     \"receiver\": {\"ring_faa_per_item\": %.4f, "
      "\"ring_thld_per_item\": %.4f}}%s\n",
      s.name.c_str(), static_cast<unsigned long long>(s.sent),
      static_cast<unsigned long long>(s.received),
      static_cast<long long>(s.sent) - static_cast<long long>(s.received),
      p.p50, p.p90, p.p99, p.p999, p.mean, p.max, s.lat_ns.size(),
      static_cast<unsigned long long>(s.stats.send_parks),
      static_cast<unsigned long long>(s.stats.recv_parks),
      static_cast<unsigned long long>(s.stats.send_notifies),
      static_cast<unsigned long long>(s.stats.recv_notifies),
      static_cast<unsigned long long>(s.stats.send_handoffs),
      static_cast<unsigned long long>(s.stats.recv_handoffs),
      static_cast<unsigned long long>(s.stats.send_timeouts),
      static_cast<unsigned long long>(s.stats.recv_timeouts),
      static_cast<unsigned long long>(s.stats.closed_send_rejects),
      static_cast<unsigned long long>(s.stats.accepted_after_close),
      static_cast<unsigned long long>(s.stats.stranded),
      s.per_item(s.recv_ops.faa), s.per_item(s.recv_ops.threshold),
      last ? "" : ",");
}

int run(int argc, char** argv) {
  const BenchParams p = BenchParams::parse(argc, argv, {"--rate"});
  double rate_hz = std::atof(p.extra.at("--rate").c_str());
  if (rate_hz <= 0) rate_hz = 200000.0;
  unsigned order = 10;
  if (const char* e = std::getenv("WCQ_BENCH_ORDER")) {
    order = static_cast<unsigned>(std::atoi(e));
    if (order == 0 || order > 20) order = 10;
  }

  std::fprintf(stderr,
               "bench_latency: open-loop %.0f ops/s, %llu ops x %u run(s), "
               "capacity %u (1 generator + 1 consumer per series)\n",
               rate_hz, static_cast<unsigned long long>(p.ops), p.runs,
               1u << order);

  std::vector<SeriesResult> results;
  for (const bool park : {false, true}) {
    SeriesResult s;
    s.name = park ? "park" : "spin";
    for (unsigned run = 0; run < p.runs; ++run) {
      // Same per-run schedule for both series: the A/B compares consumer
      // policy, not arrival noise.
      const auto offsets = draw_offsets(p.ops, rate_hz, run + 1);
      std::fprintf(stderr, "  [%s] run %u/%u...\n", s.name.c_str(), run + 1,
                   p.runs);
      one_run(park, p.ops, offsets, order, s);
    }
    results.push_back(std::move(s));
  }

  std::printf("# bench_latency: enqueue->dequeue latency from scheduled "
              "arrival (open loop, %.0f ops/s)\n",
              rate_hz);
  std::printf("%-6s %10s %10s %6s %12s %12s %12s %12s %10s %10s %10s %9s "
              "%9s\n",
              "series", "sent", "received", "lost", "p50(ns)", "p99(ns)",
              "p999(ns)", "max(ns)", "parks", "handoffs", "stranded",
              "faa/item", "thld/item");
  std::vector<Percentiles> pcts;
  for (auto& s : results) {
    const auto pct = percentiles(s.lat_ns);
    std::printf("%-6s %10llu %10llu %6lld %12.0f %12.0f %12.0f %12.0f "
                "%10llu %10llu %10llu %9.3f %9.3f\n",
                s.name.c_str(), static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.received),
                static_cast<long long>(s.sent) -
                    static_cast<long long>(s.received),
                pct.p50, pct.p99, pct.p999, pct.max,
                static_cast<unsigned long long>(s.stats.send_parks +
                                                s.stats.recv_parks),
                static_cast<unsigned long long>(s.stats.send_handoffs +
                                                s.stats.recv_handoffs),
                static_cast<unsigned long long>(s.stats.stranded),
                s.per_item(s.recv_ops.faa), s.per_item(s.recv_ops.threshold));
    pcts.push_back(pct);
  }

  if (!p.json_path.empty()) {
    std::FILE* f = std::fopen(p.json_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench_latency: cannot open %s\n",
                   p.json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"latency\",\n  \"ops_per_run\": %llu,\n"
                 "  \"runs\": %u,\n  \"rate_hz\": %.1f,\n"
                 "  \"capacity\": %u,\n  \"series\": [\n",
                 static_cast<unsigned long long>(p.ops), p.runs, rate_hz,
                 1u << order);
    for (std::size_t i = 0; i < results.size(); ++i) {
      write_series_json(f, results[i], pcts[i], i + 1 == results.size());
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "bench_latency: wrote %s\n", p.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace wcq::bench

int main(int argc, char** argv) { return wcq::bench::run(argc, argv); }
