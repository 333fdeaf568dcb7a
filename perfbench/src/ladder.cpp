// The layer ladder and the output-check self-test: both replay the p5050
// mix through p5050.hpp's adapters.
#include <cstdio>
#include <string>

#include "p5050.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr u64 kWarmOps = u64{1} << 15;

struct Rung {
  double ns_per_op = 0;  // thread time per attempted op
  double faa_per_op = 0;
  double thld_per_op = 0;
};

template <typename A, typename Make>
Rung measure(Pass& p, Make make, u64 seed, int rounds, double round_s) {
  P5050Result r = run_p5050<false, A>(make, kThreads, seed, rounds, round_s,
                                      true, kWarmOps);
  p.attempted += r.attempted;
  p.failed += r.failed;
  const CrewStats cs(r.workers, *r.rounds);
  const auto oc = cs.counters();
  const double ops = static_cast<double>(cs.total().ops);
  Rung g;
  g.ns_per_op = kThreads * 1e9 / cs.ops_per_s();
  g.faa_per_op = static_cast<double>(oc.faa) / ops;
  g.thld_per_op = static_cast<double>(oc.threshold) / ops;
  return g;
}

}  // namespace

Pass run_ladder(const Args& a, double window_s) {
  constexpr int kRungRounds = 3;
  const double round_s = window_s / (5 * kRungRounds);
  Pass p;
  const Rung ring = measure<RingAdapter>(
      p,
      [] { return std::make_unique<RingAdapter>(kP5050Order, kThreads); },
      a.seed, kRungRounds, round_s);
  const Rung nomag = measure<BoundedAdapter>(
      p, [] { return std::make_unique<BoundedAdapter>(false); }, a.seed,
      kRungRounds, round_s);
  const Rung bounded = measure<BoundedAdapter>(
      p, [] { return std::make_unique<BoundedAdapter>(true); }, a.seed,
      kRungRounds, round_s);
  const Rung sharded = measure<ShardedAdapter>(
      p, [] { return std::make_unique<ShardedAdapter>(); }, a.seed,
      kRungRounds, round_s);
  const Rung channel = measure<ChannelAdapter>(
      p, [] { return std::make_unique<ChannelAdapter>(); }, a.seed,
      kRungRounds, round_s);

  const std::pair<const char*, const Rung*> rungs[] = {
      {"ring", &ring},
      {"bounded_nomag", &nomag},
      {"bounded", &bounded},
      {"sharded", &sharded},
      {"channel", &channel}};
  for (const auto& [name, g] : rungs) {
    const std::string pre = std::string("ladder.") + name;
    p.layer.push_back({pre + ".ns_per_op", g->ns_per_op, "ns"});
    p.layer.push_back({pre + ".faa_per_op", g->faa_per_op, "count"});
    p.layer.push_back({pre + ".thld_per_op", g->thld_per_op, "count"});
  }
  // Self cost of each layer, by difference between adjacent rungs.
  p.layer.push_back({"core.ring.ns_per_op", ring.ns_per_op, "ns"});
  p.layer.push_back(
      {"core.bounded.ns_per_op", nomag.ns_per_op - ring.ns_per_op, "ns"});
  p.layer.push_back({"scale.magazine.ns_per_op",
                     bounded.ns_per_op - nomag.ns_per_op, "ns"});
  p.layer.push_back({"scale.sharded.ns_per_op",
                     sharded.ns_per_op - bounded.ns_per_op, "ns"});
  p.layer.push_back({"runtime.channel.ns_per_op",
                     channel.ns_per_op - bounded.ns_per_op, "ns"});
  return p;
}

namespace {

template <typename A>
bool flags(bool expect_failure, const char* name, std::string& detail) {
  P5050Result r =
      run_p5050<false, A>([] { return std::make_unique<A>(); }, 1, 7, 1, 0.02,
                          true, 1000);
  const bool flagged = r.failed > 0;
  if (flagged == expect_failure) return true;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "self-test: the %s adapter was %s (%llu failures in %llu "
                "items)",
                name, flagged ? "flagged" : "not flagged",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
  detail = buf;
  return false;
}

struct HonestAdapter : BoundedAdapter {
  HonestAdapter() : BoundedAdapter(true) {}
};

}  // namespace

bool self_test(std::string& detail) {
  return flags<HonestAdapter>(false, "honest", detail) &&
         flags<LossyAdapter>(true, "lossy", detail) &&
         flags<ReorderAdapter>(true, "reordering", detail);
}

}  // namespace pb
