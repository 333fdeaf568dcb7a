// Shared plumbing for the perfbench binary: clocks, the seeded RNG, a
// log-linear latency histogram, the round clock that slices a timed window,
// and the metric record.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace pb {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

inline u64 thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<u64>(ts.tv_sec) * 1000000000ull +
         static_cast<u64>(ts.tv_nsec);
}

// Span timestamps: the TSC where there is one (a steady_clock read costs
// ~40 ns on a TSC-clocked VM, a third of a queue op), steady_clock
// elsewhere. Ticks are converted to ns by a calibration over each traced
// pass, so they are only ever compared within one pass.
inline u64 ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return now_ns();
#endif
}

// splitmix64: seeds per-thread streams from (seed, stream) so every thread
// of every workload draws a fixed sequence for a given --seed.
class Rng {
 public:
  Rng(u64 seed, u64 stream) : s_(seed * 0x9e3779b97f4a7c15ull + stream + 1) {}
  u64 next() {
    u64 z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1]: never 0, so -log() is finite.
  double unit() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740992.0;
  }

 private:
  u64 s_;
};

// Log-linear histogram: exact below 64, then 32 sub-buckets per power of
// two (~3% bucket width). quantile() interpolates by rank inside a bucket,
// so a reported percentile moves with the data rather than snapping to a
// bucket edge.
class Hist {
 public:
  static constexpr unsigned kSub = 32;
  static constexpr unsigned kBuckets = 64 + (64 - 6) * kSub;

  void add(u64 v) {
    ++b_[bucket(v)];
    ++n_;
  }
  void merge(const Hist& o) {
    for (unsigned i = 0; i < kBuckets; ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  u64 count() const { return n_; }

  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double rank = q * static_cast<double>(n_);
    u64 cum = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      if (b_[i] == 0) continue;
      if (static_cast<double>(cum + b_[i]) >= rank) {
        const double frac =
            (rank - static_cast<double>(cum)) / static_cast<double>(b_[i]);
        return static_cast<double>(lower(i)) +
               static_cast<double>(width(i)) * std::clamp(frac, 0.0, 1.0);
      }
      cum += b_[i];
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static unsigned bucket(u64 v) {
    if (v < 64) return static_cast<unsigned>(v);
    const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    const unsigned sub = static_cast<unsigned>(v >> (e - 5)) & (kSub - 1);
    return 64 + (e - 6) * kSub + sub;
  }
  static u64 lower(unsigned i) {
    if (i < 64) return i;
    const unsigned e = 6 + (i - 64) / kSub;
    return (u64{kSub} + (i - 64) % kSub) << (e - 5);
  }
  static u64 width(unsigned i) {
    if (i < 64) return 1;
    return u64{1} << (6 + (i - 64) / kSub - 5);
  }

  std::array<u64, kBuckets> b_{};
  u64 n_ = 0;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The round clock. A run's threads read the phase once per operation:
// 0 is set-up and warm-up, 1..rounds are the timed rounds, rounds+1 stops
// the workers. Each end-to-end figure is computed per round and reported as
// the median over rounds, so one descheduled slice of a shared host moves a
// run's result by at most one rank.
class Rounds {
 public:
  explicit Rounds(int rounds) : rounds_(rounds), edges_(rounds + 1, 0) {}

  int phase() const { return phase_.load(std::memory_order_acquire); }
  int rounds() const { return rounds_; }
  bool stopped(int p) const { return p > rounds_; }

  // Runs rounds of `round_s` seconds each on the calling thread.
  void drive(double round_s) {
    const u64 dur = static_cast<u64>(round_s * 1e9);
    edges_[0] = now_ns();
    for (int r = 1; r <= rounds_; ++r) {
      phase_.store(r, std::memory_order_release);
      const u64 until = edges_[0] + dur * static_cast<u64>(r);
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(until)));
      edges_[r] = now_ns();
    }
    stop();
  }
  void stop() { phase_.store(rounds_ + 1, std::memory_order_release); }

  // Wall-clock length of round r (1-based).
  double seconds(int r) const {
    return static_cast<double>(edges_[r] - edges_[r - 1]) * 1e-9;
  }

 private:
  alignas(64) std::atomic<int> phase_{0};
  int rounds_;
  std::vector<u64> edges_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace pb
