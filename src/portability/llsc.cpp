#include "portability/llsc.hpp"

#include <atomic>

#include "common/rng.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

namespace llsc_inject {

namespace {
std::atomic<std::uint64_t> g_failure_rate_permille{0};
std::atomic<std::uint64_t> g_injected{0};
std::atomic<std::uint64_t> g_attempts{0};
}  // namespace

void set_rate(double p) {
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  g_failure_rate_permille.store(static_cast<std::uint64_t>(p * 1000.0),
                                std::memory_order_relaxed);
}

double rate() {
  return static_cast<double>(
             g_failure_rate_permille.load(std::memory_order_relaxed)) /
         1000.0;
}

bool should_fail() {
  const std::uint64_t permille =
      g_failure_rate_permille.load(std::memory_order_relaxed);
  if (permille == 0) return false;
  // Attempts are only tallied while injection is armed: benchmarks run with
  // it off and must not pay for a contended counter line in the SC path.
  g_attempts.fetch_add(1, std::memory_order_relaxed);
  thread_local Xoshiro256 rng{0xC0FFEEULL + ThreadRegistry::tid()};
  if (rng.bounded(1000) < permille) {
    g_injected.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

std::uint64_t injected() { return g_injected.load(std::memory_order_relaxed); }

std::uint64_t attempts() { return g_attempts.load(std::memory_order_relaxed); }

}  // namespace llsc_inject

}  // namespace wcq
