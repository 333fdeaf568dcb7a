// CPU helpers (common/cpu.hpp): the round-robin pin the benches, examples
// and test harness use, and the RSS probe behind the Fig 10 memory bench.
#include "common/cpu.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <thread>

namespace wcq {
namespace {

// The calling thread's affinity mask.
cpu_set_t affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(set), &set), 0);
  return set;
}

// Lowest CPU this thread may run on (a restricted cpuset need not hold
// CPU 0).
unsigned first_allowed_cpu() {
  const cpu_set_t set = affinity();
  for (unsigned c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) return c;
  }
  ADD_FAILURE() << "empty affinity mask";
  return 0;
}

TEST(Cpu, CountIsTheOnlineCpus) {
  const long online = ::sysconf(_SC_NPROCESSORS_ONLN);
  ASSERT_GT(online, 0);
  EXPECT_EQ(cpu_count(), static_cast<unsigned>(online));
}

TEST(Cpu, PinThreadRestrictsToOneCpu) {
  // Run on a fresh thread so the test binary's own mask is untouched.
  std::thread([] {
    const unsigned cpu = first_allowed_cpu();
    ASSERT_LT(cpu, cpu_count());
    pin_thread(cpu);
    const cpu_set_t set = affinity();
    EXPECT_EQ(CPU_COUNT(&set), 1);
    EXPECT_TRUE(CPU_ISSET(cpu, &set));
  }).join();
}

TEST(Cpu, PinThreadWrapsIndexRoundRobin) {
  // Index cpu_count() + c names the same CPU as c.
  std::thread([] {
    const unsigned cpu = first_allowed_cpu();
    ASSERT_LT(cpu, cpu_count());
    pin_thread(cpu + cpu_count());
    const cpu_set_t set = affinity();
    EXPECT_EQ(CPU_COUNT(&set), 1);
    EXPECT_TRUE(CPU_ISSET(cpu, &set));
  }).join();
}

TEST(Cpu, CurrentRssCountsTouchedPages) {
  // A fresh anonymous mapping, so no page of it was resident before.
  constexpr std::size_t kBytes = 16u << 20;
  const std::uint64_t before = current_rss_bytes();
  ASSERT_GT(before, 0u);
  void* block = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(block, MAP_FAILED);
  std::memset(block, 1, kBytes);
  const std::uint64_t after = current_rss_bytes();
  ::munmap(block, kBytes);
  EXPECT_GE(after, before + kBytes / 2)
      << "16 MiB touched, RSS " << before << " -> " << after;
}

}  // namespace
}  // namespace wcq
