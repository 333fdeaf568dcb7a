#include "common/cpu.hpp"

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>

namespace wcq {

unsigned cpu_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

void pin_thread(unsigned index) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(index % cpu_count(), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::uint64_t current_rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int rc = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (rc != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace wcq
