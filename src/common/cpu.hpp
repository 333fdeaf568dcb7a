// CPU affinity and spin-wait primitives.
//
// The paper pins measurement threads ("x86-64's throughput peaks for 18
// threads (all 18 threads can fit just one physical CPU)"); benchmarks,
// examples and tests pin round-robin through pin_thread.
#pragma once

#include <cstdint>

namespace wcq {

// Number of online CPUs.
unsigned cpu_count();

// Pin the calling thread to cpu `index % cpu_count()` — round-robin over the
// machine. No-op on failure (restricted cpusets, missing CPUs): callers
// still run, just unpinned; nothing reports or retries, by contract.
void pin_thread(unsigned index);

// A few-cycle pause to play nice with the sibling hyperthread inside spin
// loops. PAUSE on x86; ISB on AArch64 — YIELD is architecturally a NOP on
// most ARM cores (it only hints SMT, which is rare there), while ISB stalls
// the pipeline long enough to open a window for the spun-on store to land
// and measurably cuts exclusive-monitor/coherence traffic in LDXP/STXP
// loops (DESIGN.md §15). Other ISAs get a compiler barrier so spun-on
// values are at least re-loaded instead of hoisted, rather than falling
// through to nothing.
inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("isb" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Current resident set size in bytes (Linux /proc/self/statm); 0 if unknown.
// Used by the Fig 10 memory bench alongside the deterministic alloc meter.
std::uint64_t current_rss_bytes();

}  // namespace wcq
