// Native AArch64 LL/SC over the 16-byte reservation granule (paper §4).
//
// AArch64's LDXP/STXP exclusive pair covers exactly the paper's granule: one
// reservation spanning both words of an entry pair. Where the simulator
// (portability/llsc.hpp) models reservation loss with a CAS2 of a snapshot,
// this backend uses the real exclusive monitor — spurious SC failures are
// now produced by the hardware (cache evictions, context switches, monitor
// clearing), so the existing ≤50%-injection suites become the correctness
// envelope rather than the only source of weak behavior.
//
// The backend is the fused update_value/update_note pair that wCQ's entry
// ops need (DESIGN.md §15): one asm block each — LDAXP both words, compare
// against the expected pair, STLXP the updated pair, CLREX on mismatch. The
// architecture allows *any* memory access (even a thread_local spill)
// between a split LL and SC to clear the exclusive monitor, so an LL/SC
// pair separated by a function return can livelock. Keeping the whole
// sequence in one block with no intervening loads/stores is the standard
// -moutline-atomics-era idiom.
//
// It shares llsc_inject with the simulator: one knob and one set of
// counters arm spurious failures against every backend.
#pragma once

#include "portability/llsc.hpp"

#if defined(__aarch64__) && !defined(WCQ_NO_NATIVE_LLSC)
#define WCQ_HAS_NATIVE_LLSC 1
#endif

namespace wcq {

inline const char* llsc_backend_name() {
#if defined(WCQ_HAS_NATIVE_LLSC)
  return "ldxp-stxp";
#else
  return "sim-cas2";
#endif
}

#if defined(WCQ_HAS_NATIVE_LLSC)

class LLSCNative {
 public:
  // Fused CAS-shaped update: succeed iff the granule still equals `expected`
  // and the exclusive store lands; the non-updated word is re-stored from
  // the value observed under the reservation (== expected's, by the
  // compare). Returns false on mismatch, monitor loss, or injection.
  static bool update_value(AtomicPair128& granule, const Pair128& expected,
                           u64 new_lo) {
    // Injection happens before the exclusive opens: a function call between
    // LDAXP and STLXP could itself clear the monitor and bias the measured
    // failure population.
    if (llsc_inject::should_fail()) return false;
    u64 lo, hi;
    std::uint32_t fail;
    asm volatile(
        "ldaxp %[lo], %[hi], %[mem]\n\t"
        "cmp %[lo], %[exp_lo]\n\t"
        "ccmp %[hi], %[exp_hi], #0, eq\n\t"
        "b.ne 1f\n\t"
        "stlxp %w[fail], %[new_lo], %[hi], %[mem]\n\t"
        "b 2f\n"
        "1:\n\t"
        "clrex\n\t"
        "mov %w[fail], #2\n"
        "2:"
        : [lo] "=&r"(lo), [hi] "=&r"(hi), [fail] "=&r"(fail),
          [mem] "+Q"(granule)
        : [exp_lo] "r"(expected.lo), [exp_hi] "r"(expected.hi),
          [new_lo] "r"(new_lo)
        : "cc", "memory");
    return fail == 0;
  }

  static bool update_note(AtomicPair128& granule, const Pair128& expected,
                          u64 new_hi) {
    if (llsc_inject::should_fail()) return false;
    u64 lo, hi;
    std::uint32_t fail;
    asm volatile(
        "ldaxp %[lo], %[hi], %[mem]\n\t"
        "cmp %[lo], %[exp_lo]\n\t"
        "ccmp %[hi], %[exp_hi], #0, eq\n\t"
        "b.ne 1f\n\t"
        "stlxp %w[fail], %[lo], %[new_hi], %[mem]\n\t"
        "b 2f\n"
        "1:\n\t"
        "clrex\n\t"
        "mov %w[fail], #2\n"
        "2:"
        : [lo] "=&r"(lo), [hi] "=&r"(hi), [fail] "=&r"(fail),
          [mem] "+Q"(granule)
        : [exp_lo] "r"(expected.lo), [exp_hi] "r"(expected.hi),
          [new_hi] "r"(new_hi)
        : "cc", "memory");
    return fail == 0;
  }
};

#endif  // WCQ_HAS_NATIVE_LLSC

}  // namespace wcq
