// Simulated weak LL/SC over 16-byte reservation granules (paper §4).
//
// PowerPC and MIPS lack CAS2; the paper implements wCQ there with LL/SC
// whose reservation granule spans both words of an entry pair, loading the
// second word with a plain (dependency-ordered) load between LL and SC. We
// cannot run PowerPC hardware here (see DESIGN.md §4), so this module
// provides a behavioral model of weak LL/SC on x86. wCQ's slow path reads
// both words of a pair but updates one word at a time (Fig 9), so the model
// is exactly that fused step and nothing more:
//
//  * update_value / update_note(granule, expected, word) succeed iff the
//    *entire* 16-byte granule still equals `expected` (reservation-granule
//    semantics: an intervening write to the other word kills the
//    reservation too, exactly the false-sharing behavior §4 describes) —
//    implemented with one CAS2 that re-stores the untouched word.
//  * Optional sporadic failure injection models weak LL/SC's spurious SC
//    failures (OS events, cache evictions). Tests run the full wCQ suite
//    with failure rates up to 70%.
//
// Each backend is itself the entry-ops policy of BasicWCQ
// (core/wcq_llsc.hpp). On AArch64 the same two calls are real LDAXP/STLXP
// exclusive pairs in llsc_native.hpp; both backends share the injection
// machinery in llsc_inject, consulted before the update, so the
// spurious-SC storm suites exercise either backend with the same counters
// (DESIGN.md §15).
#pragma once

#include <cstdint>

#include "common/dwcas.hpp"

namespace wcq {

// Injection machinery shared by the simulated and native LL/SC backends.
// Global, test-only; default rate 0 keeps all of it off the SC hot path.
namespace llsc_inject {

// Probability in [0,1] that an otherwise-successful SC spuriously fails.
void set_rate(double p);
double rate();

// True if this SC attempt should spuriously fail. Counts the attempt (only
// while injection is armed — benchmarks must not pay for a contended counter
// line in the SC path).
bool should_fail();

// Number of SCs that failed due to injection.
std::uint64_t injected();

// Number of SCs attempted while injection was armed (the population eligible
// for injection). Tests asserting "the injector fired" gate on this — on a
// 1-core host the wCQ slow path may see so little genuine contention that
// almost no LL/SC updates run at all.
std::uint64_t attempts();

}  // namespace llsc_inject

// Fig 9's CAS2_Value / CAS2_Note over the simulated granule. Entry pairs
// are {lo = value, hi = note}. Returns false if the granule differs from
// `expected` or on an injected sporadic failure; the granule is then
// untouched.
struct LLSCSim {
  static bool update_value(AtomicPair128& granule, const Pair128& expected,
                           u64 new_value) {
    if (llsc_inject::should_fail()) return false;
    Pair128 exp = expected;
    return dwcas(granule, exp, Pair128{new_value, expected.hi});
  }
  static bool update_note(AtomicPair128& granule, const Pair128& expected,
                          u64 new_note) {
    if (llsc_inject::should_fail()) return false;
    Pair128 exp = expected;
    return dwcas(granule, exp, Pair128{expected.lo, new_note});
  }
};

}  // namespace wcq
