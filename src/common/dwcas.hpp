// Double-width compare-and-swap (the paper's CAS2, §2).
//
// wCQ needs 16-byte CAS in two places: ring entries ({Note, Value} pairs,
// Fig 4) and the global Head/Tail references ({counter, phase2 pointer}
// pairs, Fig 7). Every caller needs the same thing from it, a sequentially
// consistent CAS of the whole pair (SLOW-CAS's phase-2 publish requires
// it), so `dwcas` takes no ordering argument. x86-64 provides cmpxchg16b;
// AArch64 provides the LSE caspal. On toolchains where 16-byte __atomic
// operations are routed through libatomic we use inline assembly to keep
// the hot path call-free.
//
// Backend selection (DESIGN.md §15):
//   x86-64            lock cmpxchg16b        (unless WCQ_NO_INLINE_CAS2)
//   aarch64 + LSE     caspal                 (__ARM_FEATURE_ATOMICS, i.e.
//                     -march=armv8.1-a+, or forced with WCQ_FORCE_LSE_CAS2)
//   anything else     __atomic_compare_exchange, seq_cst both ways
//
// Atomic 16-byte *loads* are deliberately NOT provided as a primitive.
// Per the paper (§4): every consumer of a pair either re-validates it with a
// CAS2 (so a torn two-word read only causes a benign retry) or bases its
// decision on a single word of the pair. We therefore read pairs as two
// individually-atomic 64-bit acquire loads.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/align.hpp"

#if defined(__aarch64__) && !defined(WCQ_NO_INLINE_CAS2) && \
    (defined(__ARM_FEATURE_ATOMICS) || defined(WCQ_FORCE_LSE_CAS2))
#define WCQ_DWCAS_BACKEND_LSE 1
#endif

namespace wcq {

struct alignas(16) Pair128 {
  std::uint64_t lo;
  std::uint64_t hi;

  friend bool operator==(const Pair128& a, const Pair128& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

// Storage for a CAS2-able pair. Each word is separately atomic so fast paths
// can F&A / load one word while slow paths CAS2 the pair (Fig 7: "use only
// .cnt for fast paths").
struct alignas(16) AtomicPair128 {
  std::atomic<std::uint64_t> lo;
  std::atomic<std::uint64_t> hi;

  // Two individually-atomic acquire loads; the combined value may be torn
  // (see file header for why that is safe everywhere this is used).
  Pair128 load_torn() const {
    Pair128 r;
    r.lo = lo.load(std::memory_order_acquire);
    r.hi = hi.load(std::memory_order_acquire);
    return r;
  }
};

static_assert(sizeof(AtomicPair128) == 16);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free);

// Human-readable backend name, reported by benches so committed JSON records
// which CAS2 implementation produced the numbers.
inline const char* dwcas_backend_name() {
#if defined(__x86_64__) && !defined(WCQ_NO_INLINE_CAS2)
  return "cmpxchg16b";
#elif defined(WCQ_DWCAS_BACKEND_LSE)
  return "lse-casp";
#else
  return "__atomic";
#endif
}

// 16-byte strong, sequentially consistent CAS. On success returns true; on
// failure updates `expected` with the observed value (like
// std::atomic::compare_exchange).
inline bool dwcas(AtomicPair128& target, Pair128& expected,
                  const Pair128& desired) {
#if defined(__x86_64__) && !defined(WCQ_NO_INLINE_CAS2)
  bool ok;
  asm volatile("lock cmpxchg16b %1"
               : "=@ccz"(ok), "+m"(target), "+a"(expected.lo),
                 "+d"(expected.hi)
               : "b"(desired.lo), "c"(desired.hi)
               : "memory");
  return ok;
#elif defined(WCQ_DWCAS_BACKEND_LSE)
  // CASP requires the compare/swap operands in consecutive even/odd
  // register pairs; pin them with register-asm locals. caspal (acquire +
  // release) is the seq_cst form of the RMW.
  register std::uint64_t x0 asm("x0") = expected.lo;
  register std::uint64_t x1 asm("x1") = expected.hi;
  register std::uint64_t x2 asm("x2") = desired.lo;
  register std::uint64_t x3 asm("x3") = desired.hi;
  asm volatile("caspal %0, %1, %3, %4, %2"
               : "+r"(x0), "+r"(x1), "+Q"(target)
               : "r"(x2), "r"(x3)
               : "memory");
  const bool ok = (x0 == expected.lo) && (x1 == expected.hi);
  expected.lo = x0;
  expected.hi = x1;
  return ok;
#else
  return __atomic_compare_exchange(
      reinterpret_cast<Pair128*>(&target), &expected,
      const_cast<Pair128*>(&desired), /*weak=*/false, __ATOMIC_SEQ_CST,
      __ATOMIC_SEQ_CST);
#endif
}

}  // namespace wcq
