// Adaptive spin-then-yield backoff for unbounded retry loops.
//
// Busy-wait loops built on cpu_relax() alone livelock on oversubscribed
// machines: the spinning thread burns its whole scheduling quantum while the
// thread it waits for is runnable but descheduled. A 1-core CI runner is the
// worst case — every handoff costs a full quantum, so a loop that needs a
// peer to run (a producer waiting for a consumer to free a slot, a consumer
// waiting for a producer to publish) degrades from nanoseconds to ~100 ms
// per retry and a 10^5-item test hangs past any CTest timeout.
//
// Backoff escalates: the first kSpinRounds calls to pause() spin in
// userspace with an exponentially growing train of cpu_relax()es (so
// uncontended retries stay cheap and off the scheduler), after which every
// pause() calls std::this_thread::yield(), donating the remainder of the
// quantum to the starved peer.
//
// Usage:
//   Backoff bo;
//   while (!try_something()) bo.pause();
//
// Call reset() after real progress if the same Backoff guards successive
// waits (e.g. one per item in a producer loop).
//
// This helper is for loops whose progress depends on *another thread's*
// steps (blocking-by-construction waits, and lock-free retry loops under
// oversubscription). wCQ's wait-free fast path is patience-bounded and never
// waits on a peer; it does not use Backoff (see DESIGN.md §5).
#pragma once

#include <cstdint>
#include <thread>

#include "common/cpu.hpp"

namespace wcq {

class Backoff {
 public:
  // pause() calls spent spinning before escalating to yield(). Round r
  // spins 2^min(r, 6) cpu_relax()es, so the 8 rounds are 1+2+...+64+64 = 191
  // relaxes before the first syscall (~2.7 us at a 14 ns x86 PAUSE) — long
  // enough to absorb cache-miss-length waits, short enough that a
  // descheduled peer costs one quantum, not many.
  static constexpr std::uint32_t kSpinRounds = 8;
  static constexpr std::uint32_t kMaxRelaxShift = 6;

  constexpr Backoff() = default;
  explicit constexpr Backoff(std::uint32_t spin_rounds)
      : spin_rounds_(spin_rounds) {}

  void pause() {
    if (round_ < spin_rounds_) {
      const std::uint32_t shift =
          round_ < kMaxRelaxShift ? round_ : kMaxRelaxShift;
      for (std::uint32_t i = 0; i < (std::uint32_t{1} << shift); ++i) {
        cpu_relax();
      }
      ++round_;
    } else {
      std::this_thread::yield();
      ++yields_;
    }
  }

  // Restart the ladder after the guarded condition made progress.
  void reset() { round_ = 0; }

  // Introspection (tests).
  std::uint32_t spin_rounds() const { return spin_rounds_; }
  std::uint32_t round() const { return round_; }
  std::uint64_t yields() const { return yields_; }

 private:
  std::uint32_t spin_rounds_ = kSpinRounds;
  std::uint32_t round_ = 0;
  std::uint64_t yields_ = 0;
};

}  // namespace wcq
