// Thread-local shared-ring operation counters (DESIGN.md §9).
//
// The Fig 2 indirection layer pays two shared-ring operations per logical
// queue operation (one on fq, one on aq), each of which issues seq_cst RMWs
// on contended counter lines. The index-magazine subsystem exists to
// amortize the fq half away; these counters make that claim *measurable* on
// hosts where wall-clock throughput is noise (the 1-core CI runner).
//
// Three counters, incremented at the sites inside the rings and registry:
//   faa       — F&A (or the slow path's published-increment CAS2) on a
//               shared Head/Tail counter line
//   threshold — RMW/store traffic on a shared Threshold line
//   registry  — ThreadRegistry::tid()/high_water() resolutions, i.e. the
//               thread_local/global-registry lookups the per-thread session
//               handles (DESIGN.md §10) exist to hoist off the hot path.
//               Counted inside the registry itself so every layer's lookup
//               is captured; the handle CI gate (bench/gates.json ringops)
//               requires the explicit-handle path to stay ≤ 1 per op.
//   remote_steal — ShardedQueue operations that *succeeded* on a shard homed
//               on a different NUMA node than the calling session
//               (DESIGN.md §12). Failed probes of remote shards during a
//               sweep are free of side effects and not counted; a nonzero
//               count means payload actually crossed the interconnect. The
//               topology CI gate (bench/gates.json topology) requires exactly
//               0 under node-partitioned placement.
//
// The counters are plain thread-local increments (one add on a core-private
// line, no atomics), cheap enough to keep unconditionally enabled; the bench
// harness snapshots them per worker and reports per-operation means.
#pragma once

#include <cstdint>

namespace wcq::opcount {

struct Counters {
  std::uint64_t faa = 0;
  std::uint64_t threshold = 0;
  std::uint64_t registry = 0;
  std::uint64_t remote_steal = 0;
};

// Function-local thread_local rather than an extern TLS object: GCC's
// -fsanitize=null instrumentation has a long-standing false positive on
// direct member access through an extern thread_local under optimization
// ("member access within null pointer" on the segment-relative address),
// which would make the UBSan tier unusable. The accessor compiles to the
// same single fs-relative add; snapshot() keeps the public API unchanged.
inline Counters& tls_counters() noexcept {
  thread_local Counters c{};
  return c;
}

inline void count_faa() { ++tls_counters().faa; }
inline void count_threshold() { ++tls_counters().threshold; }
inline void count_registry() { ++tls_counters().registry; }
inline void count_remote_steal() { ++tls_counters().remote_steal; }

// Snapshot of this thread's counters (diff two snapshots around a workload).
inline Counters snapshot() { return tls_counters(); }

}  // namespace wcq::opcount
