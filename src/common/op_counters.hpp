// Thread-local operation counters: the repo's one event table (DESIGN.md §9).
//
// The counters make wall-clock-independent claims measurable on hosts where
// throughput is noise (the 1-core CI runner): the magazines' amortization of
// the Fig 2 fq half (faa, threshold), the session handles' lookup budget
// (registry), and how often wCQ's slow path — the paper's contribution,
// rare by design — runs at all:
//   faa          — F&A (or the slow path's published-increment CAS2) on a
//                  shared Head/Tail counter line
//   threshold    — RMW/store traffic on a shared Threshold line
//   registry     — ThreadRegistry::tid()/high_water() resolutions, counted
//                  inside the registry so every layer's lookup is captured
//   remote_steal — always 0: nothing increments it since the NUMA topology
//                  layer was retired (DESIGN.md §12). The row stays only
//                  because perfbench still reads the field and reports
//                  scale.sharded.remote_steal_per_op; it goes together with
//                  those two reads (ROADMAP item 7).
//   wcq_*        — wCQ slow-path arms (core/wcq.hpp), each counted once where
//                  taken: patience ran out (enq/deq), a validated help of a
//                  peer's request (enq/deq), a help of a peer's published
//                  Phase-2 increment, the consume of a two-step (Enq=0) entry
//                  that finalizes its slow enqueuer's request
//   hazard_publish — seq_cst hazard-slot stores in HazardDomain's publish
//                  paths (protect, set), the barrier an UnboundedQueue
//                  session pays to pin a segment
//
// WCQ_EVENTS is the table, one row per counter: X(field, json_key_stem,
// description). The Counters field, its operator-/operator+=, count_<field>()
// and the bench's "<json_key_stem>_per_op_mean" metric are generated from
// it, so a new counter is one row plus its increment site. Each is a plain
// thread-local add (no atomics), cheap enough to stay unconditionally on.
#pragma once

#include <cstdint>

#include "common/align.hpp"

// clang-format off
#define WCQ_EVENTS(X)                                                         \
  X(faa, "ring_faa", "shared Head/Tail F&As per op")                          \
  X(threshold, "ring_thld", "shared Threshold RMWs/stores per op")            \
  X(registry, "registry", "registry/thread_local lookups per op")             \
  X(remote_steal, "remote_steal", "always 0 (kept for perfbench)")            \
  X(wcq_enq_slow, "wcq_enq_slow", "wCQ slow-path enqueues per op")            \
  X(wcq_deq_slow, "wcq_deq_slow", "wCQ slow-path dequeues per op")            \
  X(wcq_help_enq, "wcq_help_enq", "wCQ helped peer enqueues per op")          \
  X(wcq_help_deq, "wcq_help_deq", "wCQ helped peer dequeues per op")          \
  X(wcq_phase2_help, "wcq_phase2_help", "wCQ Phase-2 helps per op")           \
  X(wcq_finalize, "wcq_finalize", "wCQ slow enqueues finalized per op")       \
  X(hazard_publish, "hazard_publish", "hazard-slot publishes per op")
// clang-format on

namespace wcq::opcount {

// Line-aligned because snapshots are embedded in per-thread records that
// their owner threads write (a bench worker's before/after pair). At 80
// bytes and unaligned, the table shifted those records enough to cost the
// perfbench sharded_pipeline workload ~10% throughput (4-vCPU x86-64; the
// old 32-byte table padded to 80 bytes did the same); aligning the type,
// not just the thread-local copy, restores it.
struct alignas(kCacheLine) Counters {
#define WCQ_EVENT_FIELD(f, key, desc) std::uint64_t f = 0;
  WCQ_EVENTS(WCQ_EVENT_FIELD)
#undef WCQ_EVENT_FIELD

  Counters& operator+=(const Counters& o) {
#define WCQ_EVENT_ADD(f, key, desc) f += o.f;
    WCQ_EVENTS(WCQ_EVENT_ADD)
#undef WCQ_EVENT_ADD
    return *this;
  }

  friend Counters operator-(Counters a, const Counters& b) {
#define WCQ_EVENT_SUB(f, key, desc) a.f -= b.f;
    WCQ_EVENTS(WCQ_EVENT_SUB)
#undef WCQ_EVENT_SUB
    return a;
  }
};

// Function-local thread_local rather than an extern TLS object: GCC's
// -fsanitize=null instrumentation has a long-standing false positive on
// direct member access through an extern thread_local under optimization
// ("member access within null pointer" on the segment-relative address),
// which would make the UBSan tier unusable. The accessor compiles to the
// same single fs-relative add.
inline Counters& tls_counters() noexcept {
  thread_local Counters c{};
  return c;
}

#define WCQ_EVENT_COUNT(f, key, desc) \
  inline void count_##f() { ++tls_counters().f; }
WCQ_EVENTS(WCQ_EVENT_COUNT)
#undef WCQ_EVENT_COUNT

// Snapshot of this thread's counters (diff two snapshots around a workload).
inline Counters snapshot() { return tls_counters(); }

}  // namespace wcq::opcount
