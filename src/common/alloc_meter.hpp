// Deterministic allocation metering for the Fig 10 memory-usage experiment.
//
// The paper measures "memory consumed" per algorithm under a 50/50 random
// workload with tiny delays: LCRQ's closed rings and YMC's segments pile up,
// while SCQ/wCQ stay at their statically-allocated ring size. RSS is noisy
// (allocator caching, page granularity), so every queue in this library
// routes its dynamic allocations through this meter; the benchmark reports
// live bytes and peak bytes exactly, plus RSS for context.
//
// Counters are per-cache-line sharded to keep the meter from becoming the
// bottleneck it is trying to measure.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/align.hpp"

namespace wcq::alloc_meter {

inline constexpr unsigned kShards = 64;

struct Shard {
  alignas(kCacheLine) std::atomic<std::int64_t> live{0};
  std::atomic<std::int64_t> allocs{0};
};

Shard* shards();

// Account `bytes` to the calling thread's shard and allocate. The aligned
// variants (also declared in common/align.hpp for AlignedArray) feed the
// same counters: ring-entry arrays, per-thread record arrays and payload
// storage are all AlignedArray-backed, so every byte a queue — or an
// UnboundedQueue segment — owns is metered, not just its top-level node.
void* allocate(std::size_t bytes);
void deallocate(void* p, std::size_t bytes);
void* allocate_aligned(std::size_t bytes, std::size_t alignment);
void deallocate_aligned(void* p, std::size_t bytes);

// Aggregate counters (live can transiently undershoot peak accounting; peak
// is tracked as max-of-live observed at allocation time).
//
// total_allocations() counts every metered allocation event (plain and
// aligned) and never decreases; a steady-state phase is allocation-free
// exactly when this counter stops moving — the property the segment pool
// buys for UnboundedQueue and the wcq_bench fig10 panel reports per run.
std::int64_t live_bytes();
std::int64_t total_allocations();
std::int64_t peak_bytes();
void reset_peak();

// STL-compatible allocator that routes through the meter. Used by queue
// internals so that *all* queue memory shows up in Fig 10.
template <typename T>
struct MeteredAllocator {
  using value_type = T;
  MeteredAllocator() = default;
  template <typename U>
  MeteredAllocator(const MeteredAllocator<U>&) {}  // NOLINT(implicit)

  T* allocate(std::size_t n) {
    if constexpr (alignof(T) > alignof(std::max_align_t)) {
      return static_cast<T*>(
          alloc_meter::allocate_aligned(n * sizeof(T), alignof(T)));
    } else {
      return static_cast<T*>(alloc_meter::allocate(n * sizeof(T)));
    }
  }
  void deallocate(T* p, std::size_t n) {
    if constexpr (alignof(T) > alignof(std::max_align_t)) {
      alloc_meter::deallocate_aligned(p, n * sizeof(T));
    } else {
      alloc_meter::deallocate(p, n * sizeof(T));
    }
  }
  template <typename U>
  bool operator==(const MeteredAllocator<U>&) const {
    return true;
  }
};

// Typed convenience helpers for queue nodes/segments. Over-aligned types
// (cache-line-aligned Impl structs and the like) must go through the aligned
// path: plain malloc only guarantees max_align_t, and constructing an
// alignas(64) object on a 16-byte boundary is UB (UBSan: "constructor call
// on misaligned address").
template <typename T, typename... Args>
T* create(Args&&... args) {
  void* p;
  if constexpr (alignof(T) > alignof(std::max_align_t)) {
    p = allocate_aligned(sizeof(T), alignof(T));
  } else {
    p = allocate(sizeof(T));
  }
  return new (p) T(static_cast<Args&&>(args)...);
}

template <typename T>
void destroy(T* p) {
  if (p != nullptr) {
    p->~T();
    if constexpr (alignof(T) > alignof(std::max_align_t)) {
      deallocate_aligned(p, sizeof(T));
    } else {
      deallocate(p, sizeof(T));
    }
  }
}

}  // namespace wcq::alloc_meter
