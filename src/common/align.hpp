// Cache-line and alignment utilities shared by every lock-free module.
//
// All contended variables in this library are isolated to their own cache
// line (the paper's queues put Head, Tail and Threshold on separate lines),
// and ring-buffer arrays are allocated line-aligned so that Cache_Remap's
// permutation math (see core/remap.hpp) lines up with real cache lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

namespace wcq {

using u64 = std::uint64_t;
using i64 = std::int64_t;

// Defined in common/alloc_meter.cpp; declared here so AlignedArray (ring
// buffers, record arrays) is visible to the Fig 10 memory accounting
// without an include cycle.
namespace alloc_meter {
void* allocate_aligned(std::size_t bytes, std::size_t alignment);
void deallocate_aligned(void* p, std::size_t bytes);
}  // namespace alloc_meter

// 64 bytes on every CPU this library targets. We intentionally do not use
// std::hardware_destructive_interference_size: it is 256 on some toolchains
// and would quadruple ring-buffer footprints measured in the Fig 10 bench.
inline constexpr std::size_t kCacheLine = 64;

// Adjacent-line prefetcher pairs lines on x86; top-level queue objects are
// padded to 2 lines to keep producers and consumers from false sharing.
inline constexpr std::size_t kDestructiveRange = 128;

// A value padded out to occupy one full cache line.
template <typename T>
struct alignas(kCacheLine) CacheAligned {
  T value{};
  char pad_[kCacheLine - (sizeof(T) % kCacheLine ? sizeof(T) % kCacheLine
                                                 : kCacheLine)];
};

// RAII array storage with explicit alignment (for ring buffers whose slots
// must be 16-byte aligned for CAS2 and line-aligned as a whole).
template <typename T>
class AlignedArray {
 public:
  AlignedArray() = default;
  AlignedArray(std::size_t n, std::size_t alignment) : n_(n) {
    bytes_ = round_up(n * sizeof(T), alignment);
    ptr_ = static_cast<T*>(alloc_meter::allocate_aligned(bytes_, alignment));
    for (std::size_t i = 0; i < n_; ++i) {
      new (ptr_ + i) T();
    }
  }
  ~AlignedArray() {
    if (ptr_ != nullptr) {
      for (std::size_t i = n_; i > 0; --i) {
        ptr_[i - 1].~T();
      }
      alloc_meter::deallocate_aligned(ptr_, bytes_);
    }
  }
  AlignedArray(const AlignedArray&) = delete;
  AlignedArray& operator=(const AlignedArray&) = delete;
  AlignedArray(AlignedArray&& o) noexcept
      : ptr_(o.ptr_), n_(o.n_), bytes_(o.bytes_) {
    o.ptr_ = nullptr;
    o.n_ = 0;
    o.bytes_ = 0;
  }
  AlignedArray& operator=(AlignedArray&& o) noexcept {
    if (this != &o) {
      this->~AlignedArray();
      new (this) AlignedArray(std::move(o));
    }
    return *this;
  }

  T* data() noexcept { return ptr_; }
  const T* data() const noexcept { return ptr_; }
  T& operator[](std::size_t i) noexcept { return ptr_[i]; }
  const T& operator[](std::size_t i) const noexcept { return ptr_[i]; }
  std::size_t size() const noexcept { return n_; }
  // Metered bytes of the allocation (size() elements, rounded up to the
  // alignment).
  std::size_t bytes() const noexcept { return bytes_; }

  static constexpr std::size_t round_up(std::size_t v, std::size_t a) {
    return (v + a - 1) / a * a;
  }

 private:
  T* ptr_ = nullptr;
  std::size_t n_ = 0;
  std::size_t bytes_ = 0;
};

constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr unsigned log2_floor(std::uint64_t v) {
  unsigned r = 0;
  while (v > 1) {
    v >>= 1;
    ++r;
  }
  return r;
}

}  // namespace wcq
