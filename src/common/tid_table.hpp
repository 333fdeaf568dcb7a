// Per-tid state on demand (DESIGN.md §9 "Footprint", §11 TID-CHUNK).
//
// Every layer keeps some state per dense registry tid: the wCQ thread
// records, the index-magazine rows, UnboundedQueue's span rows and the
// hazard domain's slot and retire rows. The registry recycles low tids, so
// a process with a handful of threads uses the first few rows of tables
// sized for every tid the registry can hand out. TidTable allocates those
// rows in chunks of kChunkTids tids instead:
//
//  * A heap directory of ⌈limit / kChunkTids⌉ atomic chunk pointers.
//  * Chunk 0 is allocated at construction and also cached in the object,
//    so tids below kChunkTids reach their row with the same one load the
//    flat array it replaces took.
//  * Any other chunk is installed by row(), on the first session of a tid
//    that falls in it: one allocation and one acq_rel CAS into the
//    directory; the loser of an install race frees its copy. So each
//    chunk is installed at most once per table, and steady state never
//    allocates. A tid past the directory traps there, on every table.
//  * find(), any_present() and for_each_present() read present chunks
//    only and never
//    install: scans, drains and exit flushes must not grow a table for a
//    thread that never used it. An absent chunk holds no state anyone
//    published, so skipping it is exact.
//
// A row is `width` consecutive Row objects (the magazine rows are several
// slot words each), value-initialized and then passed to `Init`. Chunks are
// aligned to `Align` and metered like every other queue-owned allocation.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <new>
#include <utility>

#include "common/align.hpp"
#include "common/alloc_meter.hpp"

namespace wcq {

// Default chunk initializer: value-initialized rows need nothing more.
struct TidRowsAsConstructed {
  template <typename Row>
  void operator()(Row* /*rows*/, std::size_t /*n*/) const {}
};

template <typename Row, std::size_t Align = alignof(Row),
          typename Init = TidRowsAsConstructed>
class TidTable {
 public:
  static constexpr unsigned kChunkTids = 16;

  TidTable() = default;

  // Rows for tids [0, limit), `width` Row objects each; chunk 0 now.
  TidTable(unsigned limit, unsigned width) : limit_(limit), width_(width) {
    const unsigned n = chunks();
    dir_ = static_cast<std::atomic<Row*>*>(
        alloc_meter::allocate(n * sizeof(std::atomic<Row*>)));
    for (unsigned c = 0; c < n; ++c) new (dir_ + c) std::atomic<Row*>(nullptr);
    chunk0_ = make_chunk();
    dir_[0].store(chunk0_, std::memory_order_relaxed);
  }

  ~TidTable() {
    if (dir_ == nullptr) return;
    for (unsigned c = 0; c < chunks(); ++c) {
      free_chunk(dir_[c].load(std::memory_order_relaxed));
    }
    alloc_meter::deallocate(dir_, chunks() * sizeof(std::atomic<Row*>));
  }

  TidTable(const TidTable&) = delete;
  TidTable& operator=(const TidTable&) = delete;
  TidTable(TidTable&& o) noexcept
      : dir_(std::exchange(o.dir_, nullptr)),
        chunk0_(std::exchange(o.chunk0_, nullptr)),
        limit_(std::exchange(o.limit_, 0)),
        width_(std::exchange(o.width_, 0)) {}
  TidTable& operator=(TidTable&& o) noexcept {
    if (this != &o) {
      this->~TidTable();
      new (this) TidTable(std::move(o));
    }
    return *this;
  }

  // The owner path: `tid`'s row, installing its chunk on first use. Traps
  // on a tid whose chunk lies past the directory.
  Row* row(unsigned tid) {
    if (tid < kChunkTids) return chunk0_ + tid * width_;
    return install(tid / kChunkTids) + (tid % kChunkTids) * width_;
  }

  // `tid`'s row if its chunk is present, else nullptr. Never installs.
  Row* find(unsigned tid) const {
    if (tid < kChunkTids) return chunk0_ + tid * width_;
    Row* base = dir_[tid / kChunkTids].load(std::memory_order_acquire);
    return base == nullptr ? nullptr : base + (tid % kChunkTids) * width_;
  }

  // pred(tid, row) for the tids below min(n, limit()) whose chunk is
  // present, in tid order, stopping at the first that returns true; returns
  // whether one did.
  template <typename Pred>
  bool any_present(unsigned n, Pred&& pred) const {
    if (n > limit_) n = limit_;
    for (unsigned c = 0; c * kChunkTids < n; ++c) {
      Row* base = dir_[c].load(std::memory_order_acquire);
      if (base == nullptr) continue;
      const unsigned lo = c * kChunkTids;
      const unsigned hi = lo + kChunkTids < n ? lo + kChunkTids : n;
      for (unsigned t = lo; t < hi; ++t) {
        if (pred(t, base + (t - lo) * width_)) return true;
      }
    }
    return false;
  }

  // f(tid, row) for every tid below min(n, limit()) whose chunk is present.
  template <typename F>
  void for_each_present(unsigned n, F&& f) const {
    any_present(n, [&](unsigned t, Row* r) {
      f(t, r);
      return false;
    });
  }

  // Metered bytes the table holds now: the directory and present chunks.
  std::size_t bytes() const {
    if (dir_ == nullptr) return 0;
    std::size_t total = directory_bytes();
    for (unsigned c = 0; c < chunks(); ++c) {
      if (dir_[c].load(std::memory_order_acquire) != nullptr) {
        total += chunk_bytes();
      }
    }
    return total;
  }

 private:
  unsigned chunks() const { return (limit_ + kChunkTids - 1) / kChunkTids; }
  std::size_t chunk_bytes() const {
    return AlignedArray<Row>::round_up(
        std::size_t{kChunkTids} * width_ * sizeof(Row), Align);
  }
  std::size_t directory_bytes() const {
    return chunks() * sizeof(std::atomic<Row*>);
  }

  // Out of line: callers inline row()'s chunk-0 fast path, and a first
  // session elsewhere is rare.
  [[gnu::noinline, gnu::cold]] Row* install(unsigned c) {
    if (c >= chunks()) {
      assert(false && "tid past the per-tid table's limit");
      __builtin_trap();
    }
    Row* cur = dir_[c].load(std::memory_order_acquire);
    if (cur != nullptr) return cur;
    Row* fresh = make_chunk();
    if (dir_[c].compare_exchange_strong(cur, fresh, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
      return fresh;
    }
    free_chunk(fresh);
    return cur;
  }

  Row* make_chunk() const {
    const std::size_t n = std::size_t{kChunkTids} * width_;
    Row* p = static_cast<Row*>(
        alloc_meter::allocate_aligned(chunk_bytes(), Align));
    for (std::size_t i = 0; i < n; ++i) new (p + i) Row();
    Init{}(p, n);
    return p;
  }

  void free_chunk(Row* p) const {
    if (p == nullptr) return;
    for (std::size_t i = std::size_t{kChunkTids} * width_; i > 0; --i) {
      p[i - 1].~Row();
    }
    alloc_meter::deallocate_aligned(p, chunk_bytes());
  }

  std::atomic<Row*>* dir_ = nullptr;
  Row* chunk0_ = nullptr;
  unsigned limit_ = 0;
  unsigned width_ = 0;
};

// Tables sit inside queue objects whose sizes are pinned: a table may take
// no more room than a flat AlignedArray of the same rows.
static_assert(sizeof(TidTable<u64>) <= sizeof(AlignedArray<u64>));

}  // namespace wcq
