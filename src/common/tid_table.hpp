// Per-tid state on demand (DESIGN.md §9 "Footprint", §11 TID-CHUNK).
//
// Every layer keeps some state per dense registry tid: the wCQ thread
// records, the index-magazine rows, UnboundedQueue's span rows and the
// hazard domain's slot and retire rows. The registry recycles low tids, so
// a process with a handful of threads uses the first few rows of tables
// sized for every tid the registry can hand out. TidTable allocates rows
// as the tids in use reach them instead:
//
//  * The head chunk, rows for tids below kHeadTids, is allocated at
//    construction and held in the object, so those tids reach their row
//    with the same one load the flat array it replaces took. Until a
//    higher tid opens a session it is all the table holds.
//  * Every other tid lives in a chunk behind a heap directory of
//    ⌈limit / kChunkTids⌉ atomic chunk pointers: entry 0 holds the rest of
//    the first kChunkTids tids, entry c ≥ 1 tids [c·kChunkTids,
//    (c+1)·kChunkTids). So every chunk boundary of a plain 16-tid layout
//    is still a boundary, and for any highest tid in use the table holds
//    no more bytes than 16-tid chunks behind an eager directory would.
//  * The directory and any chunk are installed by row(), on the first
//    session of a tid that needs them: one allocation and one acq_rel CAS
//    each; the loser of an install race frees its copy. So each is
//    installed at most once per table, and steady state never allocates.
//    A tid past the directory traps there, on every table.
//  * find(), any_present() and for_each_present() read present chunks
//    only and never install: scans, drains and exit flushes must not grow
//    a table for a thread that never used it. An absent directory or
//    chunk holds no state anyone published, so skipping it is exact.
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
  static constexpr unsigned kHeadTids = kChunkTids / 2;

  TidTable() = default;

  // Rows for tids [0, limit), `width` Row objects each; the head chunk now.
  TidTable(unsigned limit, unsigned width) : limit_(limit), width_(width) {
    head_ = make_chunk(kHeadTids);
  }

  ~TidTable() {
    if (head_ == nullptr) return;
    free_chunk(head_, kHeadTids);
    std::atomic<Row*>* dir = dir_.load(std::memory_order_relaxed);
    if (dir == nullptr) return;
    for (unsigned c = 0; c < chunks(); ++c) {
      free_chunk(dir[c].load(std::memory_order_relaxed), chunk_tids(c));
    }
    alloc_meter::deallocate(dir, directory_bytes());
  }

  TidTable(const TidTable&) = delete;
  TidTable& operator=(const TidTable&) = delete;
  TidTable(TidTable&& o) noexcept
      : dir_(o.dir_.exchange(nullptr, std::memory_order_relaxed)),
        head_(std::exchange(o.head_, nullptr)),
        limit_(std::exchange(o.limit_, 0)),
        width_(std::exchange(o.width_, 0)) {}
  TidTable& operator=(TidTable&& o) noexcept {
    if (this != &o) {
      this->~TidTable();
      new (this) TidTable(std::move(o));
    }
    return *this;
  }

  // The owner path: `tid`'s row, installing the directory and its chunk
  // on first use. Traps on a tid whose chunk lies past the directory.
  Row* row(unsigned tid) {
    if (tid < kHeadTids) return head_ + tid * width_;
    return install(tid);
  }

  // `tid`'s row if its chunk is present, else nullptr. Never installs.
  Row* find(unsigned tid) const {
    if (tid < kHeadTids) return head_ + tid * width_;
    std::atomic<Row*>* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr) return nullptr;
    const unsigned c = tid / kChunkTids;
    Row* base = dir[c].load(std::memory_order_acquire);
    return base == nullptr ? nullptr : base + (tid - first_tid(c)) * width_;
  }

  // pred(tid, row) for the tids below min(n, limit()) whose chunk is
  // present, in tid order, stopping at the first that returns true; returns
  // whether one did.
  template <typename Pred>
  bool any_present(unsigned n, Pred&& pred) const {
    if (n > limit_) n = limit_;
    const unsigned head = n < kHeadTids ? n : kHeadTids;
    for (unsigned t = 0; t < head; ++t) {
      if (pred(t, head_ + t * width_)) return true;
    }
    std::atomic<Row*>* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr) return false;
    for (unsigned c = 0; first_tid(c) < n; ++c) {
      Row* base = dir[c].load(std::memory_order_acquire);
      if (base == nullptr) continue;
      const unsigned lo = first_tid(c);
      const unsigned end = (c + 1) * kChunkTids;
      const unsigned hi = end < n ? end : n;
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

  // Metered bytes the table holds now: the head chunk, and the directory
  // with its present chunks once a tid of kHeadTids or more installed it.
  std::size_t bytes() const {
    if (head_ == nullptr) return 0;
    std::size_t total = chunk_bytes(kHeadTids);
    std::atomic<Row*>* dir = dir_.load(std::memory_order_acquire);
    if (dir == nullptr) return total;
    total += directory_bytes();
    for (unsigned c = 0; c < chunks(); ++c) {
      if (dir[c].load(std::memory_order_acquire) != nullptr) {
        total += chunk_bytes(chunk_tids(c));
      }
    }
    return total;
  }

 private:
  unsigned chunks() const { return (limit_ + kChunkTids - 1) / kChunkTids; }
  // Directory entry c starts at tid first_tid(c) and holds chunk_tids(c).
  static unsigned first_tid(unsigned c) {
    return c == 0 ? kHeadTids : c * kChunkTids;
  }
  static unsigned chunk_tids(unsigned c) {
    return c == 0 ? kChunkTids - kHeadTids : kChunkTids;
  }
  std::size_t chunk_bytes(unsigned tids) const {
    return AlignedArray<Row>::round_up(
        std::size_t{tids} * width_ * sizeof(Row), Align);
  }
  std::size_t directory_bytes() const {
    return chunks() * sizeof(std::atomic<Row*>);
  }

  // Out of line: callers inline row()'s head-chunk fast path, and a first
  // session elsewhere is rare.
  [[gnu::noinline, gnu::cold]] Row* install(unsigned tid) {
    const unsigned c = tid / kChunkTids;
    if (c >= chunks()) {
      assert(false && "tid past the per-tid table's limit");
      __builtin_trap();
    }
    std::atomic<Row*>* dir = directory();
    Row* cur = dir[c].load(std::memory_order_acquire);
    if (cur == nullptr) {
      Row* fresh = make_chunk(chunk_tids(c));
      if (dir[c].compare_exchange_strong(cur, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        cur = fresh;
      } else {
        free_chunk(fresh, chunk_tids(c));
      }
    }
    return cur + (tid - first_tid(c)) * width_;
  }

  // The directory, installed like a chunk on the first tid past the head.
  std::atomic<Row*>* directory() {
    std::atomic<Row*>* cur = dir_.load(std::memory_order_acquire);
    if (cur != nullptr) return cur;
    auto* fresh = static_cast<std::atomic<Row*>*>(
        alloc_meter::allocate(directory_bytes()));
    for (unsigned c = 0; c < chunks(); ++c) {
      new (fresh + c) std::atomic<Row*>(nullptr);
    }
    if (dir_.compare_exchange_strong(cur, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return fresh;
    }
    alloc_meter::deallocate(fresh, directory_bytes());
    return cur;
  }

  Row* make_chunk(unsigned tids) const {
    const std::size_t n = std::size_t{tids} * width_;
    Row* p = static_cast<Row*>(
        alloc_meter::allocate_aligned(chunk_bytes(tids), Align));
    for (std::size_t i = 0; i < n; ++i) new (p + i) Row();
    Init{}(p, n);
    return p;
  }

  void free_chunk(Row* p, unsigned tids) const {
    if (p == nullptr) return;
    for (std::size_t i = std::size_t{tids} * width_; i > 0; --i) {
      p[i - 1].~Row();
    }
    alloc_meter::deallocate_aligned(p, chunk_bytes(tids));
  }

  std::atomic<std::atomic<Row*>*> dir_{nullptr};
  Row* head_ = nullptr;
  unsigned limit_ = 0;
  unsigned width_ = 0;
};

// Tables sit inside queue objects whose sizes are pinned: a table may take
// no more room than a flat AlignedArray of the same rows.
static_assert(sizeof(TidTable<u64>) <= sizeof(AlignedArray<u64>));

}  // namespace wcq
