#include "reclaim/hazard_pointers.hpp"

#include <algorithm>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/op_counters.hpp"
#include "common/tid_table.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {

namespace {
constexpr unsigned kMaxThreads = ThreadRegistry::kMaxThreads;
}

struct HazardDomain::Impl {
  using SlotRow = HazardDomain::ThreadSlots;

  struct Retired {
    void* p;
    void (*deleter)(void*, void*);
    void* ctx;

    void run() const { deleter(p, ctx); }
  };

  struct alignas(kCacheLine) RetireRow {
    // Only the owning tid mutates its row; scans read rows of live tids.
    // Vectors are metered (retired-node bookkeeping is queue-owned memory)
    // and keep their capacity across scans, so once the per-row buffers have
    // grown to the scan threshold the reclamation path stops allocating —
    // a precondition for the segment pool's allocation-free steady state.
    std::vector<Retired, alloc_meter::MeteredAllocator<Retired>> list;
    std::vector<Retired, alloc_meter::MeteredAllocator<Retired>> keep_scratch;
    std::vector<void*, alloc_meter::MeteredAllocator<void*>> hazard_scratch;
    // Adaptive threshold, 2 * kSlotsPerThread * (high water + 1) as of this
    // row's last scan. It starts at the rule's smallest value: a retiring
    // thread holds a tid, so the high water is at least 1. The high water
    // only grows, so a stale value can only make a scan come earlier.
    std::size_t scan_at = 2 * kSlotsPerThread * 2;
  };

  explicit Impl(std::size_t threshold)
      : rows(kMaxThreads, 1), retired(kMaxThreads, 1),
        retire_threshold(threshold) {}

  // Both tables grow with the tids in use (common/tid_table.hpp): the owner
  // paths install (slots_for, retire), scans and drains read present chunks
  // only.
  TidTable<SlotRow> rows;
  TidTable<RetireRow> retired;
  std::atomic<std::size_t> retired_total{0};
  std::size_t retire_threshold;  // 0 = adaptive (see header)
};

HazardDomain::HazardDomain(std::size_t retire_threshold)
    : impl_(alloc_meter::create<Impl>(retire_threshold)) {}
HazardDomain::~HazardDomain() {
  drain();
  alloc_meter::destroy(impl_);
}

HazardDomain::ThreadSlots* HazardDomain::slots_for(unsigned tid) {
  return impl_->rows.row(tid);
}

void HazardDomain::retire(unsigned tid, void* p, void (*deleter)(void*, void*),
                          void* ctx) {
  auto& row = *impl_->retired.row(tid);
  WCQ_SCHED_POINT(kHazardRetire);
  row.list.push_back(Impl::Retired{p, deleter, ctx});
  impl_->retired_total.fetch_add(1, std::memory_order_relaxed);
  // Scan threshold: either the domain's fixed setting or 2x the maximum
  // number of simultaneously-protected pointers, the usual amortization
  // that bounds retired garbage, refreshed by each scan.
  const std::size_t threshold = impl_->retire_threshold != 0
                                    ? impl_->retire_threshold
                                    : row.scan_at;
  if (row.list.size() >= threshold) scan(tid);
}

void HazardDomain::scan(unsigned tid) {
  // Snapshot all published hazards into the row's retained scratch buffer.
  auto& row = *impl_->retired.row(tid);
  auto& hazards = row.hazard_scratch;
  hazards.clear();
  const unsigned hw = ThreadRegistry::high_water();
  hazards.reserve(static_cast<std::size_t>(hw) * kSlotsPerThread);
  row.scan_at = 2 * kSlotsPerThread * (static_cast<std::size_t>(hw) + 1);
  // One seq_cst fence, then relaxed slot loads (DESIGN.md §15 HP-SCAN-FENCE).
  // The Dekker pattern needs the *scan* ordered after this thread's retire
  // bookkeeping and against each protector's seq_cst slot publish (HP-PROT);
  // a single fence joining S before the loop gives every subsequent load
  // that position, so per-slot seq_cst loads were O(threads) redundant
  // fences on ARM — the loads themselves only need coherence (a slot holds
  // one word, and a racing publish is caught by the publisher's re-validate,
  // not by this scan's order).
  //
  // ThreadSanitizer does not model the fence, so it cannot see that a slot
  // load reading a protector's release clear orders that protector's
  // accesses before the deleter below; its builds load acquire, release
  // builds keep the relaxed loads.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  impl_->rows.for_each_present(hw, [&](unsigned, const ThreadSlots* slot_row) {
    WCQ_SCHED_POINT(kHazardScan);
    for (const auto& s : slot_row->slots) {
#if defined(__SANITIZE_THREAD__)
      void* p = s.load(std::memory_order_acquire);
#else
      void* p = s.load(std::memory_order_relaxed);
#endif
      if (p != nullptr) hazards.push_back(p);
    }
  });
  std::sort(hazards.begin(), hazards.end());

  auto& list = row.list;
  auto& keep = row.keep_scratch;
  keep.clear();
  keep.reserve(list.size());
  for (const auto& r : list) {
    if (std::binary_search(hazards.begin(), hazards.end(), r.p)) {
      keep.push_back(r);
    } else {
      impl_->retired_total.fetch_sub(1, std::memory_order_relaxed);
      r.run();
    }
  }
  list.swap(keep);
}

void HazardDomain::rescan(unsigned tid) {
  const Impl::RetireRow* row = impl_->retired.find(tid);
  if (row != nullptr && !row->list.empty()) scan(tid);
}

void HazardDomain::drain() {
  impl_->retired.for_each_present(
      kMaxThreads, [&](unsigned, Impl::RetireRow* row) {
        for (const auto& r : row->list) {
          impl_->retired_total.fetch_sub(1, std::memory_order_relaxed);
          r.run();
        }
        row->list.clear();
      });
}

std::size_t HazardDomain::retired_count() const {
  return impl_->retired_total.load(std::memory_order_relaxed);
}

std::size_t HazardDomain::buffer_bytes() const {
  std::size_t bytes = 0;
  impl_->retired.for_each_present(
      kMaxThreads, [&](unsigned, const Impl::RetireRow* row) {
        bytes += row->list.capacity() * sizeof(Impl::Retired) +
                 row->keep_scratch.capacity() * sizeof(Impl::Retired) +
                 row->hazard_scratch.capacity() * sizeof(void*);
      });
  return bytes;
}

}  // namespace wcq
