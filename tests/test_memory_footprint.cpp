// Memory footprint as an invariant (Fig 10; DESIGN.md §9 "Footprint").
//
// Every byte a queue owns is metered (common/alloc_meter.hpp), so the
// construction delta of a queue is a closed-form sum of its parts: ring
// entries, wCQ thread records, payload slots, magazine rows and the objects
// themselves. Each term is spelled out below. A layer that silently grows —
// a magazine row set sized for every registry tid again, a row that regains
// a count word and a third line — changes the sum and fails here rather
// than surfacing as a peak_mib drift in a benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/topology.hpp"
#include "core/bounded_queue.hpp"
#include "core/mpsc_ring.hpp"
#include "core/unbounded_queue.hpp"
#include "mpmc_harness.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/segment_pool.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"

namespace wcq {
namespace {

constexpr std::int64_t kOrder = 8;
constexpr std::int64_t kCap = std::int64_t{1} << kOrder;  // 256 elements

// Ring entries: both ring families allocate 2n entries; a wCQ entry is a
// 16-byte (value, note) pair, an SCQ entry one 8-byte word.
constexpr std::int64_t kWcqEntries = 2 * kCap * 16;
constexpr std::int64_t kScqEntries = 2 * kCap * 8;
// wCQ thread records: 128 per ring (Options::max_threads), 128 B each.
constexpr std::int64_t kWcqRecords = 128 * 128;
// Payload slots: one u64 per element.
constexpr std::int64_t kData = kCap * 8;
// Magazine rows: the default 16 slots in one 2-line (128 B) row, one row
// per tid the data ring accepts — 128 for a wCQ ring, every registry tid
// (256) for the SCQ family.
constexpr std::int64_t kRowBytes = 128;
constexpr std::int64_t kWcqMagazines = 128 * kRowBytes;  // 16 KiB
constexpr std::int64_t kScqMagazines = 256 * kRowBytes;  // 32 KiB
// UnboundedQueue span rows: one 64-byte row per tid a wCQ segment ring
// accepts, once per queue.
constexpr std::int64_t kWcqSpanRows = 128 * 64;  // 8 KiB

// The queue's private hazard domain is one fixed-size table whose layout
// is internal to the domain; measure it standalone.
std::int64_t hazard_domain_bytes() {
  const std::int64_t before = alloc_meter::live_bytes();
  HazardDomain hd(2);
  return alloc_meter::live_bytes() - before;
}

// Segment pool: the queue's 64 (kPoolSlots) line-padded slots plus one
// line-padded size word per NUMA partition.
std::int64_t segment_pool_bytes() {
  return 64 * 64 +
         static_cast<std::int64_t>(Topology::instance().node_count()) * 64;
}

template <typename Q>
std::int64_t construction_delta(Q*& out, typename Q::Options opt) {
  const std::int64_t before = alloc_meter::live_bytes();
  out = alloc_meter::create<Q>(opt);
  return alloc_meter::live_bytes() - before;
}

TEST(MemoryFootprint, MagazineRowIsTwoAlignedLines) {
  IndexMagazines mags(16, 128);
  EXPECT_EQ(mags.rows(), 128u);
  const auto row0 = reinterpret_cast<std::uintptr_t>(mags.block_for(0));
  const auto row1 = reinterpret_cast<std::uintptr_t>(mags.block_for(1));
  EXPECT_EQ(row0 % kDestructiveRange, 0u)
      << "rows must start on an adjacent-line prefetch pair";
  EXPECT_EQ(row1 - row0, static_cast<std::uintptr_t>(kRowBytes));
  EXPECT_EQ(mags.block_for(128), nullptr) << "no row past the ring's tids";
}

TEST(MemoryFootprint, BoundedWcqIsItsPartsExactly) {
  using Q = BoundedQueue<u64>;
  Q* q = nullptr;
  const std::int64_t delta = construction_delta(q, Q::Options{kOrder});
  EXPECT_EQ(q->magazine_capacity(), 16u);
  EXPECT_EQ(q->magazine_rows(), 128u);
  const std::int64_t expected = 2 * kWcqEntries + 2 * kWcqRecords + kData +
                                kWcqMagazines +
                                static_cast<std::int64_t>(sizeof(Q));
  EXPECT_EQ(delta, expected);
  alloc_meter::destroy(q);
}

TEST(MemoryFootprint, BoundedMpscIsItsPartsExactly) {
  // aq is the MPSC ring, fq the MPMC SCQ (DESIGN.md §13); neither limits
  // tids, so the magazines keep a row per registry tid.
  using Q = BoundedQueue<u64, MpscRing>;
  Q* q = nullptr;
  const std::int64_t delta = construction_delta(q, Q::Options{kOrder});
  EXPECT_EQ(q->magazine_rows(), ThreadRegistry::kMaxThreads);
  const std::int64_t expected = 2 * kScqEntries + kData + kScqMagazines +
                                static_cast<std::int64_t>(sizeof(Q));
  EXPECT_EQ(delta, expected);
  alloc_meter::destroy(q);
}

TEST(MemoryFootprint, UnboundedOneSegmentIsItsPartsExactly) {
  using Q = UnboundedQueue<u64>;
  const std::int64_t hazard_domain = hazard_domain_bytes();
  Q* q = nullptr;
  const std::int64_t delta =
      construction_delta(q, Q::Options{.segment_order = kOrder});
  // A segment is one wCQ ring (entries and thread records) and its payload
  // slots: no free-index ring, no magazines. Its object is the ring object
  // plus three lines: the cold fields (payload pointer, generation, home
  // node), the fresh-index counter, and the finalized flag with the next
  // link.
  const std::int64_t object = static_cast<std::int64_t>(
      AlignedArray<char>::round_up(sizeof(WCQ) + 3 * kCacheLine,
                                   alignof(WCQ)));
  const std::int64_t segment = kWcqEntries + kWcqRecords + kData + object;
  EXPECT_EQ(static_cast<std::int64_t>(q->segment_bytes()), segment);
  EXPECT_EQ(delta, segment + kWcqSpanRows + segment_pool_bytes() +
                       hazard_domain + static_cast<std::int64_t>(sizeof(Q)));
  alloc_meter::destroy(q);
}

// The steady-state bound (ROADMAP item 4): after each wave of MPMC churn on
// 4-element segments, with every thread joined, the queue owns exactly its
// fixed parts, the hazard domain's retire-list buffers, and one
// segment_bytes() for every segment it still holds — linked, parked in the
// pool, or retired and awaiting its grace period. A segment leaked past the
// pool cap, an unmetered array or a segment that grew on reuse breaks the
// equality.
TEST(MemoryFootprint, MpmcChurnLiveBytesAreSegmentsExactly) {
  using Q = UnboundedQueue<u64>;
  Q* q = nullptr;
  const std::int64_t before = alloc_meter::live_bytes();
  const std::int64_t delta =
      construction_delta(q, Q::Options{.segment_order = 2});
  const std::int64_t segment = static_cast<std::int64_t>(q->segment_bytes());
  const std::int64_t fixed = delta - segment;  // the first segment is live
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 3000;
  for (int wave = 0; wave < 4; ++wave) {
    testing::run_mpmc_exactly_once(*q, cfg);
    const std::int64_t segments = static_cast<std::int64_t>(
        q->live_segments() + q->pooled_segments() + q->retired_segments());
    EXPECT_EQ(alloc_meter::live_bytes() - before,
              fixed + static_cast<std::int64_t>(q->reclaim_buffer_bytes()) +
                  segments * segment)
        << "wave " << wave << ": " << q->live_segments() << " live, "
        << q->pooled_segments() << " pooled, " << q->retired_segments()
        << " retired";
  }
  alloc_meter::destroy(q);
  EXPECT_EQ(alloc_meter::live_bytes(), before);
}

}  // namespace
}  // namespace wcq
