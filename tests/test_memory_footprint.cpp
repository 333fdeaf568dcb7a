// Memory footprint as an invariant (Fig 10; DESIGN.md §9 "Footprint").
//
// Every byte a queue owns is metered (common/alloc_meter.hpp), so the
// construction delta of a queue is a closed-form sum of its parts: ring
// entries, payload slots, the first chunk of every per-tid table (wCQ
// thread records, magazine rows, span rows) with its directory, and the
// objects themselves. Each term is spelled out below. A layer that
// silently grows — a per-tid table allocated for every tid again, a row
// that regains a count word and a third line — changes the sum and fails
// here rather than surfacing as a peak_mib drift in a benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"
#include "parked_threads.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/segment_pool.hpp"
#include "runtime/channel.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/index_magazine.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq {
namespace {

// Object sizes are part of the benchmark's measured behavior: growth or a
// layout shift alone has moved the sharded pipeline by 8-13%.
static_assert(sizeof(BoundedQueue<u64>) == 1152);
static_assert(sizeof(BoundedQueue<u64, MpscRing>) == 1024);
static_assert(sizeof(UnboundedQueue<u64>) == 512);
// The rings themselves (x86-64, GCC 12), which the layers above embed.
static_assert(sizeof(WCQ) == 512);
static_assert(sizeof(WCQLLSC) == 512);
static_assert(sizeof(SCQ) == 512);
static_assert(sizeof(SpmcRing) == 512);
static_assert(sizeof(MpscRing) == 384);

constexpr std::int64_t kOrder = 8;
constexpr std::int64_t kCap = std::int64_t{1} << kOrder;  // 256 elements

// Ring entries: both ring families allocate 2n entries; a wCQ entry is a
// 16-byte (value, note) pair, an SCQ entry one 8-byte word.
constexpr std::int64_t kWcqEntries = 2 * kCap * 16;
constexpr std::int64_t kScqEntries = 2 * kCap * 8;
// Payload slots: one u64 per element.
constexpr std::int64_t kData = kCap * 8;
// Per-tid tables hold rows for 16 tids per chunk. Construction allocates
// chunk 0 and a directory of one 8-byte pointer per chunk the table's tid
// limit needs: 128 tids (a wCQ ring's Options::max_threads) take 8
// pointers, every registry tid (256, the SCQ family) 16.
constexpr std::int64_t kChunkTids = 16;
constexpr std::int64_t kWcqDirectory = 128 / kChunkTids * 8;  // 64 B
constexpr std::int64_t kScqDirectory = 256 / kChunkTids * 8;  // 128 B
// wCQ thread records: 128 B each, one chunk per ring.
constexpr std::int64_t kRecordChunk = kChunkTids * 128;  // 2 KiB
constexpr std::int64_t kWcqRecords = kRecordChunk + kWcqDirectory;
// Magazine rows: the default 16 slots in one 2-line (128 B) row, for every
// tid the data ring accepts — 128 for a wCQ ring, every registry tid for
// the SCQ family.
constexpr std::int64_t kRowBytes = 128;
constexpr std::int64_t kMagazineChunk = kChunkTids * kRowBytes;  // 2 KiB
constexpr std::int64_t kWcqMagazines = kMagazineChunk + kWcqDirectory;
constexpr std::int64_t kScqMagazines = kMagazineChunk + kScqDirectory;
// UnboundedQueue span rows: 64 B per tid a wCQ segment ring accepts, once
// per queue.
constexpr std::int64_t kSpanChunk = kChunkTids * 64;  // 1 KiB
constexpr std::int64_t kWcqSpanRows = kSpanChunk + kWcqDirectory;
// Hazard slot rows: 64 B per registry tid, once per domain.
constexpr std::int64_t kHazardSlotChunk = kChunkTids * 64;  // 1 KiB

// The queue's private hazard domain (its object plus the first chunk of
// its slot and retire tables) has a layout internal to the domain;
// measure it standalone.
std::int64_t hazard_domain_bytes() {
  const std::int64_t before = alloc_meter::live_bytes();
  HazardDomain hd(2);
  return alloc_meter::live_bytes() - before;
}

// Segment pool: the queue's 64 (kPoolSlots) line-padded slots.
std::int64_t segment_pool_bytes() { return 64 * 64; }

template <typename Q>
std::int64_t construction_delta(Q*& out, typename Q::Options opt) {
  const std::int64_t before = alloc_meter::live_bytes();
  out = alloc_meter::create<Q>(opt);
  return alloc_meter::live_bytes() - before;
}

TEST(MemoryFootprint, MagazineRowIsTwoAlignedLines) {
  const std::int64_t before = alloc_meter::live_bytes();
  IndexMagazines mags(16, 128);
  EXPECT_EQ(alloc_meter::live_bytes() - before, kWcqMagazines);
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
  // A segment is one wCQ ring (entries and a record chunk) and its payload
  // slots: no free-index ring, no magazines. Its object is the ring object
  // plus three lines: the cold fields (payload pointer, generation, home
  // node), the fresh-index counter, and the next link. Finalization is a
  // bit in the ring's Tail word and costs no byte.
  const std::int64_t object = static_cast<std::int64_t>(
      AlignedArray<char>::round_up(sizeof(WCQ) + 3 * kCacheLine,
                                   alignof(WCQ)));
  const std::int64_t segment = kWcqEntries + kWcqRecords + kData + object;
  EXPECT_EQ(static_cast<std::int64_t>(q->segment_bytes()), segment);
  EXPECT_EQ(delta, segment + kWcqSpanRows + segment_pool_bytes() +
                       hazard_domain + static_cast<std::int64_t>(sizeof(Q)));
  alloc_meter::destroy(q);
}

// A pipeline-mode sharded queue is its shards' parts: each shard an MPSC
// data ring, an MPMC SCQ free ring, payload slots and a magazine chunk
// with its 256-tid directory. The shard objects and the shard table are
// std-allocated and so outside the meter; the equality covers every
// metered byte.
TEST(MemoryFootprint, ShardedMpscIsItsShardsExactly) {
  using Q = ShardedQueue<u64, MpscRing>;
  Q::Options opt;
  opt.shards = 4;
  opt.shard_order = kOrder;
  opt.mode = Q::Mode::kPipeline;
  Q* q = nullptr;
  const std::int64_t delta = construction_delta(q, opt);
  ASSERT_EQ(q->shard_count(), 4u);
  const std::int64_t shard = 2 * kScqEntries + kData + kScqMagazines;
  EXPECT_EQ(delta, 4 * shard + static_cast<std::int64_t>(sizeof(Q)));
  alloc_meter::destroy(q);
}

// A channel adds no heap of its own: its two eventcounts and close flag
// live in the object next to the default BoundedQueue<u64>.
TEST(MemoryFootprint, ChannelIsItsQueueExactly) {
  using C = Channel<u64>;
  const std::int64_t before = alloc_meter::live_bytes();
  C* c = alloc_meter::create<C>(static_cast<unsigned>(kOrder));
  const std::int64_t expected = 2 * kWcqEntries + 2 * kWcqRecords + kData +
                                kWcqMagazines +
                                static_cast<std::int64_t>(sizeof(C));
  EXPECT_EQ(alloc_meter::live_bytes() - before, expected);
  alloc_meter::destroy(c);
  EXPECT_EQ(alloc_meter::live_bytes(), before);
}

// A thread whose tid lies past the first chunk grows each per-tid table it
// opens a session on by exactly one chunk, and a thread that never used the
// queue grows nothing, not even through its exit hook. 16 parked threads
// (no more) plus this one push the next thread's tid to 16 or beyond.
TEST(MemoryFootprint, BoundedTidPastFirstChunkAddsOneChunkPerTable) {
  (void)ThreadRegistry::tid();
  const std::int64_t before = alloc_meter::live_bytes();
  auto* q = alloc_meter::create<BoundedQueue<u64>>(kOrder);
  const std::int64_t built = alloc_meter::live_bytes();
  {
    testing::ParkedThreads parked(16);
    unsigned bystander = 0;
    std::thread([&] { bystander = ThreadRegistry::tid(); }).join();
    ASSERT_GE(bystander, 16u);
    EXPECT_EQ(alloc_meter::live_bytes(), built)
        << "an exit hook installed a chunk for a thread that never used the "
           "queue";
    unsigned tid = 0;
    std::thread([&] {
      auto h = q->acquire();
      tid = h.tid();
      for (u64 i = 0; i < 40; ++i) ASSERT_TRUE(q->enqueue(h, i));
      for (u64 i = 0; i < 40; ++i) ASSERT_EQ(q->dequeue(h).value(), i);
    }).join();
    ASSERT_GE(tid, 16u);
    // aq's records, fq's records, the magazine rows.
    EXPECT_EQ(alloc_meter::live_bytes() - built,
              2 * kRecordChunk + kMagazineChunk);
  }
  alloc_meter::destroy(q);
  EXPECT_EQ(alloc_meter::live_bytes(), before);
}

// The unbounded counterpart: the span rows, the hazard slot rows and the
// record table of the one segment the thread enqueues on (no segment is
// retired, so the retire rows stay at chunk 0).
TEST(MemoryFootprint, UnboundedTidPastFirstChunkAddsOneChunkPerTable) {
  using Q = UnboundedQueue<u64>;
  (void)ThreadRegistry::tid();
  const std::int64_t before = alloc_meter::live_bytes();
  auto* q = alloc_meter::create<Q>(Q::Options{.segment_order = kOrder});
  const std::int64_t built = alloc_meter::live_bytes();
  {
    testing::ParkedThreads parked(16);
    unsigned tid = 0;
    std::thread([&] {
      auto h = q->acquire();
      tid = h.tid();
      for (u64 i = 0; i < 40; ++i) ASSERT_TRUE(q->enqueue(h, i));
      for (u64 i = 0; i < 40; ++i) ASSERT_EQ(q->dequeue(h).value(), i);
    }).join();
    ASSERT_GE(tid, 16u);
    EXPECT_EQ(q->live_segments(), 1u);
    EXPECT_EQ(alloc_meter::live_bytes() - built,
              kSpanChunk + kHazardSlotChunk + kRecordChunk);
  }
  alloc_meter::destroy(q);
  EXPECT_EQ(alloc_meter::live_bytes(), before);
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
