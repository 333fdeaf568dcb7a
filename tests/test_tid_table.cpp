// Per-tid tables (common/tid_table.hpp): rows that follow the tids in use,
// present-only scans, and the install race. The directory and a chunk are
// each installed once per table however many threads open their first
// session in it at the same moment: the CAS loser frees its copy, so live
// bytes are exact after the race.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "common/tid_table.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "parked_threads.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

TEST(TidTable, RowsInstallOnDemandAndScansSkipAbsentChunks) {
  const std::int64_t before = alloc_meter::live_bytes();
  {
    // 40 tids, two u64 per row: a 128-byte head chunk (tids 0-7), then a
    // 24-byte directory of three entries, a 128-byte chunk for tids 8-15
    // and 256-byte chunks for tids 16-31 and 32-47.
    TidTable<u64> t(40, 2);
    EXPECT_EQ(t.bytes(), 128u);
    EXPECT_EQ(alloc_meter::live_bytes() - before, 128);
    EXPECT_EQ(t.row(1) - t.row(0), 2);
    EXPECT_EQ(t.find(9), nullptr);
    EXPECT_EQ(t.find(20), nullptr);
    EXPECT_EQ(t.bytes(), 128u) << "find() must not install";

    u64* r = t.row(37);  // chunk 2 and the directory; chunks 0, 1 absent
    EXPECT_EQ(t.find(37), r);
    EXPECT_EQ(t.row(37), r) << "a second session reuses the chunk";
    EXPECT_EQ(t.find(9), nullptr);
    EXPECT_EQ(t.find(20), nullptr);
    EXPECT_EQ(t.bytes(), 128u + 24u + 256u);
    EXPECT_EQ(alloc_meter::live_bytes() - before, 128 + 24 + 256);

    std::vector<unsigned> seen;
    t.for_each_present(40, [&](unsigned tid, u64*) { seen.push_back(tid); });
    ASSERT_EQ(seen.size(), 8u + 8u);  // the head and tids 32..39
    EXPECT_EQ(seen[7], 7u);
    EXPECT_EQ(seen[8], 32u);
    seen.clear();
    t.for_each_present(34, [&](unsigned tid, u64*) { seen.push_back(tid); });
    EXPECT_EQ(seen.back(), 33u) << "scans stop at their bound";
    unsigned stopped = 0;
    EXPECT_TRUE(t.any_present(40, [&](unsigned tid, u64*) {
      stopped = tid;
      return tid == 33;
    }));
    EXPECT_EQ(stopped, 33u);

    u64* r9 = t.row(9);  // the 8-row chunk behind directory entry 0
    EXPECT_EQ(t.find(9), r9);
    EXPECT_EQ(t.row(15) - r9, 12);
    EXPECT_EQ(t.bytes(), 128u + 24u + 128u + 256u);
    seen.clear();
    t.for_each_present(40, [&](unsigned tid, u64*) { seen.push_back(tid); });
    ASSERT_EQ(seen.size(), 8u + 8u + 8u);
    EXPECT_EQ(seen[8], 8u);
    EXPECT_EQ(seen[16], 32u);
  }
  EXPECT_EQ(alloc_meter::live_bytes(), before);
}

// A table holds rows in proportion to the highest tid in use: the head
// chunk (tids 0-7) alone up to tid 7; past it the directory, the 8-row
// chunk for tids 8-15 and one 16-row chunk per later 16 tids. Every
// boundary of a plain 16-tid layout is a boundary here too, so against 16-
// tid chunks behind an eagerly allocated directory the table is smaller up
// to tid 7 and the same size past it: never larger.
template <std::size_t RowBytes>
void expect_bytes_follow_highest_tid() {
  constexpr unsigned kLimit = 256;
  constexpr unsigned kWidth = RowBytes / sizeof(u64);
  constexpr std::size_t kDirectory = kLimit / 16 * sizeof(void*);
  const auto layout = [](unsigned hi) {
    std::size_t bytes = 8 * RowBytes;  // the head chunk
    if (hi >= 8) bytes += kDirectory + 8 * RowBytes + hi / 16 * 16 * RowBytes;
    return bytes;
  };
  const auto sixteen_tid_chunks = [](unsigned hi) {
    return kDirectory + (hi / 16 + 1) * 16 * RowBytes;
  };
  for (unsigned hi : {0u, 1u, 4u, 15u, 16u, 255u}) {
    const std::int64_t before = alloc_meter::live_bytes();
    {
      TidTable<u64, RowBytes> t(kLimit, kWidth);
      for (unsigned tid = 0; tid <= hi; ++tid) ASSERT_NE(t.row(tid), nullptr);
      EXPECT_EQ(t.bytes(), layout(hi)) << RowBytes << " B rows, tid " << hi;
      EXPECT_EQ(alloc_meter::live_bytes() - before,
                static_cast<std::int64_t>(layout(hi)));
      EXPECT_LE(t.bytes(), sixteen_tid_chunks(hi))
          << RowBytes << " B rows, tid " << hi;
    }
    EXPECT_EQ(alloc_meter::live_bytes(), before);
  }
  // Up to tid 7 the head chunk alone; tids 0-4 take 8 rows, not 16.
  EXPECT_EQ(layout(4), 8 * RowBytes);
  EXPECT_EQ(sixteen_tid_chunks(4) - layout(4), kDirectory + 8 * RowBytes);
  EXPECT_EQ(layout(15), sixteen_tid_chunks(15));
  EXPECT_EQ(layout(255), sixteen_tid_chunks(255));
}

TEST(TidTable, BytesFollowTheHighestTidInUse) {
  // Span and hazard slot rows are one line, wCQ records and the default
  // magazine rows two.
  expect_bytes_follow_highest_tid<64>();
  expect_bytes_follow_highest_tid<128>();
}

// Racers whose tids all fall in chunk 1 (16 parked threads and this one
// hold the lower tids) open their first session at once. Two-phase start
// line: arrive with yields, then spin until all are awake, so the installs
// start within an install's length of each other; the spin falls back to
// yields so that racers on fewer cores still get through.
constexpr unsigned kRacers = 8;
constexpr int kRounds = 20;

class StartLine {
 public:
  void await() {
    ready_.fetch_add(1);
    while (ready_.load() < kRacers) std::this_thread::yield();
    ready_.fetch_add(1);
    for (unsigned spins = 0; ready_.load() < 2 * kRacers; ++spins) {
      if (spins > (1u << 16)) std::this_thread::yield();
    }
  }

 private:
  std::atomic<unsigned> ready_{0};
};

// Holds the racers until the main thread has checked live bytes.
class Gate {
 public:
  void arrive_and_wait() {
    arrived_.fetch_add(1);
    while (!open_.load()) std::this_thread::yield();
  }
  void await_all() {
    while (arrived_.load() < kRacers) std::this_thread::yield();
  }
  void open() { open_.store(true); }

 private:
  std::atomic<unsigned> arrived_{0};
  std::atomic<bool> open_{false};
};

TEST(TidChunkRace, ConcurrentBoundedSessionsInstallOneChunk) {
  (void)ThreadRegistry::tid();
  testing::ParkedThreads parked(16);
  // Records and magazine rows: a 16-row chunk and the directory each.
  constexpr std::int64_t kChunk = 16 * 128 + 128;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t before = alloc_meter::live_bytes();
    auto* q = alloc_meter::create<BoundedQueue<u64>>(6u);  // capacity 64
    const std::int64_t built = alloc_meter::live_bytes();
    StartLine start;
    Gate checked;
    std::atomic<unsigned> outside_chunk1{0};
    std::vector<std::thread> ts;
    for (unsigned r = 0; r < kRacers; ++r) {
      ts.emplace_back([&, r] {
        start.await();
        auto h = q->acquire();
        if (h.tid() < 16 || h.tid() >= 32) outside_chunk1.fetch_add(1);
        checked.arrive_and_wait();
        if (r != 0) return;
        // Fill and drain through a raced chunk: aq and fq records and the
        // magazine row all live in it.
        u64 n = 0;
        while (n <= q->capacity() && q->enqueue(h, n)) ++n;
        EXPECT_EQ(n, q->capacity()) << "round " << round;
        for (u64 i = 0; i < n; ++i) {
          const auto v = q->dequeue(h);
          ASSERT_TRUE(v.has_value()) << "round " << round;
          EXPECT_EQ(*v, i) << "round " << round;
        }
        EXPECT_FALSE(q->dequeue(h).has_value());
      });
    }
    checked.await_all();
    EXPECT_EQ(outside_chunk1.load(), 0u) << "a racer's tid left chunk 1";
    // aq's records, fq's records, the magazine rows: one chunk and one
    // directory each.
    EXPECT_EQ(alloc_meter::live_bytes() - built, 3 * kChunk)
        << "round " << round << ": an install loser's chunk or directory survived";
    checked.open();
    for (auto& th : ts) th.join();
    EXPECT_EQ(alloc_meter::live_bytes() - built, 3 * kChunk);
    alloc_meter::destroy(q);
    ASSERT_EQ(alloc_meter::live_bytes(), before) << "round " << round;
  }
}

TEST(TidChunkRace, ConcurrentUnboundedSessionsInstallOneChunk) {
  using Q = UnboundedQueue<u64>;
  (void)ThreadRegistry::tid();
  testing::ParkedThreads parked(16);
  // Span rows (64 B), hazard slot rows (64 B), the segment's records: a
  // 16-row chunk and a 128-byte directory each.
  constexpr std::int64_t kChunks = 16 * 64 + 16 * 64 + 16 * 128 + 3 * 128;
  // Racers' spans take at most 9 indices each, so the fill below stays on
  // the first segment (128 indices) and allocates nothing.
  constexpr u64 kFill = 32;
  for (int round = 0; round < kRounds; ++round) {
    const std::int64_t before = alloc_meter::live_bytes();
    auto* q = alloc_meter::create<Q>(Q::Options{.segment_order = 7});
    const std::int64_t built = alloc_meter::live_bytes();
    StartLine start;
    Gate checked;
    std::atomic<unsigned> outside_chunk1{0};
    std::vector<std::thread> ts;
    for (unsigned r = 0; r < kRacers; ++r) {
      ts.emplace_back([&, r] {
        start.await();
        auto h = q->acquire();
        EXPECT_TRUE(q->enqueue(h, r));
        if (h.tid() < 16 || h.tid() >= 32) outside_chunk1.fetch_add(1);
        checked.arrive_and_wait();
        if (r != 0) return;
        std::set<u64> racers;
        for (unsigned k = 0; k < kRacers; ++k) {
          const auto v = q->dequeue(h);
          ASSERT_TRUE(v.has_value()) << "round " << round;
          EXPECT_TRUE(racers.insert(*v).second) << "duplicate " << *v;
        }
        EXPECT_EQ(racers.size(), kRacers);
        for (u64 i = 0; i < kFill; ++i) ASSERT_TRUE(q->enqueue(h, i));
        for (u64 i = 0; i < kFill; ++i) {
          const auto v = q->dequeue(h);
          ASSERT_TRUE(v.has_value()) << "round " << round;
          EXPECT_EQ(*v, i) << "round " << round;
        }
        EXPECT_FALSE(q->dequeue(h).has_value());
      });
    }
    checked.await_all();
    EXPECT_EQ(outside_chunk1.load(), 0u) << "a racer's tid left chunk 1";
    EXPECT_EQ(alloc_meter::live_bytes() - built, kChunks)
        << "round " << round << ": an install loser's chunk or directory survived";
    checked.open();
    for (auto& th : ts) th.join();
    EXPECT_EQ(q->live_segments(), 1u);
    EXPECT_EQ(alloc_meter::live_bytes() - built, kChunks);
    alloc_meter::destroy(q);
    ASSERT_EQ(alloc_meter::live_bytes(), before) << "round " << round;
  }
}

}  // namespace
}  // namespace wcq
