#include "reclaim/hazard_pointers.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/alloc_meter.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

struct Tracked {
  static std::atomic<int> live;
  // Atomic (accessed relaxed) so the concurrent test below checks object
  // lifetimes only: a writer may still store to a swapped-out object while
  // a protecting reader loads it.
  std::atomic<int> payload{0};
  Tracked() { live.fetch_add(1); }
  ~Tracked() { live.fetch_sub(1); }
  static void deleter(void* p, void*) {
    alloc_meter::destroy(static_cast<Tracked*>(p));
  }
};
std::atomic<int> Tracked::live{0};

TEST(HazardPointers, ProtectReturnsCurrentValue) {
  HazardDomain d;
  auto& row = *d.slots_for(ThreadRegistry::tid());
  std::atomic<Tracked*> src{alloc_meter::create<Tracked>()};
  Tracked* p = HazardDomain::protect(row, 0, src);
  EXPECT_EQ(p, src.load());
  EXPECT_TRUE(HazardDomain::holds(row, 0, p));
  HazardDomain::clear(row, 0);
  alloc_meter::destroy(src.load());
}

TEST(HazardPointers, ProtectedPointerSurvivesRetirement) {
  HazardDomain d;
  const unsigned tid = ThreadRegistry::tid();
  auto& row = *d.slots_for(tid);
  Tracked* obj = alloc_meter::create<Tracked>();
  std::atomic<Tracked*> src{obj};
  Tracked* p = HazardDomain::protect(row, 0, src);
  ASSERT_EQ(p, obj);
  d.retire(tid, obj, &Tracked::deleter, nullptr);
  // Force many scans; the protected object must not be freed.
  for (int i = 0; i < 10000; ++i) {
    Tracked* junk = alloc_meter::create<Tracked>();
    d.retire(tid, junk, &Tracked::deleter, nullptr);
  }
  EXPECT_GE(Tracked::live.load(), 1);
  EXPECT_EQ(p->payload.load(std::memory_order_relaxed), 0);  // still live
  HazardDomain::clear(row, 0);
  d.drain();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardPointers, UnprotectedRetireesGetFreedByScans) {
  HazardDomain d;
  const unsigned tid = ThreadRegistry::tid();
  for (int i = 0; i < 20000; ++i) {
    d.retire(tid, alloc_meter::create<Tracked>(), &Tracked::deleter, nullptr);
  }
  // The scan threshold guarantees the retire list stays bounded.
  EXPECT_LT(d.retired_count(), 10000u);
  d.drain();
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(HazardPointers, ConcurrentReadersNeverTouchFreedMemory) {
  // Writers continuously swap and retire the shared object; readers protect
  // and dereference. Any reclamation bug shows up as a crash/ASAN report,
  // and the payload invariant catches torn lifetimes.
  HazardDomain d;
  constexpr int kWriters = 2;
  constexpr int kReaders = 4;
  constexpr int kSwaps = 20000;
  std::atomic<Tracked*> shared{alloc_meter::create<Tracked>()};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      const unsigned tid = ThreadRegistry::tid();
      for (int i = 0; i < kSwaps; ++i) {
        Tracked* fresh = alloc_meter::create<Tracked>();
        fresh->payload.store(1234, std::memory_order_relaxed);
        Tracked* old = shared.exchange(fresh, std::memory_order_acq_rel);
        // Still-valid write before retirement.
        old->payload.store(1234, std::memory_order_relaxed);
        d.retire(tid, old, &Tracked::deleter, nullptr);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      auto& row = *d.slots_for(ThreadRegistry::tid());
      while (!stop.load(std::memory_order_acquire)) {
        Tracked* p = HazardDomain::protect(row, 0, shared);
        // Either 0 (fresh) or 1234 (touched); anything else is corruption.
        const int v = p->payload.load(std::memory_order_relaxed);
        ASSERT_TRUE(v == 0 || v == 1234) << "corrupted payload " << v;
        HazardDomain::clear(row, 0);
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (int r = 0; r < kReaders; ++r) threads[kWriters + r].join();

  alloc_meter::destroy(shared.load());
  d.drain();
  EXPECT_EQ(Tracked::live.load(), 0);
}

}  // namespace
}  // namespace wcq
