// One thread limit (DESIGN.md §3): every per-tid table serves all
// ThreadRegistry::kMaxThreads tids, so a thread holding any registry tid
// can use every queue, implicitly or through a handle. A thread at tid 128
// or past it exercises the wCQ record tables, the magazine rows and the
// span rows beyond the 128 tids a ring once served.
#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "parked_threads.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

constexpr unsigned kHighTid = 128;
// Past one help_delay window and one magazine refill.
constexpr u64 kItems = 40;

// Runs `body` on a thread whose registry tid is kHighTid or more. The
// registry hands out the lowest free tid, so kHighTid parked threads take
// every free tid below kHighTid first.
template <typename F>
void on_high_tid(F body) {
  testing::ParkedThreads parked(kHighTid);
  std::thread([&] {
    ASSERT_GE(ThreadRegistry::tid(), kHighTid);
    body();
  }).join();
}

// Enqueue kItems values, then dequeue and compare each, once through the
// implicit path and once through `h`.
template <typename Q, typename H>
void round_trips(Q& q, H& h) {
  for (u64 i = 0; i < kItems; ++i) ASSERT_TRUE(q.enqueue(i));
  for (u64 i = 0; i < kItems; ++i) ASSERT_EQ(q.dequeue(), std::optional{i});
  for (u64 i = 0; i < kItems; ++i) ASSERT_TRUE(q.enqueue(h, i));
  for (u64 i = 0; i < kItems; ++i) ASSERT_EQ(q.dequeue(h), std::optional{i});
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(ThreadLimit, WcqRoundTripsAtHighTid) {
  WCQ q(6u);
  on_high_tid([&] {
    auto h = q.handle();
    round_trips(q, h);
  });
}

TEST(ThreadLimit, BoundedRoundTripsAtHighTid) {
  BoundedQueue<u64> q(6u);
  on_high_tid([&] {
    auto h = q.acquire();
    round_trips(q, h);
  });
}

TEST(ThreadLimit, UnboundedRoundTripsAtHighTid) {
  // Four-element segments, so the round trips cross segments.
  UnboundedQueue<u64> q(2u);
  on_high_tid([&] {
    auto h = q.acquire();
    round_trips(q, h);
  });
}

}  // namespace
}  // namespace wcq
