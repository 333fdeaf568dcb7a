// EventCount: the prepare/cancel/commit parking protocol underneath the
// blocking Channel facade (DESIGN.md §14). These tests pin the single-
// threaded protocol invariants (waiter accounting, no-waiter notify staying
// epoch-silent) and the cross-thread guarantees the Dekker fence pair buys:
// a wake racing the park is never lost, deadline parks terminate, and a
// notify storm wakes every parked thread exactly once per park.
#include "runtime/eventcount.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/backoff.hpp"

namespace wcq {
namespace {

using namespace std::chrono_literals;

TEST(EventCount, PrepareCancelBalancesWaiters) {
  EventCount ec;
  EXPECT_EQ(ec.waiters(), 0u);
  const auto t = ec.prepare_wait();
  (void)t;
  EXPECT_EQ(ec.waiters(), 1u);
  ec.cancel_wait();
  EXPECT_EQ(ec.waiters(), 0u);
  EXPECT_EQ(ec.parks(), 0u);
}

TEST(EventCount, NotifyWithoutWaitersIsSilent) {
  // The non-contended fast path: no waiter announced means notify must not
  // touch the epoch (no RMW), which is what the Channel zero-overhead guard
  // depends on.
  EventCount ec;
  ec.notify_one();
  ec.notify_all();
  EXPECT_EQ(ec.notifies(), 0u);
  const auto t1 = ec.prepare_wait();
  ec.cancel_wait();
  const auto t2 = ec.prepare_wait();
  ec.cancel_wait();
  EXPECT_EQ(t1, t2) << "silent notifies must not advance the epoch";
}

TEST(EventCount, CommitReturnsOnNotify) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    for (;;) {
      const auto t = ec.prepare_wait();
      if (ready.load(std::memory_order_seq_cst)) {
        ec.cancel_wait();
        break;
      }
      ec.commit_wait(t);
    }
    woke.store(true, std::memory_order_release);
  });
  // Let the waiter reach the park with high probability, then publish+wake.
  while (ec.waiters() == 0) std::this_thread::yield();
  ready.store(true, std::memory_order_seq_cst);
  ec.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load());
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, WakeRacingPrepareIsNotLost) {
  // Hammer the exact window the fence pair protects: the notifier publishes
  // and notifies concurrently with the waiter's prepare/re-check/commit. A
  // lost wakeup hangs the waiter; kIters successful handoffs under the CTest
  // timeout is the assertion.
  EventCount ec;
  std::atomic<int> flag{0};
  constexpr int kIters = 20000;
  std::thread waiter([&] {
    for (int i = 0; i < kIters; ++i) {
      for (;;) {
        if (flag.load(std::memory_order_seq_cst) > i) break;
        const auto t = ec.prepare_wait();
        if (flag.load(std::memory_order_seq_cst) > i) {
          ec.cancel_wait();
          break;
        }
        ec.commit_wait(t);
      }
    }
  });
  std::thread notifier([&] {
    for (int i = 0; i < kIters; ++i) {
      flag.store(i + 1, std::memory_order_seq_cst);
      ec.notify_one();
      if ((i & 1023) == 0) std::this_thread::yield();
    }
  });
  waiter.join();
  notifier.join();
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, DeadlineParkTimesOut) {
  EventCount ec;
  const auto t = ec.prepare_wait();
  const auto deadline = std::chrono::steady_clock::now() + 30ms;
  const bool woke = ec.commit_wait(t, deadline);
  EXPECT_FALSE(woke) << "no notify was sent; the park must report timeout";
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  EXPECT_EQ(ec.waiters(), 0u);
  EXPECT_EQ(ec.parks(), 1u);
}

TEST(EventCount, DeadlineParkWakesEarlyOnNotify) {
  EventCount ec;
  std::atomic<bool> ready{false};
  std::thread waiter([&] {
    for (;;) {
      const auto t = ec.prepare_wait();
      if (ready.load(std::memory_order_seq_cst)) {
        ec.cancel_wait();
        return;
      }
      // Far deadline: if the wake is lost this trips the CTest timeout, not
      // a silent pass via expiry.
      ec.commit_wait(
          t, std::chrono::steady_clock::now() + std::chrono::hours(1));
    }
  });
  while (ec.waiters() == 0) std::this_thread::yield();
  ready.store(true, std::memory_order_seq_cst);
  ec.notify_one();
  waiter.join();
  EXPECT_EQ(ec.waiters(), 0u);
}

TEST(EventCount, NotifyAllWakesEveryParkedThread) {
  EventCount ec;
  constexpr unsigned kThreads = 8;
  std::atomic<bool> go{false};
  std::atomic<unsigned> woke{0};
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < kThreads; ++i) {
    ts.emplace_back([&] {
      for (;;) {
        const auto t = ec.prepare_wait();
        if (go.load(std::memory_order_seq_cst)) {
          ec.cancel_wait();
          break;
        }
        ec.commit_wait(t);
      }
      woke.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Wait until every thread has at least announced itself, then broadcast.
  Backoff bo;
  while (ec.waiters() < kThreads) bo.pause();
  go.store(true, std::memory_order_seq_cst);
  ec.notify_all();
  for (auto& t : ts) t.join();
  EXPECT_EQ(woke.load(), kThreads);
  EXPECT_EQ(ec.waiters(), 0u);
}

}  // namespace
}  // namespace wcq
