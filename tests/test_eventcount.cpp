// EventCount: the prepare/cancel/commit parking protocol underneath the
// blocking Channel facade (DESIGN.md §14). These tests pin the single-
// threaded protocol invariants (waiter accounting, no-waiter notify staying
// epoch-silent, the one-spinner registration and its claims) and the
// cross-thread guarantees the Dekker fence pair buys: a wake racing the
// park is never lost, deadline parks terminate, and a notify storm wakes
// every parked thread exactly once per park.
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

TEST(EventCount, SecondSpinnerRegistrationIsRefused) {
  EventCount ec;
  EXPECT_TRUE(ec.register_spinner(1));
  EXPECT_FALSE(ec.register_spinner(2)) << "one spinner per eventcount";
  EXPECT_FALSE(ec.deregister_spinner(1)) << "nothing claimed the spinner";
  EXPECT_TRUE(ec.register_spinner(2)) << "deregistration frees the word";
  EXPECT_FALSE(ec.deregister_spinner(2));
}

TEST(EventCount, NotifyOneClaimsSpinnerWithoutEpochBump) {
  // A claim replaces the wake: no epoch bump, no futex call, and it is
  // counted as a hand-off, not a notify — even with a waiter announced.
  EventCount ec;
  const auto t1 = ec.prepare_wait();
  ASSERT_TRUE(ec.register_spinner(5));
  ec.notify_one();
  EXPECT_EQ(ec.handoffs(), 1u);
  EXPECT_EQ(ec.notifies(), 0u);
  ec.cancel_wait();
  const auto t2 = ec.prepare_wait();
  ec.cancel_wait();
  EXPECT_EQ(t1, t2) << "a hand-off must not advance the epoch";
  EXPECT_TRUE(ec.deregister_spinner(5)) << "deregistration reports the claim";
  // The next notify_one finds no spinner and reaches the waiter instead.
  (void)ec.prepare_wait();
  ec.notify_one();
  ec.cancel_wait();
  EXPECT_EQ(ec.handoffs(), 1u);
  EXPECT_EQ(ec.notifies(), 1u);
}

TEST(EventCount, NotifyAllNeverClaims) {
  // close() broadcasts with notify_all: a spinner keeps its registration and
  // finds the closed state in its own re-check after the watch.
  EventCount ec;
  ASSERT_TRUE(ec.register_spinner(9));
  ec.notify_all();
  EXPECT_EQ(ec.handoffs(), 0u);
  EXPECT_FALSE(ec.deregister_spinner(9));
}

TEST(EventCount, AwaitClaimSeesClaimOrDeregisters) {
  EventCount ec;
  ASSERT_TRUE(ec.register_spinner(3));
  ec.notify_one();
  EXPECT_TRUE(ec.await_claim(3)) << "an earlier claim is seen at once";
  EXPECT_TRUE(ec.register_spinner(3)) << "a claim empties the word";
  const auto before = std::chrono::steady_clock::now();
  EXPECT_FALSE(ec.await_claim(3)) << "no notify, so no claim";
  EXPECT_GE(std::chrono::steady_clock::now() - before, EventCount::kSpinBudget);
  EXPECT_TRUE(ec.register_spinner(4)) << "an expired watch deregisters";
  EXPECT_FALSE(ec.deregister_spinner(4));
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
