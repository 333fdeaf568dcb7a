// Channel<T>: the blocking facade over the wait-free queues (DESIGN.md §14).
//
// Coverage here is three-layered:
//   * single-threaded semantics — status codes, deadline variants, stats
//     accounting, drain-after-close ordering;
//   * the close/drain edge cases the ISSUE names — close-while-full with
//     parked senders, close-while-empty with parked receivers, concurrent
//     close from two threads, recv-after-close draining exactly the
//     residual count;
//   * the fast-path overhead guard — N non-contended channel ops must cost
//     exactly the same ring F&As as N raw BoundedQueue ops (counter-based,
//     deterministic on a 1-core host), the ringops-gate-style claim
//     that parking support is free until someone actually parks.
#include "runtime/channel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/op_counters.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq {
namespace {

using namespace std::chrono_literals;

TEST(Channel, TrySendTryRecvRoundTrip) {
  Channel<std::uint64_t> ch(4u);
  auto h = ch.acquire();
  std::uint64_t v = 41;
  EXPECT_EQ(ch.try_send(h, v), ChanStatus::kOk);
  std::uint64_t out = 0;
  EXPECT_EQ(ch.try_recv(h, out), ChanStatus::kOk);
  EXPECT_EQ(out, 41u);
  EXPECT_EQ(ch.try_recv(h, out), ChanStatus::kEmpty);
}

TEST(Channel, TrySendFullPreservesValue) {
  Channel<std::uint64_t> ch(2u);
  auto h = ch.acquire();
  std::uint64_t v = 0;
  while (true) {
    std::uint64_t x = 7;
    if (ch.try_send(h, x) != ChanStatus::kOk) break;
    ++v;
  }
  EXPECT_EQ(v, ch.capacity());
  std::uint64_t keep = 99;
  EXPECT_EQ(ch.try_send(h, keep), ChanStatus::kFull);
  EXPECT_EQ(keep, 99u) << "rejected element must not be consumed";
}

TEST(Channel, BlockingRoundTripSingleThread) {
  Channel<std::uint64_t> ch(4u);
  auto h = ch.acquire();
  EXPECT_EQ(ch.send(h, 5), ChanStatus::kOk);
  std::uint64_t out = 0;
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kOk);
  EXPECT_EQ(out, 5u);
}

TEST(Channel, RecvForTimesOutOnEmpty) {
  Channel<std::uint64_t> ch(4u);
  auto h = ch.acquire();
  std::uint64_t out = 0;
  const auto before = std::chrono::steady_clock::now();
  EXPECT_EQ(ch.recv_for(h, out, 20ms), ChanStatus::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - before, 20ms);
  EXPECT_EQ(ch.stats().recv_timeouts, 1u);
}

TEST(Channel, RecvUntilNoDeadlineParksUntilSend) {
  // time_point::max() is "no deadline": the receiver parks (the futex path
  // with no timeout) and a send 10 ms later delivers, never a timeout.
  Channel<std::uint64_t> ch(4u);
  ChanStatus st = ChanStatus::kTimeout;
  std::uint64_t out = 0;
  std::thread receiver([&] {
    auto h = ch.acquire();
    st = ch.recv_until(h, out, std::chrono::steady_clock::time_point::max());
  });
  while (ch.stats().recv_parks == 0) std::this_thread::yield();
  std::this_thread::sleep_for(10ms);
  auto h = ch.acquire();
  EXPECT_EQ(ch.send(h, 77), ChanStatus::kOk);
  receiver.join();
  EXPECT_EQ(st, ChanStatus::kOk);
  EXPECT_EQ(out, 77u);
  EXPECT_EQ(ch.stats().recv_timeouts, 0u);
}

TEST(Channel, SendForTimesOutOnFull) {
  Channel<std::uint64_t> ch(2u);
  auto h = ch.acquire();
  for (std::uint64_t i = 0; i < ch.capacity(); ++i) {
    ASSERT_EQ(ch.send(h, i), ChanStatus::kOk);
  }
  EXPECT_EQ(ch.send_for(h, 123, 20ms), ChanStatus::kTimeout);
  EXPECT_EQ(ch.stats().send_timeouts, 1u);
  // The timed-out element was not half-committed: draining yields exactly
  // capacity() elements.
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < ch.capacity(); ++i) {
    ASSERT_EQ(ch.try_recv(h, out), ChanStatus::kOk);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(ch.try_recv(h, out), ChanStatus::kEmpty);
}

TEST(Channel, CloseRejectsSendersAndDrainsReceivers) {
  Channel<std::uint64_t> ch(4u);
  auto h = ch.acquire();
  EXPECT_EQ(ch.send(h, 1), ChanStatus::kOk);
  EXPECT_EQ(ch.send(h, 2), ChanStatus::kOk);
  EXPECT_TRUE(ch.close());
  EXPECT_FALSE(ch.close()) << "close must be idempotent";
  std::uint64_t v = 3;
  EXPECT_EQ(ch.try_send(h, v), ChanStatus::kClosed);
  EXPECT_EQ(ch.send(h, 4), ChanStatus::kClosed);
  EXPECT_EQ(ch.stats().closed_send_rejects, 2u);
  // Residual drain: both pre-close elements, in order, then kClosed forever.
  std::uint64_t out = 0;
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kOk);
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(ch.try_recv(h, out), ChanStatus::kOk);
  EXPECT_EQ(out, 2u);
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kClosed);
  EXPECT_EQ(ch.try_recv(h, out), ChanStatus::kClosed);
}

TEST(Channel, CloseWhileEmptyWakesParkedReceivers) {
  Channel<std::uint64_t> ch(4u);
  constexpr unsigned kReceivers = 4;
  std::atomic<unsigned> closed_seen{0};
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < kReceivers; ++i) {
    ts.emplace_back([&] {
      auto h = ch.acquire();
      std::uint64_t out = 0;
      EXPECT_EQ(ch.recv(h, out), ChanStatus::kClosed);
      closed_seen.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Wait for every receiver to actually park (spin phases exhausted), then
  // close. Each must wake exactly once with kClosed — a lost wake here hangs
  // the join under the CTest timeout.
  while (ch.stats().recv_parks < kReceivers) std::this_thread::yield();
  ch.close();
  for (auto& t : ts) t.join();
  EXPECT_EQ(closed_seen.load(), kReceivers);
}

TEST(Channel, CloseWhileFullWakesParkedSenders) {
  Channel<std::uint64_t> ch(2u);
  {
    auto h = ch.acquire();
    for (std::uint64_t i = 0; i < ch.capacity(); ++i) {
      ASSERT_EQ(ch.send(h, i), ChanStatus::kOk);
    }
  }
  constexpr unsigned kSenders = 4;
  std::atomic<unsigned> closed_seen{0};
  std::vector<std::thread> ts;
  for (unsigned i = 0; i < kSenders; ++i) {
    ts.emplace_back([&] {
      auto h = ch.acquire();
      EXPECT_EQ(ch.send(h, 999), ChanStatus::kClosed);
      closed_seen.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (ch.stats().send_parks < kSenders) std::this_thread::yield();
  ch.close();
  for (auto& t : ts) t.join();
  EXPECT_EQ(closed_seen.load(), kSenders);
  // The channel was full before the blocked senders arrived; none of their
  // elements may have leaked in.
  auto h = ch.acquire();
  std::uint64_t out = 0;
  for (std::uint64_t i = 0; i < ch.capacity(); ++i) {
    ASSERT_EQ(ch.recv(h, out), ChanStatus::kOk);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kClosed);
}

TEST(Channel, ConcurrentCloseFromTwoThreads) {
  Channel<std::uint64_t> ch(4u);
  {
    auto h = ch.acquire();
    ASSERT_EQ(ch.send(h, 7), ChanStatus::kOk);
  }
  std::atomic<int> winners{0};
  std::thread a([&] {
    if (ch.close()) winners.fetch_add(1, std::memory_order_relaxed);
  });
  std::thread b([&] {
    if (ch.close()) winners.fetch_add(1, std::memory_order_relaxed);
  });
  a.join();
  b.join();
  EXPECT_EQ(winners.load(), 1) << "exactly one close() performs the close";
  auto h = ch.acquire();
  std::uint64_t out = 0;
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kOk);
  EXPECT_EQ(out, 7u);
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kClosed);
}

TEST(Channel, RecvAfterCloseDrainsExactlyResidual) {
  // Producers stop, channel closes, then receivers drain: the total received
  // must be exactly the number of accepted sends — no element lost to the
  // close, none invented.
  Channel<std::uint64_t> ch(6u);
  constexpr unsigned kProducers = 3;
  constexpr std::uint64_t kPerProducer = 5000;
  std::atomic<std::uint64_t> accepted{0};
  std::vector<std::thread> producers;
  for (unsigned p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto h = ch.acquire();
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        if (ch.send(h, p * kPerProducer + i) == ChanStatus::kOk) {
          accepted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::atomic<std::uint64_t> received{0};
  std::vector<std::thread> consumers;
  for (unsigned c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      auto h = ch.acquire();
      std::uint64_t out = 0;
      while (ch.recv(h, out) == ChanStatus::kOk) {
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : producers) t.join();
  ch.close();  // all sends quiesced: the residual is exactly accepted-received
  for (auto& t : consumers) t.join();
  EXPECT_EQ(received.load(), accepted.load());
  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  EXPECT_EQ(ch.stats().accepted_after_close, 0u)
      << "no send raced the close in this shape";
}

TEST(Channel, MpmcBlockingExactlyOnceDelivery) {
  // The general blocking MPMC shape: senders park on full, receivers park on
  // empty, close() terminates the consumers. Every element is delivered
  // exactly once (checksum) and nobody hangs.
  Channel<std::uint64_t> ch(3u);  // capacity 8: forces both park directions
  constexpr unsigned kSenders = 3;
  constexpr unsigned kReceivers = 3;
  constexpr std::uint64_t kPerSender = 20000;
  std::vector<std::thread> ts;
  std::atomic<unsigned> senders_left{kSenders};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};
  for (unsigned s = 0; s < kSenders; ++s) {
    ts.emplace_back([&, s] {
      auto h = ch.acquire();
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        ASSERT_EQ(ch.send(h, s * kPerSender + i), ChanStatus::kOk);
      }
      if (senders_left.fetch_sub(1) == 1) ch.close();
    });
  }
  for (unsigned r = 0; r < kReceivers; ++r) {
    ts.emplace_back([&] {
      auto h = ch.acquire();
      std::uint64_t out = 0;
      while (ch.recv(h, out) == ChanStatus::kOk) {
        sum.fetch_add(out, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ts) t.join();
  const std::uint64_t n = kSenders * kPerSender;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(Channel, ShardedBackendRoundTripAndClose) {
  Channel<std::uint64_t, ShardedQueue<std::uint64_t>> ch(
      typename ShardedQueue<std::uint64_t>::Options{2, 4});
  auto h = ch.acquire();
  // Stay below the aggregate capacity (2 shards x 16): this is a
  // single-threaded shape, so a blocking send on full would never return.
  const std::uint64_t n = ch.capacity() - 2;
  for (std::uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(ch.send(h, i), ChanStatus::kOk);
  }
  ch.close();
  std::uint64_t out = 0;
  std::uint64_t sum = 0;
  std::uint64_t got = 0;
  while (ch.recv(h, out) == ChanStatus::kOk) {
    sum += out;
    ++got;
  }
  EXPECT_EQ(got, n);
  EXPECT_EQ(sum, n * (n - 1) / 2);
  EXPECT_EQ(ch.recv(h, out), ChanStatus::kClosed);
}

TEST(Channel, FastPathAddsZeroRingFaas) {
  // The parked path must be free until someone parks: N non-contended
  // channel send/recv pairs cost exactly the same shared-ring F&As as N raw
  // BoundedQueue enqueue/dequeue pairs. Thread-local counters make this
  // deterministic on any host, including 1-core CI.
  constexpr std::uint64_t kOps = 1000;
  const auto measure = [](auto&& op) {
    const auto before = opcount::snapshot();
    op();
    const auto after = opcount::snapshot();
    return after.faa - before.faa;
  };
  BoundedQueue<std::uint64_t> raw(6u);
  const std::uint64_t raw_faa = measure([&] {
    auto h = raw.acquire();
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ASSERT_TRUE(raw.enqueue(h, i));
      ASSERT_TRUE(raw.dequeue(h).has_value());
    }
  });
  Channel<std::uint64_t> ch(6u);
  const std::uint64_t chan_faa = measure([&] {
    auto h = ch.acquire();
    std::uint64_t out = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      ASSERT_EQ(ch.send(h, i), ChanStatus::kOk);
      ASSERT_EQ(ch.recv(h, out), ChanStatus::kOk);
    }
  });
  EXPECT_EQ(chan_faa, raw_faa)
      << "blocking facade added ring F&As on the non-contended fast path";
  const auto st = ch.stats();
  EXPECT_EQ(st.send_parks + st.recv_parks, 0u)
      << "nothing should park in a single-threaded ping-pong";
}

TEST(Channel, BatonPassesClaimToParkedReceiver) {
  // The baton rule under real threads, repeated. Two receivers each take
  // one element and leave: one parks first, then the other is released and
  // two quick sends follow it at an offset that sweeps 0-2 us across
  // rounds, so they meet it at every step from its first attempt through
  // its spinner registration and re-check. When that re-check takes the
  // first element and the second send's claim lands before it
  // deregisters, the wake is the parked receiver's: unless the spinner
  // passes it on, the parked receiver sleeps through the second element
  // and its recv_for times out.
  constexpr int kRounds = 400;
  for (int round = 0; round < kRounds; ++round) {
    Channel<std::uint64_t> ch(4u);
    ChanStatus st[2] = {ChanStatus::kTimeout, ChanStatus::kTimeout};
    std::atomic<bool> ready{false};
    std::atomic<bool> go{false};
    std::vector<std::thread> rx;
    for (int r = 0; r < 2; ++r) {
      rx.emplace_back([&, r] {
        auto h = ch.acquire();
        std::uint64_t out = 0;
        if (r == 1) {
          ready.store(true, std::memory_order_release);
          while (!go.load(std::memory_order_acquire)) {
          }
        }
        st[r] = ch.recv_for(h, out, 5s);
      });
    }
    auto h = ch.acquire();
    while (ch.stats().recv_parks == 0 ||
           !ready.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    const auto offset = std::chrono::nanoseconds(50 * (round % 40));
    go.store(true, std::memory_order_release);
    const auto at = std::chrono::steady_clock::now() + offset;
    while (std::chrono::steady_clock::now() < at) {
    }
    ASSERT_EQ(ch.send(h, 1), ChanStatus::kOk);
    ASSERT_EQ(ch.send(h, 2), ChanStatus::kOk);
    for (auto& t : rx) t.join();
    ASSERT_EQ(st[0], ChanStatus::kOk) << "round " << round;
    ASSERT_EQ(st[1], ChanStatus::kOk) << "round " << round;
  }
}

TEST(Channel, StatsSurfaceDegradedModes) {
  Channel<std::uint64_t> ch(2u);
  auto h = ch.acquire();
  std::uint64_t out = 0;
  EXPECT_EQ(ch.recv_for(h, out, 1ms), ChanStatus::kTimeout);
  for (std::uint64_t i = 0; i < ch.capacity(); ++i) {
    ASSERT_EQ(ch.send(h, i), ChanStatus::kOk);
  }
  EXPECT_EQ(ch.send_for(h, 9, 1ms), ChanStatus::kTimeout);
  ch.close();
  std::uint64_t v = 1;
  EXPECT_EQ(ch.try_send(h, v), ChanStatus::kClosed);
  const auto st = ch.stats();
  EXPECT_EQ(st.recv_timeouts, 1u);
  EXPECT_EQ(st.send_timeouts, 1u);
  EXPECT_EQ(st.closed_send_rejects, 1u);
  EXPECT_EQ(st.stranded, 0u);
}

}  // namespace
}  // namespace wcq
