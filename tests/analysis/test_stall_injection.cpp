// Stall/fault injection (DESIGN.md §14): suspend one thread indefinitely at
// a scheduling point and verify the progress claims that "wait-free" and
// "close() terminates every waiter" actually make:
//
//   * a suspended peer never blocks others — while the victim sits frozen
//     mid-operation, every other worker finishes its entire workload
//     (steps_during_stall > 0 witnesses real work against the stalled peer,
//     and no watchdog means nobody spun waiting for it);
//   * close() wakes every parked waiter even with a peer stalled — the
//     drain terminates, nothing is lost;
//   * the "killed consumer" pipeline variant — a pipeline-mode consumer that
//     stalls and then abandons its remaining work (the resume handler models
//     the kill: it does nothing further). Producers spill past the dead
//     consumer's shard via the hierarchical sweep and complete every send;
//     the surviving consumer and a post-mortem drain account for every
//     element;
//   * the "killed enqueuer" unbounded variant — an enqueuer frozen inside
//     its segment's ring enqueue never holds up the dequeuers: they drain,
//     unlink and pass the segment it claimed an index in.
//
// The PctScheduler's stall mode (Config::stall_victim/stall_after) freezes
// the victim the first time it reaches its N-th own scheduling point; the
// victim resumes only when no other worker can run, i.e. after its peers
// proved they never needed it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/unbounded_queue.hpp"
#include "core/wcq.hpp"
#include "pct_scheduler.hpp"
#include "runtime/channel.hpp"
#include "scale/sharded_queue.hpp"

namespace wcq {
namespace {

using analysis_test::PctScheduler;

// The watchdog ends a schedule that never idles: w1 spins, one step per
// pass, on a flag only the stalled w0 sets. w1 is always grantable, so no
// poll ever times out and only the check on the step path can fire the
// watchdog; free-running then releases w0, which sets the flag.
TEST(StallInjection, WatchdogEndsPeerSpinningOnStalledVictim) {
  PctScheduler::Config cfg;
  cfg.workers = 2;
  cfg.stall_victim = 0;
  cfg.watchdog = std::chrono::milliseconds(200);
  std::atomic<bool> flag{false};
  bool fired = false;
  const auto t0 = std::chrono::steady_clock::now();
  {
    PctScheduler sched(cfg);
    std::thread victim([&] {
      sched.attach(0);
      WCQ_SCHED_POINT(kOpBoundary);  // the stall hits here
      flag.store(true, std::memory_order_release);
      sched.finish();
    });
    std::thread spinner([&] {
      sched.attach(1);
      while (!flag.load(std::memory_order_acquire)) {
        WCQ_SCHED_POINT(kOpBoundary);
      }
      sched.finish();
    });
    victim.join();
    spinner.join();
    fired = sched.watchdog_fired();
    EXPECT_TRUE(sched.stall_hit());
  }
  EXPECT_TRUE(fired);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
}

// Victim receiver frozen mid-dequeue; producer + second receiver complete
// the entire workload against it; close() terminates everyone.
TEST(StallInjection, SuspendedReceiverNeverBlocksOthers) {
  constexpr unsigned kCount = 16;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Channel<std::uint64_t> ch(2u);
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 2;
    // Vary the freeze site with the seed so the victim stalls at different
    // depths of its dequeue/park machinery across the sweep.
    cfg.stall_after = 1 + (seed * 7) % 60;
    std::uint64_t got_live = 0, got_victim = 0;
    std::uint64_t sum = 0;
    bool stall_seen_by_victim = false;
    {
      PctScheduler sched(cfg);
      std::thread producer([&] {
        sched.attach(0);
        {
          auto h = ch.acquire();
          for (unsigned i = 0; i < kCount; ++i) ch.send(h, i);
          ch.close();
        }
        sched.finish();
      });
      std::thread live([&] {
        sched.attach(1);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got_live;
            sum += out;
          }
        }
        sched.finish();
      });
      std::thread victim([&] {
        sched.attach(2);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got_victim;
            sum += out;
          }
        }
        stall_seen_by_victim = sched.stall_hit();
        sched.finish();
      });
      producer.join();
      live.join();
      victim.join();
      ASSERT_FALSE(sched.watchdog_fired())
          << "a worker waited on the stalled victim, seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "stall never triggered, seed " << seed;
      ASSERT_GT(sched.steps_during_stall(), 0u)
          << "no work completed during the stall window, seed " << seed;
    }
    (void)stall_seen_by_victim;
    EXPECT_EQ(got_live + got_victim, kCount) << "seed " << seed;
    EXPECT_EQ(sum, std::uint64_t{kCount} * (kCount - 1) / 2)
        << "seed " << seed;
    EXPECT_EQ(ch.stats().stranded, 0u)
        << "close() lost a parked waiter, seed " << seed;
  }
}

// Victim producer frozen mid-enqueue. The peers cannot reach quiescence
// without it (the victim co-owns the close), so this shape uses the bounded
// suspension: the victim resumes after 2000 peer steps — ample for the other
// producer to finish its whole script and the consumer to drain everything
// available and park — and the bound stays far enough below the virtual-park
// budget (4096) that the parked consumer is woken by the resumed victim's
// next send rather than stranded.
TEST(StallInjection, SuspendedSenderNeverBlocksOthers) {
  constexpr unsigned kCount = 8;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Channel<std::uint64_t> ch(2u);
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 0;
    cfg.stall_after = 1 + (seed * 11) % 40;
    cfg.stall_duration = 2000;
    std::uint64_t received = 0;
    std::atomic<unsigned> senders_left{2};
    {
      PctScheduler sched(cfg);
      std::vector<std::thread> threads;
      for (unsigned s = 0; s < 2; ++s) {
        threads.emplace_back([&, s] {
          sched.attach(s);
          {
            auto h = ch.acquire();
            for (unsigned i = 0; i < kCount; ++i) {
              ch.send(h, std::uint64_t{s} * kCount + i);
            }
            if (senders_left.fetch_sub(1) == 1) ch.close();
          }
          sched.finish();
        });
      }
      threads.emplace_back([&] {
        sched.attach(2);
        {
          auto h = ch.acquire();
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) ++received;
        }
        sched.finish();
      });
      for (auto& t : threads) t.join();
      ASSERT_FALSE(sched.watchdog_fired()) << "seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "seed " << seed;
      ASSERT_TRUE(sched.stall_resumed()) << "seed " << seed;
      ASSERT_GT(sched.steps_during_stall(), 0u) << "seed " << seed;
    }
    // The resumed victim completes its remaining sends and whichever sender
    // finishes last performs the close — so the full count arrives.
    EXPECT_EQ(received, 2u * kCount) << "seed " << seed;
    EXPECT_EQ(ch.stats().stranded, 0u) << "seed " << seed;
  }
}

// Killed pipeline consumer: consumer 0 stalls and, on resume, abandons its
// loop (models a consumer that died mid-shift). Producers spill past its
// shard through the hierarchical sweep and complete every send; the
// surviving consumer plus a post-mortem drain of the dead shard account for
// every element exactly once.
TEST(StallInjection, KilledPipelineConsumerDoesNotWedgeProducers) {
  using SQ = ShardedQueue<std::uint64_t>;
  constexpr unsigned kCount = 24;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Channel<std::uint64_t, SQ> ch(SQ::Options{
        .shards = 2, .shard_order = 2, .mode = SQ::Mode::kPipeline});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 1;  // consumer on shard 0
    cfg.stall_after = 1 + (seed * 13) % 50;
    std::uint64_t got_live = 0, got_victim = 0;
    std::uint64_t sum = 0;
    {
      PctScheduler sched(cfg);
      std::thread producer([&] {
        sched.attach(0);
        {
          auto h = ch.acquire();
          for (unsigned i = 0; i < kCount; ++i) ch.send(h, i);
          ch.close();
        }
        sched.finish();
      });
      std::thread victim([&] {
        sched.attach(1);
        {
          auto h = ch.acquire_consumer(0);
          std::uint64_t out = 0;
          for (;;) {
            if (sched.stall_resumed()) break;  // "killed": abandon the loop
            const auto s = ch.try_recv(h, out);
            if (s == ChanStatus::kClosed) break;
            if (s == ChanStatus::kOk) {
              ++got_victim;
              sum += out;
            }
          }
        }
        sched.finish();
      });
      std::thread live([&] {
        sched.attach(2);
        {
          auto h = ch.acquire_consumer(1);
          std::uint64_t out = 0;
          while (ch.recv(h, out) == ChanStatus::kOk) {
            ++got_live;
            sum += out;
          }
        }
        sched.finish();
      });
      producer.join();
      victim.join();
      live.join();
      ASSERT_FALSE(sched.watchdog_fired())
          << "producer wedged on the dead consumer's shard, seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "seed " << seed;
    }
    // Post-mortem: drain what the dead consumer left in its shard.
    {
      auto h = ch.acquire_consumer(0);
      std::uint64_t out = 0;
      while (ch.try_recv(h, out) == ChanStatus::kOk) {
        ++got_victim;
        sum += out;
      }
    }
    EXPECT_EQ(got_live + got_victim, kCount) << "seed " << seed;
    EXPECT_EQ(sum, std::uint64_t{kCount} * (kCount - 1) / 2)
        << "seed " << seed;
    EXPECT_EQ(ch.stats().stranded, 0u) << "seed " << seed;
  }
}

// Killed enqueuer on an UnboundedQueue of two-item WCQ segments: the
// victim stalls at its first ring Tail F&A — after claiming an index in the
// current segment, before the index reaches the ring — and abandons its
// script when it resumes. The peers fill that segment, finalize it, append
// more and drain them all while the victim sits frozen: no dequeue waits
// for the victim, so every element but its own is delivered exactly once
// and both peers return. The victim's one enqueue completes on resume, and
// a post-mortem drain finds its element exactly once too.
TEST(StallInjection, KilledUnboundedEnqueuerDoesNotWedgeDequeuers) {
  using UQ = UnboundedQueue<std::uint64_t, WCQ>;
  constexpr unsigned kCount = 8;  // four segments' worth
  constexpr std::uint64_t kVictimValue = 100;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    UQ q(UQ::Options{.segment_order = 1});
    PctScheduler::Config cfg;
    cfg.seed = seed;
    cfg.workers = 3;
    cfg.stall_victim = 0;
    cfg.stall_site = analysis::Site::kTailFaa;
    std::vector<std::uint64_t> got;
    unsigned victim_enqueued = 0;
    {
      PctScheduler sched(cfg);
      std::thread victim([&] {
        sched.attach(0);
        for (unsigned i = 0; i < kCount; ++i) {
          if (sched.stall_resumed()) break;  // "killed": abandon the script
          q.enqueue(kVictimValue + i);
          ++victim_enqueued;
        }
        sched.finish();
      });
      std::thread producer([&] {
        sched.attach(1);
        for (std::uint64_t v = 0; v < kCount; ++v) q.enqueue(v);
        sched.finish();
      });
      std::thread consumer([&] {
        sched.attach(2);
        while (got.size() < kCount) {
          if (auto v = q.dequeue()) got.push_back(*v);
        }
        sched.finish();
      });
      victim.join();
      producer.join();
      consumer.join();
      ASSERT_FALSE(sched.watchdog_fired())
          << "a dequeuer waited on the stalled enqueuer, seed " << seed;
      ASSERT_TRUE(sched.stall_hit()) << "seed " << seed;
      ASSERT_GT(sched.steps_during_stall(), 0u) << "seed " << seed;
    }
    // The stall hits the victim's first enqueue, so it made exactly one.
    ASSERT_EQ(victim_enqueued, 1u) << "seed " << seed;
    std::vector<std::uint64_t> want(kCount);
    for (unsigned i = 0; i < kCount; ++i) want[i] = i;
    EXPECT_EQ(got, want) << "the producer's elements, in order, seed "
                         << seed;
    std::vector<std::uint64_t> rest;
    while (auto v = q.dequeue()) rest.push_back(*v);
    EXPECT_EQ(rest, std::vector<std::uint64_t>{kVictimValue})
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace wcq
