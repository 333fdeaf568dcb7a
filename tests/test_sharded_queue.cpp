// ShardedQueue (src/scale/, DESIGN.md §7) tests.
//
// The composition's contract is weaker than a single queue's — no global
// FIFO across shards — so the checks split into:
//   * exactly-once under MPMC traffic (the count-style harness guarantee),
//   * per-shard FIFO: items that went through one shard stay in per-producer
//     order inside it,
//   * sweep semantics: emptiness/fullness only after a full steal sweep,
//   * batch partial-success semantics at the full/empty edges.
#include "scale/sharded_queue.hpp"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/op_counters.hpp"
#include "mpmc_harness.hpp"
#include "runtime/thread_registry.hpp"

namespace wcq {
namespace {

TEST(ShardedQueue, ShardCountRoundsUpToPowerOfTwo) {
  ShardedQueue<u64> q3(3, 4);
  EXPECT_EQ(q3.shard_count(), 4u);
  ShardedQueue<u64> q0(0, 4);
  EXPECT_EQ(q0.shard_count(), 1u);
  ShardedQueue<u64> q8(8, 4);
  EXPECT_EQ(q8.shard_count(), 8u);
  EXPECT_EQ(q8.capacity(), 8u * q8.shard(0).capacity());
}

TEST(ShardedQueue, SingleThreadFifo) {
  // One thread keeps one home shard, so single-threaded use is strict FIFO.
  ShardedQueue<u64> q(4, 6);
  testing::run_sequential_fifo(q, q.shard(0).capacity());
}

TEST(ShardedQueue, SingleThreadWraparound) {
  ShardedQueue<u64> q(2, 4);
  testing::run_sequential_wraparound(q, q.shard(0).capacity(), 100);
}

TEST(ShardedQueue, SpillsToOtherShardsWhenHomeFull) {
  ShardedQueue<u64> q(4, 3);
  // A single thread can fill the ENTIRE composition: once home is full the
  // sweep spills to the other shards; enqueue fails only when all are full.
  for (u64 i = 0; i < q.capacity(); ++i) {
    ASSERT_TRUE(q.enqueue(i)) << "spill failed at " << i;
  }
  EXPECT_FALSE(q.enqueue(999)) << "all shards full: enqueue must fail";
  // Everything is retrievable (home + steal sweep), exactly once.
  std::vector<bool> seen(q.capacity(), false);
  for (u64 i = 0; i < q.capacity(); ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_LT(*v, q.capacity());
    ASSERT_FALSE(seen[*v]);
    seen[*v] = true;
  }
  EXPECT_FALSE(q.dequeue().has_value()) << "empty only after full sweep";
}

TEST(ShardedQueue, StealFindsElementFromForeignShard) {
  ShardedQueue<u64> q(8, 4);
  // Plant one element in every shard directly; a consumer thread (whatever
  // its home shard) must find all of them via the steal sweep.
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    ASSERT_TRUE(q.shard(s).enqueue(u64{s} + 100));
  }
  std::thread consumer([&] {
    std::vector<bool> found(q.shard_count(), false);
    for (unsigned s = 0; s < q.shard_count(); ++s) {
      auto v = q.dequeue();
      ASSERT_TRUE(v.has_value()) << "steal sweep missed an element";
      found[*v - 100] = true;
    }
    for (unsigned s = 0; s < q.shard_count(); ++s) EXPECT_TRUE(found[s]);
    EXPECT_FALSE(q.dequeue().has_value());
  });
  consumer.join();
}

TEST(ShardedQueue, BulkPartialSuccessAtFullAndEmpty) {
  ShardedQueue<u64> q(2, 3);  // capacity 16 total
  std::vector<u64> in(q.capacity() + 5);
  for (u64 i = 0; i < in.size(); ++i) in[i] = i;
  // Overfilling span: exactly capacity() accepted, the tail rejected.
  EXPECT_EQ(q.enqueue_bulk(in.data(), in.size()), q.capacity());
  EXPECT_FALSE(q.enqueue(777));
  // Over-draining span: exactly capacity() returned.
  std::vector<u64> out(in.size(), ~u64{0});
  const std::size_t got = q.dequeue_bulk(out.data(), out.size());
  EXPECT_EQ(got, q.capacity());
  std::vector<bool> seen(q.capacity(), false);
  for (std::size_t i = 0; i < got; ++i) {
    ASSERT_LT(out[i], q.capacity());
    ASSERT_FALSE(seen[out[i]]);
    seen[out[i]] = true;
  }
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(q.dequeue_bulk(out.data(), 4), 0u) << "bulk dequeue on empty";
}

TEST(ShardedQueue, MoveOnlyPayload) {
  ShardedQueue<std::unique_ptr<int>, WCQ> q(2, 3);
  ASSERT_TRUE(q.enqueue(std::make_unique<int>(7)));
  // Fill home so a later enqueue must spill: ownership must survive the
  // failed enqueue_movable attempts along the sweep.
  while (q.enqueue(std::make_unique<int>(0))) {
  }
  u64 drained = 0;
  while (q.dequeue()) ++drained;
  EXPECT_EQ(drained, q.capacity());
}

TEST(ShardedQueue, VisitOrderIsRingFromHomeShard) {
  // The sweep starts at the home shard tid & (shards-1) and walks the ring,
  // visiting each shard exactly once.
  ShardedQueue<u64> q(4, 4);
  for (unsigned tid = 0; tid < 8; ++tid) {
    const auto sweep = q.sweep_order(tid);
    for (unsigned s = 0; s < 4; ++s) {
      EXPECT_EQ(sweep[s], (tid + s) & 3u) << "tid " << tid << " step " << s;
    }
  }
}

TEST(ShardedQueue, HandleCachesVisitOrderAtAcquire) {
  // An owned session walks the sweep fixed at acquire(): home shard first,
  // then the rest of the ring, so an element on the last shard of its sweep
  // is still found.
  ShardedQueue<u64> q(4, 4);
  auto h = q.acquire();
  EXPECT_EQ(h.home_shard(), q.sweep_order(h.tid()).front());
  ASSERT_TRUE(q.shard(h.home_shard()).enqueue(11));
  ASSERT_EQ(q.dequeue(h), std::optional<u64>(11));
  ASSERT_TRUE(q.shard(q.sweep_order(h.tid()).back()).enqueue(22));
  ASSERT_EQ(q.dequeue(h), std::optional<u64>(22));
}

TEST(ShardedQueue, RemoteStealCounterStaysZero) {
  // The remote_steal row outlived the node-placement layer that fed it: a
  // spill onto a neighbour shard and a steal from one complete without
  // counting anything.
  ShardedQueue<u64> q(2, 3);
  auto h = q.acquire();
  const u64 base = opcount::snapshot().remote_steal;
  const u64 cap = q.shard(h.home_shard()).capacity();
  for (u64 i = 0; i <= cap; ++i) ASSERT_TRUE(q.enqueue(h, i));  // one spills
  for (u64 i = 0; i <= cap; ++i) ASSERT_TRUE(q.dequeue(h).has_value());
  ASSERT_TRUE(q.shard(q.sweep_order(h.tid()).back()).enqueue(7));
  ASSERT_EQ(q.dequeue(h), std::optional<u64>(7));  // a steal
  EXPECT_EQ(opcount::snapshot().remote_steal, base);
}

TEST(ShardedQueue, ImplicitOpResolvesTidOnce) {
  // The implicit wrappers cost one registry lookup per call and nothing
  // else: the sweep is arithmetic on the tid. SCQ shards, because wCQ's
  // periodic helping reads the registry high water; roomy enough that no
  // claim reaches a shard's full-edge reclaim scan, which reads it too.
  ShardedQueue<u64, SCQ> q(4, 8);
  ASSERT_TRUE(q.enqueue(1));  // settle first-touch state
  ASSERT_TRUE(q.dequeue().has_value());
  const u64 before = opcount::snapshot().registry;
  for (u64 i = 0; i < 10; ++i) ASSERT_TRUE(q.enqueue(i));
  for (u64 i = 0; i < 10; ++i) ASSERT_TRUE(q.dequeue().has_value());
  EXPECT_EQ(opcount::snapshot().registry - before, 20u);
}

TEST(ShardedQueue, HandleOpsResolveNoTid) {
  // An owned session resolves its tid once, at acquire() (SCQ shards, as
  // above).
  ShardedQueue<u64, SCQ> q(4, 8);
  auto h = q.acquire();
  ASSERT_TRUE(q.enqueue(h, 1));  // settle first-touch state
  ASSERT_TRUE(q.dequeue(h).has_value());
  const u64 before = opcount::snapshot().registry;
  for (u64 i = 0; i < 10; ++i) ASSERT_TRUE(q.enqueue(h, i));
  for (u64 i = 0; i < 10; ++i) ASSERT_TRUE(q.dequeue(h).has_value());
  EXPECT_EQ(opcount::snapshot().registry - before, 0u);
}

TEST(ShardedQueue, AcquireConsumerLeavesAffinityAlone) {
  // A consumer session does not move its thread: pinning is the caller's.
  ShardedQueue<u64, MpscRing>::Options o;
  o.shards = 4;
  o.shard_order = 4;
  o.mode = ShardedQueue<u64, MpscRing>::Mode::kPipeline;
  ShardedQueue<u64, MpscRing> q(o);
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(before), &before),
            0);
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    auto c = q.acquire_consumer(s);
    cpu_set_t now;
    CPU_ZERO(&now);
    ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(now), &now), 0);
    EXPECT_TRUE(CPU_EQUAL(&before, &now)) << "shard " << s;
  }
}

// ---- visit order at every shard count -------------------------------------

// A producer's sweep is every shard once, in ring order from its home shard
// tid & (shards-1); a consumer session's is its own shard alone. The same
// checks run at each power-of-two shard count the front-end accepts.
class ShardedVisitOrder : public ::testing::TestWithParam<unsigned> {
 protected:
  static constexpr unsigned kOrder = 3;  // 8 slots per shard
  unsigned shards() const { return GetParam(); }
};

TEST_P(ShardedVisitOrder, ProducerOrderIsRingFromHome) {
  ShardedQueue<u64> q(shards(), kOrder);
  ASSERT_EQ(q.shard_count(), shards());
  for (unsigned tid = 0; tid < 2 * shards() + 3; ++tid) {
    const auto order = q.sweep_order(tid);
    ASSERT_EQ(order.size(), shards());
    std::vector<bool> seen(shards(), false);
    for (unsigned s = 0; s < shards(); ++s) {
      EXPECT_EQ(order[s], (tid + s) & (shards() - 1))
          << "tid " << tid << " step " << s;
      ASSERT_LT(order[s], shards());
      EXPECT_FALSE(seen[order[s]]) << "tid " << tid << " revisits a shard";
      seen[order[s]] = true;
    }
  }
}

TEST_P(ShardedVisitOrder, EnqueueSpillsAlongTheOrder) {
  // One session fills the composition: each shard of its sweep fills in
  // turn, so shard k of the order holds exactly the k-th block of values.
  ShardedQueue<u64> q(shards(), kOrder);
  auto h = q.acquire();
  const u64 per = q.shard(0).capacity();
  for (u64 i = 0; i < q.capacity(); ++i) ASSERT_TRUE(q.enqueue(h, i));
  EXPECT_FALSE(q.enqueue(h, 999)) << "every shard full: enqueue must fail";
  const auto order = q.sweep_order(h.tid());
  for (unsigned k = 0; k < shards(); ++k) {
    for (u64 i = 0; i < per; ++i) {
      EXPECT_EQ(q.shard(order[k]).dequeue(), std::optional<u64>(k * per + i))
          << "visit " << k << " shard " << order[k];
    }
  }
}

TEST_P(ShardedVisitOrder, BulkEnqueueSpillsAlongTheOrder) {
  // The bulk path places the same blocks: an over-long span fills the
  // shards in visit order and reports exactly capacity() taken.
  ShardedQueue<u64> q(shards(), kOrder);
  auto h = q.acquire();
  const u64 per = q.shard(0).capacity();
  std::vector<u64> in(q.capacity() + 3);
  for (u64 i = 0; i < in.size(); ++i) in[i] = i;
  EXPECT_EQ(q.enqueue_bulk(h, in.data(), in.size()), q.capacity());
  const auto order = q.sweep_order(h.tid());
  for (unsigned k = 0; k < shards(); ++k) {
    for (u64 i = 0; i < per; ++i) {
      EXPECT_EQ(q.shard(order[k]).dequeue(), std::optional<u64>(k * per + i))
          << "visit " << k << " shard " << order[k];
    }
  }
}

TEST_P(ShardedVisitOrder, DequeueStealsAlongTheOrder) {
  // One element planted on every shard: a session drains them home first,
  // then in ring order, and reports empty only after the last.
  ShardedQueue<u64> q(shards(), kOrder);
  for (unsigned s = 0; s < shards(); ++s) {
    ASSERT_TRUE(q.shard(s).enqueue(u64{s}));
  }
  auto h = q.acquire();
  for (const unsigned s : q.sweep_order(h.tid())) {
    EXPECT_EQ(q.dequeue(h), std::optional<u64>(s));
  }
  EXPECT_FALSE(q.dequeue(h).has_value());
}

TEST_P(ShardedVisitOrder, ConsumerSessionVisitsOnlyItsShard) {
  using Q = ShardedQueue<u64, MpscRing>;
  Q::Options o;
  o.shards = shards();
  o.shard_order = kOrder;
  o.mode = Q::Mode::kPipeline;
  Q q(o);
  std::vector<Q::Handle> own;
  for (unsigned s = 0; s < shards(); ++s) {
    own.push_back(q.acquire_consumer(s));
    ASSERT_TRUE(q.shard(s).enqueue(u64{s} + 100));
  }
  for (unsigned s = 0; s < shards(); ++s) {
    EXPECT_EQ(own[s].home_shard(), s);
    EXPECT_EQ(q.dequeue(own[s]), std::optional<u64>(u64{s} + 100));
    EXPECT_FALSE(q.dequeue(own[s]).has_value())
        << "consumer of shard " << s << " stole from a neighbour";
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedVisitOrder,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u),
                         ::testing::PrintToStringParamName());

// ---- multi-threaded (stress tier via the *Mpmc* name pattern) -------------

TEST(ShardedQueueMpmc, ExactlyOnceFourPlusThreads) {
  ShardedQueue<u64> q(4, 10);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 20000;
  // Exactly-once holds globally; FIFO does not cross shards.
  testing::run_mpmc_exactly_once(q, cfg, /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, ExactlyOnceTinyShardsBackpressure) {
  ShardedQueue<u64> q(4, 2);  // 16 slots total: constant spill + steal
  testing::MpmcConfig cfg;
  cfg.producers = 3;
  cfg.consumers = 3;
  cfg.items_per_producer = 8000;
  testing::run_mpmc_exactly_once(q, cfg, /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, BulkExactlyOnce) {
  ShardedQueue<u64> q(4, 9);
  testing::MpmcConfig cfg;
  cfg.producers = 4;
  cfg.consumers = 4;
  cfg.items_per_producer = 16000;
  testing::run_mpmc_bulk_exactly_once(q, cfg, /*max_batch=*/16,
                                      /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, HandleSessionsExactlyOnce) {
  // Two producers and two consumers, each on an owned session whose sweep
  // was fixed at acquire(): exactly-once must hold through the cached
  // sweeps.
  ShardedQueue<u64> q(4, 10);
  constexpr unsigned kProducers = 2, kConsumers = 2;
  const u64 per_producer = testing::scale_items(16000);
  const u64 total = per_producer * kProducers;
  std::atomic<u64> consumed{0};
  std::vector<std::vector<u64>> logs(kConsumers);
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      auto h = q.acquire();
      Backoff bo;
      for (u64 i = 0; i < per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(h, testing::tag(p, i))) bo.pause();
      }
    });
  }
  for (unsigned c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&, c] {
      auto h = q.acquire();
      auto& log = logs[c];
      Backoff bo;
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue(h)) {
          log.push_back(*v);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_EQ(consumed.load(), total);
  EXPECT_FALSE(q.dequeue().has_value());
  testing::MpmcConfig cfg;
  cfg.producers = kProducers;
  cfg.consumers = kConsumers;
  testing::check_consumer_logs(logs, cfg, per_producer, /*check_fifo=*/false);
}

TEST(ShardedQueueMpmc, PerShardFifoFourProducers) {
  // Producers stamp (producer, seq) tags; after the run each shard is
  // drained directly and every producer's sequence must be increasing
  // WITHIN that shard — the ordering contract the front-end does promise.
  ShardedQueue<u64> q(4, 12);
  constexpr unsigned kProducers = 4;
  // Spill is fine: a sequential producer's items land in each shard in
  // program order no matter how the sweep routes them, so the per-shard
  // check holds with or without overflow into neighbors. When the scaled
  // item count outgrows the composition a concurrent drainer makes room,
  // checking the same property on the prefix it consumes.
  const u64 per_producer = testing::scale_items(20000);
  const bool fits = kProducers * per_producer <= q.capacity() / 2;
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<u64> drained_during{0};
  std::thread drainer;  // only needed when the items outgrow the capacity
  std::map<unsigned, std::map<unsigned, u64>> drain_last;  // shard -> p -> seq
  if (!fits) {
    drainer = std::thread([&] {
      // Drain from each shard directly (not via the sweep) so the per-shard
      // FIFO property can be checked on the fly for the drained prefix.
      Backoff bo;
      while (!done.load(std::memory_order_acquire)) {
        bool any = false;
        for (unsigned s = 0; s < q.shard_count(); ++s) {
          if (auto v = q.shard(s).dequeue()) {
            const unsigned p = static_cast<unsigned>(*v >> 32);
            const u64 seq = *v & 0xFFFFFFFFu;
            auto& last = drain_last[s];
            const auto it = last.find(p);
            if (it != last.end()) {
              ASSERT_GT(seq, it->second) << "per-shard FIFO (drain) shard "
                                         << s << " producer " << p;
            }
            last[p] = seq;
            drained_during.fetch_add(1, std::memory_order_relaxed);
            any = true;
          }
        }
        if (any) {
          bo.reset();
        } else {
          bo.pause();
        }
      }
    });
  }
  std::vector<std::thread> ts;
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      Backoff bo;
      while (!start.load(std::memory_order_acquire)) bo.pause();
      for (u64 i = 0; i < per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(testing::tag(p, i))) bo.pause();
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  done.store(true, std::memory_order_release);
  if (drainer.joinable()) drainer.join();

  u64 total = drained_during.load();
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    std::map<unsigned, u64> last_seq;
    while (auto v = q.shard(s).dequeue()) {
      const unsigned p = static_cast<unsigned>(*v >> 32);
      const u64 seq = *v & 0xFFFFFFFFu;
      ASSERT_LT(p, kProducers);
      const auto it = last_seq.find(p);
      if (it != last_seq.end()) {
        ASSERT_GT(seq, it->second)
            << "per-shard FIFO violated in shard " << s << " producer " << p;
      }
      last_seq[p] = seq;
      ++total;
    }
  }
  EXPECT_EQ(total, kProducers * per_producer);
  EXPECT_FALSE(q.dequeue().has_value());
}

// ---- Mode::kPipeline (DESIGN.md §13): MPSC shards, owning consumers ----

using PipelineQueue = ShardedQueue<u64, MpscRing>;

PipelineQueue::Options pipeline_options(unsigned shards,
                                        unsigned shard_order) {
  PipelineQueue::Options o;
  o.shards = shards;
  o.shard_order = shard_order;
  o.mode = PipelineQueue::Mode::kPipeline;
  return o;
}

TEST(ShardedQueue, PipelineSingleConsumerDrainsAllShards) {
  // One consumer session per shard, all held by this thread: everything a
  // producer spread across the shards is retrievable through the owning
  // sessions, exactly once.
  PipelineQueue q(pipeline_options(4, 6));  // 4 x 64: room for all 200
  std::vector<PipelineQueue::Handle> own;
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    own.push_back(q.acquire_consumer(s));
  }
  for (u64 i = 0; i < 200; ++i) ASSERT_TRUE(q.enqueue(i));
  std::vector<bool> seen(200, false);
  u64 got = 0;
  while (got < 200) {
    bool any = false;
    for (auto& h : own) {
      while (auto v = q.dequeue(h)) {
        ASSERT_LT(*v, 200u);
        ASSERT_FALSE(seen[*v]) << "duplicate delivery";
        seen[*v] = true;
        ++got;
        any = true;
      }
    }
    ASSERT_TRUE(any) << "shards empty with items missing";
  }
  for (auto& h : own) EXPECT_FALSE(q.dequeue(h).has_value());
}

TEST(ShardedQueue, PipelineConsumerSweepIsPinnedToItsShard) {
  // An owning-consumer session drains exactly its shard — no steal sweep —
  // so a neighbour shard's item is invisible to it.
  PipelineQueue q(pipeline_options(2, 5));
  auto c0 = q.acquire_consumer(0);
  auto c1 = q.acquire_consumer(1);
  ASSERT_TRUE(c0.is_consumer());
  q.shard(1).enqueue(77);
  EXPECT_FALSE(q.dequeue(c0).has_value())
      << "consumer 0 stole from shard 1";
  EXPECT_EQ(q.dequeue(c1).value(), 77u);
}

TEST(ShardedQueue, PipelineConcurrentProducersExactlyOnce) {
  // The bench adapter's shape: hashing producers (implicit sessions, spill
  // sweep producer-side) against per-shard owning consumers on dedicated
  // threads, exact delivery counts.
  PipelineQueue q(pipeline_options(4, 6));
  constexpr unsigned kProducers = 4;
  const u64 per_producer = testing::scale_items(20000);
  const u64 total = kProducers * per_producer;
  std::atomic<u64> consumed{0};
  std::vector<std::atomic<u64>> counts(kProducers);
  std::vector<std::thread> ts;
  for (unsigned s = 0; s < q.shard_count(); ++s) {
    ts.emplace_back([&, s] {
      auto h = q.acquire_consumer(s);
      Backoff bo;
      while (consumed.load(std::memory_order_relaxed) < total) {
        if (auto v = q.dequeue(h)) {
          counts[static_cast<unsigned>(*v >> 32)].fetch_add(
              1, std::memory_order_relaxed);
          consumed.fetch_add(1, std::memory_order_relaxed);
          bo.reset();
        } else {
          bo.pause();
        }
      }
      EXPECT_FALSE(q.dequeue(h).has_value());
    });
  }
  for (unsigned p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      Backoff bo;
      for (u64 i = 0; i < per_producer; ++i) {
        bo.reset();
        while (!q.enqueue(testing::tag(p, i))) bo.pause();
      }
    });
  }
  for (auto& t : ts) t.join();
  for (unsigned p = 0; p < kProducers; ++p) {
    EXPECT_EQ(counts[p].load(), per_producer) << "producer " << p;
  }
}

TEST(ShardedQueue, PipelineModeStillAcceptsProducerHandles) {
  // acquire() handles remain valid for the enqueue side in pipeline mode.
  PipelineQueue q(pipeline_options(2, 5));
  auto p = q.acquire();
  auto c0 = q.acquire_consumer(0);
  auto c1 = q.acquire_consumer(1);
  ASSERT_FALSE(p.is_consumer());
  for (u64 i = 0; i < 32; ++i) ASSERT_TRUE(q.enqueue(p, i));
  u64 got = 0;
  while (q.dequeue(c0).has_value() || q.dequeue(c1).has_value()) ++got;
  EXPECT_EQ(got, 32u);
}

#if defined(__SANITIZE_THREAD__)
#define WCQ_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "death tests fork; skipped under TSan"
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WCQ_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "death tests fork; skipped under TSan"
#else
#define WCQ_SKIP_UNDER_TSAN() (void)0
#endif
#else
#define WCQ_SKIP_UNDER_TSAN() (void)0
#endif

TEST(ShardedQueueDeathTest, PipelineDequeueWithoutConsumerSessionTraps) {
  WCQ_SKIP_UNDER_TSAN();
  EXPECT_DEATH(
      {
        PipelineQueue q(pipeline_options(2, 5));
        q.enqueue(1);
        (void)q.dequeue();  // implicit dequeue in pipeline mode: diagnosed
      },
      "acquire_consumer");
}

TEST(ShardedQueueDeathTest, PipelineSecondConsumerOnOneShardTraps) {
  WCQ_SKIP_UNDER_TSAN();
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PipelineQueue q(pipeline_options(2, 5));
        auto c = q.acquire_consumer(0);
        q.enqueue(1);
        while (!q.dequeue(c).has_value()) {
        }  // binds this thread to shard 0's ring
        std::thread([&] {
          auto c2 = q.acquire_consumer(0);  // second owner of shard 0
          q.enqueue(2);
          while (!q.dequeue(c2).has_value()) {
          }
        }).join();
      },
      "second consumer session");
}

}  // namespace
}  // namespace wcq
