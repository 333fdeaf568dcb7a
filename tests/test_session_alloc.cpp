// Sessions allocate nothing (DESIGN.md §10): a ShardedQueue session is a
// few words pointing into the queue's placement tables, so acquiring one,
// acquiring a consumer session, and every implicit operation (which builds
// a view session per call) stay off the heap. This binary replaces the
// global operator new with a counting one; the count is per thread, so
// only the calling thread's own allocations are measured.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <thread>

#include "core/bounded_queue.hpp"
#include "runtime/thread_registry.hpp"
#include "scale/sharded_queue.hpp"

namespace {
thread_local std::size_t t_news = 0;
}  // namespace

// The nothrow pair is replaced too (std::stable_sort's buffer uses it), so
// no block crosses between this allocator and a sanitizer runtime's.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_news;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace wcq {
namespace {

TEST(SessionAlloc, ShardedSessionsAndImplicitOpsAllocateNothing) {
  ShardedQueue<u64> q(4, 6);
  (void)ThreadRegistry::tid();  // first registration may allocate
  const std::size_t before = t_news;
  {
    auto h = q.acquire();
    ASSERT_TRUE(q.enqueue(h, 1));
    ASSERT_EQ(q.dequeue(h).value(), 1u);
    auto v = q.handle_for(h.tid());
    ASSERT_TRUE(q.enqueue(v, 2));
    ASSERT_EQ(q.dequeue(v).value(), 2u);
  }
  ASSERT_TRUE(q.enqueue(3));
  u64 in[2] = {4, 5};
  ASSERT_EQ(q.enqueue_bulk(in, 2), 2u);
  u64 out[3];
  std::size_t got = 0;
  while (got < 3) {
    const std::size_t k = q.dequeue_bulk(out + got, 3 - got);
    ASSERT_NE(k, 0u);
    got += k;
  }
  EXPECT_FALSE(q.dequeue().has_value());
  EXPECT_EQ(t_news, before) << "a session or implicit operation allocated";
}

// On its own thread: acquire_consumer pins the caller to the shard's node.
TEST(SessionAlloc, ShardedConsumerSessionAllocatesNothing) {
  typename ShardedQueue<u64>::Options opt;
  opt.shards = 2;
  opt.shard_order = 6;
  opt.mode = ShardedQueue<u64>::Mode::kPipeline;
  ShardedQueue<u64> q(opt);
  std::size_t news = 0;
  std::thread([&] {
    (void)ThreadRegistry::tid();
    auto p = q.acquire();  // producer warm-up outside the measured window
    const std::size_t before = t_news;
    {
      auto c = q.acquire_consumer(p.home_shard());
      ASSERT_TRUE(q.enqueue(c, 7));
      ASSERT_EQ(q.dequeue(c).value(), 7u);
    }
    news = t_news - before;
  }).join();
  EXPECT_EQ(news, 0u) << "acquire_consumer or its operations allocated";
}

}  // namespace
}  // namespace wcq
