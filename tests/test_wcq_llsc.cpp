// wCQ portable variant (paper §4, Fig 9): the full correctness suite runs
// over the LL/SC reservation-granule model, including with injected
// sporadic SC failures (weak LL/SC semantics).
#include "core/wcq_llsc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

class WcqLlscTest : public ::testing::Test {
 protected:
  void TearDown() override { llsc_inject::set_rate(0.0); }
};

WCQLLSC::Options slow_only(unsigned order) {
  WCQLLSC::Options o;
  o.order = order;
  o.enq_patience = 1;
  o.deq_patience = 1;
  o.help_delay = 1;
  return o;
}

TEST_F(WcqLlscTest, SequentialRoundTrips) {
  WCQLLSC q(4);
  for (u64 i = 0; i < 5000; ++i) {
    q.enqueue(i % q.capacity());
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST_F(WcqLlscTest, FifoOrder) {
  WCQLLSC q(6);
  for (u64 i = 0; i < q.capacity(); ++i) q.enqueue(i);
  for (u64 i = 0; i < q.capacity(); ++i) {
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
}

TEST_F(WcqLlscTest, SlowPathWithSpuriousFailures) {
  // Weak LL/SC: every slow-path entry update can fail sporadically. The
  // paper requires only that wCQ tolerates weak-CAS semantics; exactness of
  // the delivered values is the check.
  llsc_inject::set_rate(0.3);
  WCQLLSC q(slow_only(4));
  for (u64 i = 0; i < 2000; ++i) {
    q.enqueue(i % q.capacity());
    auto v = q.dequeue();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i % q.capacity());
  }
}

TEST_F(WcqLlscTest, MpmcExactCounts) {
  WCQLLSC q(9);
  testing::run_mpmc_count_exact(q, 4, 4, 20000);
}

TEST_F(WcqLlscTest, MpmcAllSlowPathTinyRing) {
  WCQLLSC q(slow_only(2));
  testing::run_mpmc_count_exact(q, 3, 3, 4000);
}

TEST_F(WcqLlscTest, MpmcWithInjectedScFailures) {
  llsc_inject::set_rate(0.2);
  const u64 injected_before = llsc_inject::injected();
  const u64 attempts_before = llsc_inject::attempts();
  WCQLLSC q(slow_only(3));
  testing::run_mpmc_count_exact(q, 3, 3, 4000);
  // See test_llsc_failure_sweep.cpp: on a 1-core host the slow path may
  // issue too few LL/SC updates for injection to be statistically certain.
  if (llsc_inject::attempts() - attempts_before >= 1000) {
    EXPECT_GT(llsc_inject::injected(), injected_before);
  }
}

TEST_F(WcqLlscTest, MpmcHeavyFailureRate) {
  llsc_inject::set_rate(0.5);
  WCQLLSC q(slow_only(4));
  testing::run_mpmc_count_exact(q, 2, 2, 3000);
}

}  // namespace
}  // namespace wcq
