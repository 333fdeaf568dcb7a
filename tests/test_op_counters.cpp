// The opcount event table (common/op_counters.hpp, DESIGN.md §9).
//
// Two facts: the generated Counters arithmetic covers every WCQ_EVENTS row,
// and one fixed single-thread script at paper patience costs each ring layer
// the exact shared-line traffic it always has — with all six wCQ slow-path
// rows at zero, since an uncontended queue never exhausts its patience.
#include "common/op_counters.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/bounded_queue.hpp"
#include "core/scq.hpp"
#include "core/wcq.hpp"

namespace wcq {
namespace {

using opcount::Counters;

TEST(OpCounters, ArithmeticCoversEveryRow) {
  Counters a{}, b{};
  std::uint64_t v = 1;
#define WCQ_EVENT_SET(f, key, desc) \
  a.f = 10 * v;                     \
  b.f = v++;
  WCQ_EVENTS(WCQ_EVENT_SET)
#undef WCQ_EVENT_SET
  const Counters d = a - b;
  Counters sum = b;
  sum += d;
  v = 1;
#define WCQ_EVENT_CHECK(f, key, desc) \
  EXPECT_EQ(d.f, 9 * v) << #f;        \
  EXPECT_EQ(sum.f, 10 * v++) << #f;
  WCQ_EVENTS(WCQ_EVENT_CHECK)
#undef WCQ_EVENT_CHECK
}

// 100 enqueues, 100 dequeues, then 10 dequeues of the empty queue, on one
// thread at the default (paper) patience.
template <typename Q>
Counters script_delta(Q& q) {
  const Counters before = opcount::snapshot();
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(q.dequeue().has_value());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(q.dequeue().has_value());
  return opcount::snapshot() - before;
}

void expect_no_slow_path(const Counters& d) {
  EXPECT_EQ(d.wcq_enq_slow, 0u);
  EXPECT_EQ(d.wcq_deq_slow, 0u);
  EXPECT_EQ(d.wcq_help_enq, 0u);
  EXPECT_EQ(d.wcq_help_deq, 0u);
  EXPECT_EQ(d.wcq_phase2_help, 0u);
  EXPECT_EQ(d.wcq_finalize, 0u);
}

TEST(OpCounters, SingleThreadScriptDeltas) {
  WCQ wcq_ring(7);
  SCQ scq_ring(7);
  MpscRing mpsc_ring(7);
  BoundedQueue<std::uint64_t> bounded(7);
  const Counters w = script_delta(wcq_ring);
  const Counters s = script_delta(scq_ring);
  const Counters m = script_delta(mpsc_ring);
  const Counters b = script_delta(bounded);
  // wCQ/SCQ: one F&A per operation, empty probes included; one re-arm, then
  // one threshold decrement per empty probe. MpscRing: producer F&As only.
  // BoundedQueue: aq plus the fq traffic its magazines leave over.
  EXPECT_EQ(w.faa, 210u);
  EXPECT_EQ(w.threshold, 11u);
  EXPECT_EQ(s.faa, 210u);
  EXPECT_EQ(s.threshold, 11u);
  EXPECT_EQ(m.faa, 100u);
  EXPECT_EQ(m.threshold, 0u);
  EXPECT_EQ(b.faa, 233u);
  EXPECT_EQ(b.threshold, 12u);
  for (const Counters* d : {&w, &s, &m, &b}) expect_no_slow_path(*d);
}

}  // namespace
}  // namespace wcq
