#include "common/dwcas.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace wcq {
namespace {

TEST(Dwcas, SuccessAndFailure) {
  AtomicPair128 p;
  p.lo.store(1);
  p.hi.store(2);
  Pair128 expected{1, 2};
  EXPECT_TRUE(dwcas(p, expected, Pair128{3, 4}));
  EXPECT_EQ(p.lo.load(), 3u);
  EXPECT_EQ(p.hi.load(), 4u);

  Pair128 wrong{1, 2};
  EXPECT_FALSE(dwcas(p, wrong, Pair128{5, 6}));
  // Failure reports the observed value.
  EXPECT_EQ(wrong.lo, 3u);
  EXPECT_EQ(wrong.hi, 4u);
  EXPECT_EQ(p.lo.load(), 3u);
}

TEST(Dwcas, FailsWhenOnlyOneWordDiffers) {
  AtomicPair128 p;
  p.lo.store(10);
  p.hi.store(20);
  Pair128 lo_wrong{11, 20};
  EXPECT_FALSE(dwcas(p, lo_wrong, Pair128{0, 0}));
  Pair128 hi_wrong{10, 21};
  EXPECT_FALSE(dwcas(p, hi_wrong, Pair128{0, 0}));
  Pair128 right{10, 20};
  EXPECT_TRUE(dwcas(p, right, Pair128{0, 0}));
}

TEST(Dwcas, LoadTornMatchesQuiescentPair) {
  // With no concurrent writer, the two acquire loads read one pair.
  AtomicPair128 p;
  p.lo.store(123);
  p.hi.store(456);
  Pair128 v = p.load_torn();
  EXPECT_EQ(v.lo, 123u);
  EXPECT_EQ(v.hi, 456u);
  EXPECT_TRUE(dwcas(p, v, Pair128{789, 1011}));
  v = p.load_torn();
  EXPECT_EQ(v.lo, 789u);
  EXPECT_EQ(v.hi, 1011u);
}

// Both words must move together under contention: each thread increments
// the pair {n, 2n}; any observed pair must preserve hi == 2*lo.
TEST(Dwcas, PairInvariantUnderContention) {
  AtomicPair128 p;
  p.lo.store(0);
  p.hi.store(0);
  constexpr int kThreads = 8;
  constexpr int kIters = 50000;
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        Pair128 cur = p.load_torn();
        for (;;) {
          const Pair128 next{cur.lo + 1, (cur.lo + 1) * 2};
          if (dwcas(p, cur, next)) break;
          // `cur` now holds the observed value; it must itself be coherent.
          ASSERT_EQ(cur.hi, cur.lo * 2);
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(p.lo.load(), static_cast<u64>(kThreads) * kIters);
  EXPECT_EQ(p.hi.load(), 2 * static_cast<u64>(kThreads) * kIters);
}

// Every backend must compare, store and write back all 128 bits: each
// pattern is swept with a full update and with every single-bit mismatch,
// so a truncated, sign-extended or half-compared word fails here.
class DwcasPatternSweep : public ::testing::TestWithParam<Pair128> {};

TEST_P(DwcasPatternSweep, SuccessFailureAndWriteback) {
  const Pair128 a = GetParam();
  const Pair128 b{~a.lo, ~a.hi};
  AtomicPair128 p;
  p.lo.store(a.lo);
  p.hi.store(a.hi);
  Pair128 expected = a;
  EXPECT_TRUE(dwcas(p, expected, b));
  EXPECT_EQ(p.lo.load(), b.lo);
  EXPECT_EQ(p.hi.load(), b.hi);

  Pair128 stale = a;
  EXPECT_FALSE(dwcas(p, stale, a));
  EXPECT_EQ(stale, b);  // failure reports the observed value
  EXPECT_EQ(p.lo.load(), b.lo);
  EXPECT_EQ(p.hi.load(), b.hi);

  EXPECT_TRUE(dwcas(p, stale, a));
  EXPECT_EQ(p.lo.load(), a.lo);
  EXPECT_EQ(p.hi.load(), a.hi);
}

TEST_P(DwcasPatternSweep, EverySingleBitMismatchFails) {
  const Pair128 a = GetParam();
  AtomicPair128 p;
  p.lo.store(a.lo);
  p.hi.store(a.hi);
  for (int bit = 0; bit < 128; ++bit) {
    const u64 mask = u64{1} << (bit % 64);
    Pair128 expected = a;
    if (bit < 64) {
      expected.lo ^= mask;
    } else {
      expected.hi ^= mask;
    }
    ASSERT_FALSE(dwcas(p, expected, Pair128{0, 0})) << "bit " << bit;
    ASSERT_EQ(expected, a) << "bit " << bit;
    ASSERT_EQ(p.lo.load(), a.lo) << "bit " << bit;
    ASSERT_EQ(p.hi.load(), a.hi) << "bit " << bit;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, DwcasPatternSweep,
    ::testing::Values(Pair128{0, 0}, Pair128{~u64{0}, ~u64{0}},
                      Pair128{u64{1} << 63, 1},
                      Pair128{0xAAAAAAAAAAAAAAAAULL, 0x5555555555555555ULL},
                      Pair128{0x0123456789ABCDEFULL, 0xFEDCBA9876543210ULL}),
    [](const ::testing::TestParamInfo<Pair128>& info) {
      switch (info.index) {
        case 0: return std::string("zero");
        case 1: return std::string("ones");
        case 2: return std::string("sign_bits");
        case 3: return std::string("alternating");
        default: return std::string("mixed");
      }
    });

TEST(Dwcas, SingleWordFetchAddCoexistsWithCas2) {
  // wCQ's fast path F&As the counter word while slow paths CAS2 the pair;
  // verify the mixed-width usage behaves (lo moves, hi preserved).
  AtomicPair128 p;
  p.lo.store(100);
  p.hi.store(777);
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        if (i % 2 == 0) {
          p.lo.fetch_add(1);
        } else {
          Pair128 cur = p.load_torn();
          const Pair128 next{cur.lo + 1, cur.hi};
          dwcas(p, cur, next);  // may fail; fine
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(p.hi.load(), 777u);
  EXPECT_GE(p.lo.load(), 100u + kThreads * kIters / 2);
}

}  // namespace
}  // namespace wcq
