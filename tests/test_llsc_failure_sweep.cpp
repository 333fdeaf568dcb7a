// Failure-injection sweep for the portable wCQ: correctness must be
// insensitive to the spurious-SC failure rate (weak LL/SC, paper §4). Runs
// the MPMC exactly-once check at rates from 0 to 0.7 and verifies the
// injector actually fired.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/backoff.hpp"
#include "common/cpu.hpp"
#include "core/wcq_llsc.hpp"
#include "mpmc_harness.hpp"

namespace wcq {
namespace {

class LlscFailureSweep : public ::testing::TestWithParam<double> {
 protected:
  void TearDown() override { llsc_inject::set_rate(0.0); }
};

TEST_P(LlscFailureSweep, ExactCountsUnderInjectedFailures) {
  const double rate = GetParam();
  llsc_inject::set_rate(rate);
  const u64 before = llsc_inject::injected();
  const u64 attempts_before = llsc_inject::attempts();

  WCQLLSC::Options o;
  o.order = 4;
  o.enq_patience = 1;  // slow path everywhere: all updates via LL/SC
  o.deq_patience = 1;
  o.help_delay = 1;
  WCQLLSC q(o);

  testing::run_mpmc_count_exact(q, 3, 3, 3000);
  // Injection only happens on LL/SC updates, which the slow path issues on
  // genuine contention; a 1-core host may legitimately produce almost none
  // (the single fast-path attempt usually succeeds because nothing truly
  // runs in parallel). Only with a statistically sufficient SC population
  // is a silent injector a wiring bug. (The deterministic injector check
  // lives in test_llsc_native.cpp:
  // LlscBackendTyped.SpuriousScInjectionFiresAndIsCounted.)
  const u64 attempts = llsc_inject::attempts() - attempts_before;
  if (rate >= 0.05 && attempts >= 1000) {
    EXPECT_GT(llsc_inject::injected(), before)
        << "injector configured but never fired across " << attempts
        << " eligible SCs";
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, LlscFailureSweep,
                         ::testing::Values(0.0, 0.05, 0.2, 0.45, 0.7));

}  // namespace
}  // namespace wcq
