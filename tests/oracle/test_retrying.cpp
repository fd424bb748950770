#include "oracle/retrying.h"

#include <gtest/gtest.h>

#include "fault/chaos.h"
#include "fault/plan.h"
#include "knapsack/generators.h"
#include "oracle/latency_model.h"

namespace lcaknap::oracle {
namespace {

TEST(RetryingAccess, MasksTransientFailures) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 50, 4);
  const MaterializedAccess inner(inst);
  const fault::ChaosAccess flaky(inner, fault::fail_stop_plan(0.4, 9));
  RetryConfig config;
  config.max_attempts = 32;
  const RetryingAccess retrying(flaky, config);
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const auto item = retrying.query(static_cast<std::size_t>(i % 50));
    EXPECT_EQ(item, inst.item(static_cast<std::size_t>(i % 50)));
    (void)retrying.weighted_sample(rng);
  }
  EXPECT_GT(retrying.retries_performed(), 0u);
}

TEST(RetryingAccess, GivesUpAfterMaxAttempts) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10, 5);
  const MaterializedAccess inner(inst);
  // 90% failure rate with only 2 attempts: failures must escape sometimes.
  const fault::ChaosAccess flaky(inner, fault::fail_stop_plan(0.9, 11));
  RetryConfig config;
  config.max_attempts = 2;
  const RetryingAccess retrying(flaky, config);
  int escaped = 0;
  for (int i = 0; i < 500; ++i) {
    try {
      (void)retrying.query(0);
    } catch (const OracleUnavailable&) {
      ++escaped;
    }
  }
  EXPECT_GT(escaped, 300);  // ~81% expected
}

TEST(RetryingAccess, RejectsBadAttemptCount) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 10, 6);
  const MaterializedAccess inner(inst);
  RetryConfig config;
  config.max_attempts = 0;
  EXPECT_THROW(RetryingAccess(inner, config), std::invalid_argument);
}

TEST(LatencyAccess, AccruesSimulatedTime) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 20, 7);
  const MaterializedAccess inner(inst);
  LatencyModel model;
  model.fixed_us = 100.0;
  model.exp_mean_us = 10.0;
  const LatencyAccess timed(inner, model, 13);
  util::Xoshiro256 rng(6);
  constexpr int kCalls = 1'000;
  for (int i = 0; i < kCalls; ++i) (void)timed.weighted_sample(rng);
  const double us = timed.simulated_us();
  // Mean per call is fixed + exp_mean = 110us.
  EXPECT_NEAR(us / kCalls, 110.0, 5.0);
  EXPECT_EQ(timed.sample_count(), static_cast<std::uint64_t>(kCalls));
}

}  // namespace
}  // namespace lcaknap::oracle
