#include "iky/value_approx.h"

#include <gtest/gtest.h>

#include <cmath>

#include "knapsack/generators.h"
#include "knapsack/solvers/greedy.h"
#include "knapsack/solvers/solve.h"
#include "oracle/access.h"

namespace lcaknap::iky {
namespace {

TEST(CouponCollectorSamples, MatchesLemma42) {
  const double delta = 0.04;
  const auto base = static_cast<double>(coupon_collector_samples(delta, 1));
  EXPECT_NEAR(base, std::ceil(6.0 / delta * (std::log(1.0 / delta) + 1.0)), 1.0);
  EXPECT_EQ(coupon_collector_samples(delta, 3), 3 * coupon_collector_samples(delta, 1));
  EXPECT_THROW((void)coupon_collector_samples(0.0), std::invalid_argument);
  EXPECT_THROW((void)coupon_collector_samples(0.5, 0), std::invalid_argument);
}

class ValueApproxFamily : public ::testing::TestWithParam<knapsack::Family> {};

TEST_P(ValueApproxFamily, EstimateWithinSixEps) {
  const double eps = 0.25;
  const auto inst = knapsack::make_family(GetParam(), 3'000, 21);
  const auto exact = knapsack::solve_exact(inst, /*bb_node_budget=*/20'000'000);
  // When the referee cannot prove optimality, bracket OPT instead:
  // greedy_half <= OPT <= fractional_opt.
  const double scale = static_cast<double>(inst.total_profit());
  double opt_lo, opt_hi;
  if (exact.proven_optimal) {
    opt_lo = opt_hi = static_cast<double>(exact.solution.value) / scale;
  } else {
    opt_lo = static_cast<double>(knapsack::greedy_half(inst).solution.value) / scale;
    opt_hi = knapsack::fractional_opt(inst) / scale;
  }

  const oracle::MaterializedAccess access(inst);
  ValueApproxConfig config;
  config.eps = eps;
  util::Xoshiro256 rng(22);
  int failures = 0;
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    const auto result = approximate_opt_value(access, config, rng);
    // Lemma 4.4: OPT(Ĩ) - eps is a (1, 6 eps)-approximation of OPT(I); allow
    // a small sampling cushion on top of the bracket.
    if (result.estimate > opt_hi + 6.0 * eps + 0.05 ||
        result.estimate < opt_lo - 6.0 * eps - 0.05) {
      ++failures;
    }
  }
  EXPECT_LE(failures, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Families, ValueApproxFamily,
    ::testing::Values(knapsack::Family::kUncorrelated,
                      knapsack::Family::kWeaklyCorrelated,
                      knapsack::Family::kNeedle,
                      knapsack::Family::kSubsetSum),
    [](const auto& info) { return knapsack::family_name(info.param); });

TEST(ValueApprox, QueryCostIndependentOfN) {
  // The defining property of [IKY12]: the sample count does not grow with n.
  const double eps = 0.25;
  ValueApproxConfig config;
  config.eps = eps;
  std::uint64_t cost_small = 0, cost_large = 0;
  {
    const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 2'000, 23);
    const oracle::MaterializedAccess access(inst);
    util::Xoshiro256 rng(24);
    cost_small = approximate_opt_value(access, config, rng).samples_used;
  }
  {
    const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 200'000, 23);
    const oracle::MaterializedAccess access(inst);
    util::Xoshiro256 rng(24);
    cost_large = approximate_opt_value(access, config, rng).samples_used;
  }
  EXPECT_EQ(cost_small, cost_large);
}

TEST(ValueApprox, TildeSizeIsConstantInN) {
  ValueApproxConfig config;
  config.eps = 0.2;
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 50'000, 25);
  const oracle::MaterializedAccess access(inst);
  util::Xoshiro256 rng(26);
  const auto result = approximate_opt_value(access, config, rng);
  // |Ĩ| <= 1/eps^2 large + (1/eps) bands * floor(1/eps) copies.
  EXPECT_LE(result.tilde_size, static_cast<std::size_t>(2.0 / (0.2 * 0.2)));
  EXPECT_GT(result.tilde_size, 0u);
}

TEST(ValueApprox, RejectsBadEps) {
  const auto inst = knapsack::make_family(knapsack::Family::kUncorrelated, 100, 27);
  const oracle::MaterializedAccess access(inst);
  util::Xoshiro256 rng(28);
  ValueApproxConfig config;
  config.eps = 0.0;
  EXPECT_THROW((void)approximate_opt_value(access, config, rng), std::invalid_argument);
}

TEST(ValueApprox, EstimateIsNonNegativeAndAtMostOne) {
  const auto inst = knapsack::make_family(knapsack::Family::kSubsetSum, 1'000, 29);
  const oracle::MaterializedAccess access(inst);
  util::Xoshiro256 rng(30);
  ValueApproxConfig config;
  config.eps = 0.3;
  const auto result = approximate_opt_value(access, config, rng);
  EXPECT_GE(result.estimate, 0.0);
  EXPECT_LE(result.estimate, 1.0 + 1e-9);
}

}  // namespace
}  // namespace lcaknap::iky
