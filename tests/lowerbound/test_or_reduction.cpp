#include "lowerbound/or_reduction.h"

#include <gtest/gtest.h>

#include "knapsack/solvers/brute_force.h"

namespace lcaknap::lowerbound {
namespace {

TEST(MakeOrInstance, AllZerosMakesLastItemUniquelyOptimal) {
  const std::vector<std::uint8_t> x(10, 0);
  const auto inst = make_or_instance(x);  // beta = 1/2
  const auto opt = knapsack::brute_force(inst);
  ASSERT_EQ(opt.items.size(), 1u);
  EXPECT_EQ(opt.items[0], 10u);  // s_n
  EXPECT_EQ(opt.value, 1);       // beta_num
}

TEST(MakeOrInstance, AnyOneExcludesLastItem) {
  for (std::size_t pos = 0; pos < 10; ++pos) {
    std::vector<std::uint8_t> x(10, 0);
    x[pos] = 1;
    const auto inst = make_or_instance(x);
    const auto opt = knapsack::brute_force(inst);
    ASSERT_EQ(opt.items.size(), 1u);
    EXPECT_EQ(opt.items[0], pos);
    EXPECT_EQ(opt.value, 2);  // beta_den (the "1" profit)
  }
}

TEST(MakeOrInstance, FeasibleSolutionsHoldAtMostOneItem) {
  const std::vector<std::uint8_t> x{1, 0, 1};
  const auto inst = make_or_instance(x);
  EXPECT_EQ(inst.capacity(), 1);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(inst.item(i).weight, 1);
  }
}

TEST(MakeOrInstance, RejectsBadBeta) {
  const std::vector<std::uint8_t> x{1};
  EXPECT_THROW(make_or_instance(x, 0, 2), std::invalid_argument);
  EXPECT_THROW(make_or_instance(x, 2, 2), std::invalid_argument);
  EXPECT_THROW(make_or_instance(x, 3, 2), std::invalid_argument);
}

TEST(BitOracle, CountsQueries) {
  const BitOracle oracle({0, 1, 0});
  EXPECT_FALSE(oracle.query(0));
  EXPECT_TRUE(oracle.query(1));
  EXPECT_EQ(oracle.query_count(), 2u);
  oracle.reset_count();
  EXPECT_EQ(oracle.query_count(), 0u);
  EXPECT_TRUE(oracle.or_value());
  EXPECT_EQ(oracle.query_count(), 0u);  // referee view is free
}

TEST(OrGame, FullReadAlwaysSucceeds) {
  util::Xoshiro256 rng(1);
  const FullReadStrategy strategy;
  const auto report = play_or_game(256, /*budget=*/0, /*trials=*/500, strategy, rng);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
  // Reads everything on all-zero inputs, stops at the planted 1 otherwise.
  EXPECT_GT(report.mean_queries, 127.0);
  EXPECT_LE(report.mean_queries, 255.0);
}

TEST(OrGame, SublinearBudgetIsCapped) {
  // Theorem 3.2/3.3's empirical shape: success <= ~1/2 + q/(2(n-1)).
  util::Xoshiro256 rng(2);
  const RandomProbeStrategy strategy;
  const std::size_t n = 4096;
  const auto report = play_or_game(n, /*budget=*/64, /*trials=*/4'000, strategy, rng);
  EXPECT_LE(report.success_rate, report.predicted_ceiling + 0.03);
  EXPECT_GE(report.success_rate, 0.5 - 0.03);
  EXPECT_LE(report.mean_queries, 64.0);
}

TEST(OrGame, SuccessGrowsLinearlyWithBudget) {
  util::Xoshiro256 rng(3);
  const RandomProbeStrategy strategy;
  const std::size_t n = 1024;
  const auto q1 = play_or_game(n, n / 8, 4'000, strategy, rng);
  const auto q2 = play_or_game(n, n / 2, 4'000, strategy, rng);
  EXPECT_GT(q2.success_rate, q1.success_rate + 0.1);
}

TEST(OrGame, FullBudgetProbeSucceeds) {
  util::Xoshiro256 rng(4);
  const RandomProbeStrategy strategy;
  const auto report = play_or_game(512, 511, 1'000, strategy, rng);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);  // distinct probes cover everything
}

TEST(OrGame, ValidatesArguments) {
  util::Xoshiro256 rng(5);
  const RandomProbeStrategy strategy;
  EXPECT_THROW((void)play_or_game(1, 1, 10, strategy, rng), std::invalid_argument);
  EXPECT_THROW((void)play_or_game(8, 1, 0, strategy, rng), std::invalid_argument);
}

}  // namespace
}  // namespace lcaknap::lowerbound
