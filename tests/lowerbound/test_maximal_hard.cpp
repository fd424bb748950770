#include "lowerbound/maximal_hard.h"

#include <gtest/gtest.h>

namespace lcaknap::lowerbound {
namespace {

TEST(WeightOracle, RevealsPlantedWeights) {
  const WeightOracle oracle(100, 10, 20, 1);
  EXPECT_EQ(oracle.query(10), 3);
  EXPECT_EQ(oracle.query(20), 1);
  EXPECT_EQ(oracle.query(5), 0);
  EXPECT_EQ(oracle.query_count(), 3u);
}

TEST(WeightOracle, ValidatesConstruction) {
  EXPECT_THROW(WeightOracle(1, 0, 0, 1), std::invalid_argument);
  EXPECT_THROW(WeightOracle(10, 3, 3, 1), std::invalid_argument);
  EXPECT_THROW(WeightOracle(10, 1, 2, 2), std::invalid_argument);
  const WeightOracle ok(10, 1, 2, 3);
  EXPECT_THROW((void)ok.query(10), std::out_of_range);
}

TEST(MakeMaximalInstance, LightCaseHasUniqueMaximalSolutionOfEverything) {
  const auto inst = make_maximal_instance(20, 3, 7, /*j_is_light=*/true);
  std::vector<std::size_t> all(20);
  for (std::size_t i = 0; i < 20; ++i) all[i] = i;
  EXPECT_TRUE(inst.feasible(all));   // 3/4 + 1/4 = 1 = K
  EXPECT_TRUE(inst.is_maximal(all));
}

TEST(MakeMaximalInstance, HeavyCaseMaximalSolutionsDropExactlyOneSpecial) {
  const auto inst = make_maximal_instance(20, 3, 7, /*j_is_light=*/false);
  std::vector<std::size_t> drop_i, drop_j, all;
  for (std::size_t k = 0; k < 20; ++k) {
    all.push_back(k);
    if (k != 3) drop_i.push_back(k);
    if (k != 7) drop_j.push_back(k);
  }
  EXPECT_FALSE(inst.feasible(all));       // 3/4 + 3/4 > 1
  EXPECT_TRUE(inst.is_maximal(drop_i));
  EXPECT_TRUE(inst.is_maximal(drop_j));
}

TEST(MaximalGame, UnboundedBudgetSucceeds) {
  const SharedScanStrategy strategy;
  // Budget >> n log n: the pseudorandom scan covers the whole instance.
  const auto report = play_maximal_game(64, 4'096, 400, strategy, 1);
  EXPECT_GE(report.success_rate, 0.99);
}

TEST(MaximalGame, SublinearBudgetIsCappedBelowFourFifths) {
  // Theorem 3.4: with budget < n/11 success cannot reach 4/5.
  const std::size_t n = 2'048;
  const SharedScanStrategy strategy;
  const auto report = play_maximal_game(n, n / 11, 3'000, strategy, 2);
  EXPECT_LT(report.success_rate, 0.8);
  EXPECT_GE(report.success_rate, 0.5 - 0.03);  // the forced-yes strategy floor
  EXPECT_NEAR(report.success_rate, report.predicted_success, 0.05);
}

TEST(MaximalGame, SharedSeedBeatsFreshRandomness) {
  // Without the shared seed the two runs' random rankings disagree half the
  // time whenever both find the other heavy item, so at a budget where finds
  // are common the fresh-scan ablation measurably loses.
  const std::size_t n = 1'024;
  const std::uint64_t budget = n;  // coverage ~ 1 - 1/e
  const SharedScanStrategy shared;
  const FreshScanStrategy fresh;
  const auto shared_report = play_maximal_game(n, budget, 4'000, shared, 3);
  const auto fresh_report = play_maximal_game(n, budget, 4'000, fresh, 3);
  EXPECT_GT(shared_report.success_rate, fresh_report.success_rate + 0.02);
}

TEST(MaximalGame, ZeroBudgetForcedYesGivesHalf) {
  // With no scanning the strategy answers yes to everything: correct exactly
  // when w_j = 1/4 (probability 1/2).
  const SharedScanStrategy strategy;
  const auto report = play_maximal_game(512, 0, 4'000, strategy, 4);
  EXPECT_NEAR(report.success_rate, 0.5, 0.03);
}

TEST(MaximalGame, ValidatesArguments) {
  const SharedScanStrategy strategy;
  EXPECT_THROW((void)play_maximal_game(1, 1, 10, strategy, 5), std::invalid_argument);
  EXPECT_THROW((void)play_maximal_game(8, 1, 0, strategy, 5), std::invalid_argument);
}

}  // namespace
}  // namespace lcaknap::lowerbound
