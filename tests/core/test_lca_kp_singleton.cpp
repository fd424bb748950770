// End-to-end exercises of LCA-KP's corner branches: the singleton
// (B_indicator) path on a crafted instance, the eps sweep, and the paper's
// literal constants.

#include <gtest/gtest.h>

#include "core/lca_kp.h"
#include "core/mapping_greedy.h"
#include "knapsack/generators.h"
#include "oracle/access.h"

namespace lcaknap::core {
namespace {

/// Crafted so that CONVERT-GREEDY takes the singleton branch: one dominant
/// heavy item (55% of profit, ~59% of weight, efficiency 0.93) behind a
/// curtain of more-efficient small items (45% of profit at efficiency 1.1).
/// The greedy prefix on Ĩ fills with small-item representatives (~0.4
/// profit), the heavy item does not fit on top, and its profit beats the
/// prefix — so the solution is the singleton {heavy}.
knapsack::Instance singleton_instance() {
  std::vector<knapsack::Item> items;
  items.push_back({5'500, 65'000});                      // index 0: the giant
  for (int s = 0; s < 450; ++s) items.push_back({10, 100});  // small curtain
  return {std::move(items), /*capacity=*/68'000};
}

LcaKpConfig singleton_config() {
  LcaKpConfig config;
  config.eps = 0.2;
  config.seed = 0x51;
  config.quantile_samples = 60'000;
  return config;
}

TEST(LcaKpSingleton, TakesTheSingletonBranch) {
  const auto inst = singleton_instance();
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, singleton_config());
  util::Xoshiro256 tape(1);
  const auto run = lca.run_pipeline(tape);
  EXPECT_TRUE(run.singleton);
  EXPECT_FALSE(run.degenerate);
  ASSERT_EQ(run.index_large.size(), 1u);
  EXPECT_TRUE(run.index_large.contains(0));
  EXPECT_EQ(run.e_small_grid, -1);
}

TEST(LcaKpSingleton, AnswersMatchTheSingletonSolution) {
  const auto inst = singleton_instance();
  const oracle::MaterializedAccess access(inst);
  const LcaKp lca(access, singleton_config());
  util::Xoshiro256 tape(2);
  const auto run = lca.run_pipeline(tape);
  ASSERT_TRUE(run.singleton);
  EXPECT_TRUE(lca.answer_from(run, 0));          // the giant is in
  for (std::size_t i = 1; i <= 100; ++i) {
    EXPECT_FALSE(lca.answer_from(run, i));       // the curtain is out
  }
  const auto eval = evaluate_run(inst, lca, run);
  EXPECT_TRUE(eval.feasible);
  EXPECT_NEAR(eval.norm_value, 0.55, 1e-9);      // exactly the giant's mass
}

class LcaKpEpsSweep : public ::testing::TestWithParam<double> {};

TEST_P(LcaKpEpsSweep, FeasibleAndAboveFloorAtEveryEps) {
  const double eps = GetParam();
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 8'000, 111);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config;
  config.eps = eps;
  config.seed = 0x5112;
  config.quantile_samples = 50'000;
  const LcaKp lca(access, config);
  util::Xoshiro256 tape(3);
  const auto run = lca.run_pipeline(tape);
  const auto eval = evaluate_run(inst, lca, run);
  EXPECT_TRUE(eval.feasible) << "eps=" << eps;
  // Floor in normalized units; OPT <= 1, so OPT/2 - 6 eps <= 1/2 - 6 eps.
  EXPECT_GE(eval.norm_value, 0.5 - 6.0 * eps) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LcaKpEpsSweep,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3, 0.45));

TEST(LcaKpPaperConstants, RunsWithLiteralParameters) {
  // The paper's tau = eps^2/5, rho = eps^2/18 demand astronomically large
  // samples; with the budget cap the pipeline must still run, stay feasible,
  // and report the literal parameter values.
  const auto inst = knapsack::make_family(knapsack::Family::kNeedle, 4'000, 112);
  const oracle::MaterializedAccess access(inst);
  LcaKpConfig config;
  config.eps = 0.25;
  config.seed = 0x9A9E;
  config.paper_constants = true;
  config.max_quantile_samples = 100'000;
  const LcaKp lca(access, config);
  EXPECT_DOUBLE_EQ(lca.params().tau, 0.0625 / 5.0);
  EXPECT_DOUBLE_EQ(lca.params().rho, 0.0625 / 18.0);
  EXPECT_EQ(lca.params().quantile_samples, 100'000u);  // cap engaged
  util::Xoshiro256 tape(4);
  const auto run = lca.run_pipeline(tape);
  EXPECT_TRUE(evaluate_run(inst, lca, run).feasible);
}

}  // namespace
}  // namespace lcaknap::core
