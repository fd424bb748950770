#include "reproducible/rmedian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace lcaknap::reproducible {
namespace {

/// True-CDF check of Definition 2.6 against a sample-generating model.
bool is_tau_approx_median(double cdf_at_value, double cdf_below_value, double tau) {
  // Pr[X <= x] >= 1/2 - tau  and  Pr[X >= x] = 1 - Pr[X < x] >= 1/2 - tau.
  return cdf_at_value >= 0.5 - tau && 1.0 - cdf_below_value >= 0.5 - tau;
}

RMedianParams default_params(std::int64_t domain = 1 << 12) {
  RMedianParams p;
  p.domain_size = domain;
  p.tau = 0.05;
  p.rho = 0.2;
  p.beta = 0.1;
  p.branching = 16;
  return p;
}

std::vector<std::int64_t> uniform_sample(std::int64_t domain, std::size_t n,
                                         util::Xoshiro256& rng) {
  std::vector<std::int64_t> s(n);
  for (auto& v : s) v = static_cast<std::int64_t>(rng.next_below(
                        static_cast<std::uint64_t>(domain)));
  return s;
}

TEST(RMedian, UniformDistributionMedianNearCenter) {
  const auto params = default_params();
  util::Xoshiro256 rng(1);
  const auto samples = uniform_sample(params.domain_size, 50'000, rng);
  const util::Prf prf(7);
  const auto m = rmedian(samples, params, prf, 0);
  // True CDF of uniform over [0, D): F(m) = (m+1)/D; tau-approx bounds.
  const double cdf = static_cast<double>(m + 1) / static_cast<double>(params.domain_size);
  const double below = static_cast<double>(m) / static_cast<double>(params.domain_size);
  EXPECT_TRUE(is_tau_approx_median(cdf, below, params.tau)) << "m=" << m;
}

TEST(RMedian, PointMassReturnsTheAtom) {
  const auto params = default_params();
  const std::vector<std::int64_t> samples(5'000, 1234);
  const util::Prf prf(8);
  EXPECT_EQ(rmedian(samples, params, prf, 0), 1234);
}

TEST(RMedian, TwoAtomsReturnsEither) {
  const auto params = default_params();
  std::vector<std::int64_t> samples;
  samples.insert(samples.end(), 5'000, 100);
  samples.insert(samples.end(), 5'000, 3000);
  const util::Prf prf(9);
  const auto m = rmedian(samples, params, prf, 0);
  // Any value in [100, 3000] is a tau-approximate median here.
  EXPECT_GE(m, 100);
  EXPECT_LE(m, 3000);
}

TEST(RMedian, SkewedAtomRespectsMass) {
  const auto params = default_params();
  std::vector<std::int64_t> samples;
  samples.insert(samples.end(), 9'000, 500);   // 90% mass at 500
  samples.insert(samples.end(), 1'000, 4000);
  const util::Prf prf(10);
  EXPECT_EQ(rmedian(samples, params, prf, 0), 500);
}

TEST(RMedian, DeterministicGivenSameSamplesAndSeed) {
  const auto params = default_params();
  util::Xoshiro256 rng(3);
  const auto samples = uniform_sample(params.domain_size, 10'000, rng);
  const util::Prf prf(11);
  EXPECT_EQ(rmedian(samples, params, prf, 5), rmedian(samples, params, prf, 5));
}

TEST(RMedian, ReproducibleAcrossFreshSamples) {
  // The Definition 2.5 experiment: shared r, fresh sample sets, many trials.
  auto params = default_params(1 << 10);
  params.tau = 0.08;
  params.rho = 0.2;
  const std::size_t n = 60'000;
  util::Xoshiro256 fresh(17);
  int disagreements = 0;
  constexpr int kPairs = 60;
  for (int pair = 0; pair < kPairs; ++pair) {
    const util::Prf prf(static_cast<std::uint64_t>(pair) * 104729 + 3);
    // A smooth non-uniform distribution: squared-uniform (denser near 0).
    const auto draw = [&]() {
      std::vector<std::int64_t> s(n);
      for (auto& v : s) {
        const double u = fresh.next_double();
        v = static_cast<std::int64_t>(u * u * static_cast<double>(params.domain_size - 1));
      }
      return s;
    };
    const auto m1 = rmedian(draw(), params, prf, 0);
    const auto m2 = rmedian(draw(), params, prf, 0);
    if (m1 != m2) ++disagreements;
  }
  // Calibrated budget: the measured rate must be comfortably below 1 and in
  // the vicinity of rho; allow 2x slack for the finite trial count.
  EXPECT_LE(disagreements, static_cast<int>(kPairs * params.rho * 2.0 + 3));
}

TEST(RMedian, DepthShrinksWithBranching) {
  auto p2 = default_params(1 << 20);
  p2.branching = 2;
  auto p64 = default_params(1 << 20);
  p64.branching = 64;
  EXPECT_EQ(rmedian_depth(p2), 20);
  EXPECT_EQ(rmedian_depth(p64), 4);  // ceil(20/6)
}

TEST(RMedian, SampleSizeGrowsWithDomain) {
  auto small = default_params(1 << 8);
  auto large = default_params(1LL << 40);
  EXPECT_LT(rmedian_sample_size(small), rmedian_sample_size(large));
}

TEST(RMedian, TargetQuantileGeneralization) {
  auto params = default_params();
  params.target = 0.9;
  util::Xoshiro256 rng(4);
  const auto samples = uniform_sample(params.domain_size, 50'000, rng);
  const util::Prf prf(12);
  const auto v = rmedian(samples, params, prf, 0);
  const double cdf = static_cast<double>(v + 1) / static_cast<double>(params.domain_size);
  EXPECT_NEAR(cdf, 0.9, params.tau + 0.02);
}

TEST(RMedian, ValidatesParameters) {
  const std::vector<std::int64_t> samples{1, 2, 3};
  const util::Prf prf(1);
  auto p = default_params();
  p.tau = 0.0;
  EXPECT_THROW((void)rmedian(samples, p, prf, 0), std::invalid_argument);
  p = default_params();
  p.domain_size = 1;
  EXPECT_THROW((void)rmedian(samples, p, prf, 0), std::invalid_argument);
  p = default_params();
  EXPECT_THROW((void)rmedian({}, p, prf, 0), std::invalid_argument);
  const std::vector<std::int64_t> out_of_domain{-1};
  EXPECT_THROW((void)rmedian(out_of_domain, p, prf, 0), std::invalid_argument);
}

TEST(RMedian, AtomExactlyAtMassHalfIsHandled) {
  // Adversarial: the CDF jumps from 0.5- to 1.0 at one atom; any value in
  // the gap straddles the target.  The output must still be a valid
  // tau-approximate median (here: one of the two atoms or a value between).
  const auto params = default_params();
  std::vector<std::int64_t> samples;
  samples.insert(samples.end(), 5'000, 700);   // mass 0.5 at 700
  samples.insert(samples.end(), 5'000, 2900);  // mass 0.5 at 2900
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const util::Prf prf(seed);
    const auto m = rmedian(samples, params, prf, 0);
    EXPECT_GE(m, 700);
    EXPECT_LE(m, 2900);
  }
}

TEST(RMedian, ManyTinyAtomsNearTarget) {
  // 50 atoms of mass 0.02 each straddling the median region: the dense-CDF
  // regime where naive rounding schemes degrade; the output must still be a
  // tau-approximate median of the empirical distribution.
  const auto params = default_params();
  std::vector<std::int64_t> samples;
  for (int a = 0; a < 50; ++a) {
    samples.insert(samples.end(), 200, 1000 + a * 7);
  }
  const util::Prf prf(77);
  const auto m = rmedian(samples, params, prf, 0);
  const util::EmpiricalCdfInt ecdf(samples);
  EXPECT_GE(ecdf.at(m), 0.5 - params.tau - 1e-9);
  EXPECT_GE(1.0 - ecdf.at(m - 1), 0.5 - params.tau - 1e-9);
}

TEST(RMedian, DomainEdgesAreValidOutputs) {
  // All mass at the bottom / top of the domain.
  const auto params = default_params();
  const util::Prf prf(78);
  const std::vector<std::int64_t> bottom(1'000, 0);
  EXPECT_EQ(rmedian(bottom, params, prf, 0), 0);
  const std::vector<std::int64_t> top(1'000, params.domain_size - 1);
  EXPECT_EQ(rmedian(top, params, prf, 1), params.domain_size - 1);
}

TEST(RMedianCdf, MatchesSpanVersion) {
  const auto params = default_params();
  util::Xoshiro256 rng(5);
  const auto samples = uniform_sample(params.domain_size, 20'000, rng);
  const util::EmpiricalCdfInt ecdf(samples);
  const util::Prf prf(13);
  EXPECT_EQ(rmedian(samples, params, prf, 2),
            rmedian_cdf([&](std::int64_t v) { return ecdf.at(v); }, params, prf, 2));
}

}  // namespace
}  // namespace lcaknap::reproducible
