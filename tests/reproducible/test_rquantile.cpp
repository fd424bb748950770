#include "reproducible/rquantile.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace lcaknap::reproducible {
namespace {

RQuantileParams default_params(std::int64_t domain = 1 << 12) {
  RQuantileParams p;
  p.domain_size = domain;
  p.tau = 0.06;
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

class RQuantileSweep : public ::testing::TestWithParam<double> {};

TEST_P(RQuantileSweep, UniformQuantilesAreAccurate) {
  const double p = GetParam();
  const auto params = default_params();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(p * 1000) + 1);
  const auto samples = uniform_sample(params.domain_size, 60'000, rng);
  const util::Prf prf(21);
  const auto v = rquantile(samples, p, params, prf, 0);
  const double cdf = static_cast<double>(v + 1) / static_cast<double>(params.domain_size);
  EXPECT_NEAR(cdf, p, params.tau + 0.02) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Quantiles, RQuantileSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9));

TEST(RQuantile, MedianMatchesPaddingReduction) {
  // p = 0.5 through the padding must land near the plain median.
  const auto params = default_params();
  util::Xoshiro256 rng(2);
  const auto samples = uniform_sample(params.domain_size, 50'000, rng);
  const util::Prf prf(22);
  const auto via_quantile = rquantile(samples, 0.5, params, prf, 0);
  const double cdf = static_cast<double>(via_quantile + 1) /
                     static_cast<double>(params.domain_size);
  EXPECT_NEAR(cdf, 0.5, params.tau + 0.02);
}

TEST(RQuantile, CdfOverloadMatchesSpanOverload) {
  const auto params = default_params();
  util::Xoshiro256 rng(3);
  const auto samples = uniform_sample(params.domain_size, 30'000, rng);
  const util::EmpiricalCdfInt ecdf(samples);
  const util::Prf prf(23);
  for (const double p : {0.2, 0.5, 0.8}) {
    EXPECT_EQ(rquantile(samples, p, params, prf, 4),
              rquantile(ecdf, p, params, prf, 4))
        << "p=" << p;
  }
}

TEST(RQuantile, ReproducibleAcrossFreshSamples) {
  auto params = default_params(1 << 10);
  params.tau = 0.08;
  util::Xoshiro256 fresh(29);
  int disagreements = 0;
  constexpr int kPairs = 50;
  const std::size_t n = 60'000;
  for (int pair = 0; pair < kPairs; ++pair) {
    const util::Prf prf(static_cast<std::uint64_t>(pair) * 31337 + 5);
    const auto draw = [&] {
      std::vector<std::int64_t> s(n);
      for (auto& v : s) {
        const double u = fresh.next_double();
        v = static_cast<std::int64_t>(u * u * static_cast<double>(params.domain_size - 1));
      }
      return s;
    };
    const auto q1 = rquantile(draw(), 0.7, params, prf, 1);
    const auto q2 = rquantile(draw(), 0.7, params, prf, 1);
    if (q1 != q2) ++disagreements;
  }
  EXPECT_LE(disagreements, static_cast<int>(kPairs * params.rho * 2.0 + 3));
}

TEST(RQuantile, ExtremeQuantilesStayInDomain) {
  const auto params = default_params();
  util::Xoshiro256 rng(4);
  const auto samples = uniform_sample(params.domain_size, 10'000, rng);
  const util::Prf prf(24);
  const auto lo = rquantile(samples, 0.01, params, prf, 0);
  const auto hi = rquantile(samples, 0.99, params, prf, 1);
  EXPECT_GE(lo, 0);
  EXPECT_LT(hi, params.domain_size);
  EXPECT_LE(lo, hi);
}

TEST(RQuantile, PointMass) {
  const auto params = default_params();
  const std::vector<std::int64_t> samples(5'000, 777);
  const util::Prf prf(25);
  EXPECT_EQ(rquantile(samples, 0.3, params, prf, 0), 777);
  EXPECT_EQ(rquantile(samples, 0.9, params, prf, 1), 777);
}

TEST(RQuantile, RejectsBadInput) {
  const auto params = default_params();
  const util::Prf prf(26);
  const std::vector<std::int64_t> samples{1, 2, 3};
  EXPECT_THROW((void)rquantile(samples, 0.0, params, prf, 0), std::invalid_argument);
  EXPECT_THROW((void)rquantile(samples, 1.0, params, prf, 0), std::invalid_argument);
  EXPECT_THROW((void)rquantile(std::vector<std::int64_t>{}, 0.5, params, prf, 0),
               std::invalid_argument);
  const std::vector<std::int64_t> bad{params.domain_size};
  EXPECT_THROW((void)rquantile(bad, 0.5, params, prf, 0), std::invalid_argument);
}

TEST(RQuantile, SampleSizeAccountsForPadding) {
  const auto params = default_params();
  RMedianParams mp;
  mp.domain_size = params.domain_size + 2;
  mp.tau = params.tau / 2.0;
  mp.rho = params.rho;
  mp.beta = params.beta;
  mp.branching = params.branching;
  EXPECT_EQ(rquantile_sample_size(params), 2 * rmedian_sample_size(mp));
}

}  // namespace
}  // namespace lcaknap::reproducible
