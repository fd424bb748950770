#include "reproducible/rstat.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace lcaknap::reproducible {
namespace {

TEST(RoundToOffsetGrid, LandsOnGridPoints) {
  for (const double u : {0.0, 0.25, 0.7}) {
    for (double v = -2.0; v <= 2.0; v += 0.137) {
      const double rounded = round_to_offset_grid(v, 0.1, u);
      const double k = (rounded / 0.1) - u;
      EXPECT_NEAR(k, std::round(k), 1e-9);
    }
  }
}

TEST(RoundToOffsetGrid, ErrorAtMostHalfSpacing) {
  for (const double u : {0.1, 0.5, 0.9}) {
    for (double v = 0.0; v <= 1.0; v += 0.0173) {
      EXPECT_LE(std::abs(round_to_offset_grid(v, 0.05, u) - v), 0.025 + 1e-12);
    }
  }
}

TEST(ReproducibleMean, AccuracyWithinSpacing) {
  util::Xoshiro256 rng(1);
  const util::Prf prf(99);
  std::vector<double> samples(20'000);
  for (auto& s : samples) s = rng.next_double();  // mean 0.5
  const double result = reproducible_mean(samples, 0.05, prf, 0);
  EXPECT_NEAR(result, 0.5, 0.05 / 2 + 0.02);
}

TEST(ReproducibleMean, IdenticalAcrossRunsWithSharedRandomness) {
  // Definition 2.5: same internal randomness r, fresh samples s1, s2.
  const double rho = 0.1;
  const double spacing = 0.05;
  const std::size_t n = rstat_sample_size(spacing, rho, 0.05);
  util::Xoshiro256 fresh(42);
  int disagreements = 0;
  constexpr int kPairs = 200;
  for (int pair = 0; pair < kPairs; ++pair) {
    const util::Prf prf(static_cast<std::uint64_t>(pair) * 7919 + 1);
    std::vector<double> s1(n), s2(n);
    for (auto& x : s1) x = fresh.next_double() < 0.37 ? 1.0 : 0.0;
    for (auto& x : s2) x = fresh.next_double() < 0.37 ? 1.0 : 0.0;
    if (reproducible_mean(s1, spacing, prf, 3) !=
        reproducible_mean(s2, spacing, prf, 3)) {
      ++disagreements;
    }
  }
  // Expected disagreement rate <= rho = 0.1; allow sampling slack.
  EXPECT_LE(disagreements, static_cast<int>(kPairs * rho * 2));
}

TEST(ReproducibleMean, DifferentQueryIdsUseDifferentOffsets) {
  const util::Prf prf(5);
  const std::vector<double> samples(1000, 0.5);
  const double a = reproducible_mean(samples, 0.2, prf, 1);
  const double b = reproducible_mean(samples, 0.2, prf, 2);
  // Same data, different grid offsets: outputs may differ but both within
  // spacing/2 of the truth.
  EXPECT_NEAR(a, 0.5, 0.1);
  EXPECT_NEAR(b, 0.5, 0.1);
}

TEST(ReproducibleMean, RejectsBadInput) {
  const util::Prf prf(1);
  EXPECT_THROW((void)reproducible_mean({}, 0.1, prf, 0), std::invalid_argument);
  const std::vector<double> one{0.5};
  EXPECT_THROW((void)reproducible_mean(one, 0.0, prf, 0), std::invalid_argument);
}

TEST(RStatSampleSize, ScalesInverselyWithRhoSquared) {
  const auto loose = rstat_sample_size(0.1, 0.2, 0.1);
  const auto tight = rstat_sample_size(0.1, 0.02, 0.1);
  EXPECT_NEAR(static_cast<double>(tight) / static_cast<double>(loose), 100.0, 1.0);
}

}  // namespace
}  // namespace lcaknap::reproducible
