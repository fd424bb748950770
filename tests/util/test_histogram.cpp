#include "util/histogram.h"

#include <gtest/gtest.h>

#include <sstream>

namespace lcaknap::util {
namespace {

TEST(Histogram, ValidatesArguments) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BinsObservationsCorrectly) {
  Histogram h(0.0, 1.0, 4);
  for (const double x : {0.1, 0.3, 0.35, 0.6, 0.9}) h.add(x);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(3), 1u);
}

TEST(Histogram, ClampsOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.add(-5.0);
  h.add(7.0);
  h.add(1.0);  // exactly hi clamps into the top bin
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 2u);
}

TEST(Histogram, BinRanges) {
  const Histogram h(0.0, 2.0, 4);
  const auto [lo, hi] = h.bin_range(1);
  EXPECT_DOUBLE_EQ(lo, 0.5);
  EXPECT_DOUBLE_EQ(hi, 1.0);
  EXPECT_THROW((void)h.bin_range(4), std::out_of_range);
}

TEST(Histogram, AddAllAndPrint) {
  Histogram h(0.0, 10.0, 5);
  const std::vector<double> xs{1.0, 1.5, 3.0, 9.0, 9.5, 9.9};
  h.add_all(xs);
  std::ostringstream oss;
  h.print(oss, "demo");
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find('#'), std::string::npos);
  EXPECT_EQ(h.count(), xs.size());
}

}  // namespace
}  // namespace lcaknap::util
