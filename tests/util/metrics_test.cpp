#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "metrics/exporters.h"
#include "util/rng.h"

namespace lcaknap::metrics {
namespace {

TEST(Counter, ConcurrentIncrementsAreExact) {
  Registry registry;
  Counter& counter = registry.counter("test_total", "concurrency probe");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.counter_value("test_total"), counter.value());
}

TEST(Registry, SameNameAndLabelsReturnsSameInstrument) {
  Registry registry;
  Counter& a = registry.counter("x_total", "help");
  Counter& b = registry.counter("x_total", "help");
  EXPECT_EQ(&a, &b);
  // Label order must not matter.
  Counter& l1 = registry.counter("y_total", "help", {{"a", "1"}, {"b", "2"}});
  Counter& l2 = registry.counter("y_total", "help", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&l1, &l2);
  Counter& other = registry.counter("y_total", "help", {{"a", "2"}, {"b", "2"}});
  EXPECT_NE(&l1, &other);
}

TEST(Registry, KindMismatchThrows) {
  Registry registry;
  (void)registry.counter("dual_use", "as counter");
  EXPECT_THROW((void)registry.gauge("dual_use", "as gauge"), std::invalid_argument);
  EXPECT_THROW(
      (void)registry.histogram("dual_use", "as histogram", {1.0, 2.0}),
      std::invalid_argument);
}

TEST(Registry, CounterValueOfUnknownNameIsZero) {
  Registry registry;
  EXPECT_EQ(registry.counter_value("never_registered_total"), 0u);
}

TEST(Gauge, SetAndConcurrentAddAreExact) {
  Registry registry;
  Gauge& gauge = registry.gauge("test_gauge", "probe");
  gauge.set(10.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 10.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 10.0 + kThreads * kPerThread);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketAssignmentAndTotals) {
  Histogram hist({10.0, 20.0, 30.0});
  hist.observe(5.0);    // -> le=10
  hist.observe(10.0);   // boundary counts into le=10 (cumulative semantics)
  hist.observe(15.0);   // -> le=20
  hist.observe(100.0);  // -> +Inf
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 130.0);
}

TEST(Histogram, PercentilesMatchKnownUniformDistribution) {
  // 10000 observations uniform on (0, 1000) into 100 linear buckets: the
  // interpolated percentile must sit within one bucket width of the truth.
  Histogram hist(Histogram::linear_buckets(10.0, 10.0, 100));
  util::Xoshiro256 rng(99);
  constexpr int kSamples = 10'000;
  for (int i = 0; i < kSamples; ++i) hist.observe(rng.next_double() * 1000.0);
  EXPECT_NEAR(hist.percentile(0.50), 500.0, 15.0);
  EXPECT_NEAR(hist.percentile(0.95), 950.0, 15.0);
  EXPECT_NEAR(hist.percentile(0.99), 990.0, 15.0);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kSamples));
}

TEST(Histogram, PercentileOnPointMassInterpolatesWithinOneBucket) {
  Histogram hist({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) hist.observe(25.0);
  // Everything is in the (20, 30] bucket; any percentile must land there.
  EXPECT_GE(hist.percentile(0.50), 20.0);
  EXPECT_LE(hist.percentile(0.50), 30.0);
  EXPECT_GE(hist.percentile(0.99), 20.0);
  EXPECT_LE(hist.percentile(0.99), 30.0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram hist({1.0, 2.0});
  EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.0);
}

TEST(Histogram, ConcurrentObservationsAreExact) {
  Histogram hist(Histogram::exponential_buckets(1.0, 2.0, 10));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) hist.observe(rng.next_double() * 600.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(ScopedTimer, ObservesElapsedOnDestruction) {
  Histogram hist(Histogram::exponential_buckets(0.1, 4.0, 12));
  {
    const ScopedTimer span(hist);
  }
  EXPECT_EQ(hist.count(), 1u);
  {
    ScopedTimer span(hist);
    span.cancel();
  }
  EXPECT_EQ(hist.count(), 1u);  // cancelled span records nothing
}

TEST(Exporters, PrometheusExpositionIsWellFormed) {
  Registry registry;
  registry.counter("requests_total", "total requests").inc(7);
  registry.counter("shard_total", "per-shard", {{"shard", "0"}}).inc(2);
  registry.gauge("temperature", "degrees").set(21.5);
  Histogram& hist = registry.histogram("latency_us", "latency", {10.0, 100.0});
  hist.observe(5.0);
  hist.observe(50.0);
  hist.observe(500.0);

  std::ostringstream os;
  write_registry(registry, ExportFormat::kPrometheus, os);
  const std::string out = os.str();

  EXPECT_NE(out.find("# HELP requests_total total requests\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(out.find("requests_total 7\n"), std::string::npos);
  EXPECT_NE(out.find("shard_total{shard=\"0\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE temperature gauge\n"), std::string::npos);
  EXPECT_NE(out.find("temperature 21.5\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE latency_us histogram\n"), std::string::npos);
  // Buckets are cumulative and end in +Inf == count.
  EXPECT_NE(out.find("latency_us_bucket{le=\"10\"} 1\n"), std::string::npos);
  EXPECT_NE(out.find("latency_us_bucket{le=\"100\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("latency_us_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(out.find("latency_us_sum 555\n"), std::string::npos);
  EXPECT_NE(out.find("latency_us_count 3\n"), std::string::npos);

  // Every non-comment line is `name{labels} value` with a parseable value.
  std::istringstream lines(out);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line.rfind("# ", 0) == 0) continue;
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value in: " << line;
  }
}

TEST(Exporters, PrometheusExportFollowsRegistrationOrder) {
  // Export order is defined by registration order (`families_`), not by the
  // name-lookup table — this pins it so the `by_name_` container can change
  // (ordered map -> hash map) without reordering operator-facing output.
  Registry registry;
  const std::vector<std::string> names{"zulu_total", "alpha_total",
                                       "mike_total", "bravo_total"};
  for (const auto& name : names) registry.counter(name, "help " + name).inc();
  // Re-registering must not move a family to the back.
  registry.counter("zulu_total", "help zulu_total").inc();

  std::ostringstream os;
  write_registry(registry, ExportFormat::kPrometheus, os);
  const std::string out = os.str();
  std::size_t previous = 0;
  for (const auto& name : names) {
    const auto pos = out.find("# HELP " + name);
    ASSERT_NE(pos, std::string::npos) << name;
    EXPECT_GE(pos, previous) << name << " exported out of registration order";
    previous = pos;
  }
}

TEST(Exporters, JsonLinesAreOneObjectPerInstrument) {
  Registry registry;
  registry.counter("requests_total", "total").inc(3);
  registry.gauge("level", "g").set(0.25);
  registry.histogram("lat", "h", {1.0}).observe(0.5);

  std::ostringstream os;
  write_registry(registry, ExportFormat::kJson, os);
  const std::string out = os.str();

  EXPECT_NE(
      out.find("{\"name\":\"requests_total\",\"type\":\"counter\",\"labels\":{},"
               "\"value\":3}\n"),
      std::string::npos);
  EXPECT_NE(out.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(out.find("\"buckets\":[{\"le\":1,\"count\":1},{\"le\":\"+Inf\","
                     "\"count\":0}]"),
            std::string::npos);
  // Exactly one line per instrument.
  std::size_t lines = 0;
  for (const char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u);
}

TEST(Exporters, ParseFormatNames) {
  EXPECT_EQ(parse_export_format("prom"), ExportFormat::kPrometheus);
  EXPECT_EQ(parse_export_format("prometheus"), ExportFormat::kPrometheus);
  EXPECT_EQ(parse_export_format("json"), ExportFormat::kJson);
  EXPECT_EQ(parse_export_format("jsonl"), ExportFormat::kJson);
  EXPECT_THROW((void)parse_export_format("xml"), std::invalid_argument);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  Registry registry;
  registry.counter("esc_total", "h", {{"path", "a\"b\\c\nd"}}).inc(1);
  std::ostringstream os;
  write_registry(registry, ExportFormat::kPrometheus, os);
  EXPECT_NE(os.str().find("esc_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(GlobalRegistry, IsASingleton) {
  EXPECT_EQ(&global_registry(), &global_registry());
}

}  // namespace
}  // namespace lcaknap::metrics
