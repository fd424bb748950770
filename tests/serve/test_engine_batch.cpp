#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include "core/batch_eval.h"
#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/virtual_clock.h"

/// \file test_engine_batch.cpp
/// The engine's vectorized batch answer path (`EngineConfig::batch_eval`):
/// answers, witnesses, counters, and failure semantics must be byte-identical
/// to the per-request `execute_batch` path — the batch engine is a locality
/// optimization, never a semantic fork.

namespace lcaknap::serve {
namespace {

using namespace std::chrono_literals;

class EngineBatchEval : public ::testing::Test {
 public:
  static const oracle::MaterializedAccess* shared_access() { return access_; }

 protected:
  static void SetUpTestSuite() {
    instance_ = new knapsack::Instance(
        knapsack::make_family(knapsack::Family::kNeedle, 2'000, 17));
    access_ = new oracle::MaterializedAccess(*instance_);
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    lca_ = new core::LcaKp(*access_, config);
  }
  static void TearDownTestSuite() {
    delete lca_;
    delete access_;
    delete instance_;
    lca_ = nullptr;
    access_ = nullptr;
    instance_ = nullptr;
  }

  static EngineConfig fast_config() {
    EngineConfig config;
    config.workers = 3;
    config.queue_capacity = 4'096;
    config.batcher.max_batch_size = 16;
    config.cache.capacity = 1'024;
    config.cache.shards = 4;
    return config;
  }

  /// Reads the `batch_eval_kernel` gauge (NaN when never registered).
  static double kernel_gauge(metrics::Registry& registry) {
    const auto snapshot = registry.snapshot();
    for (const auto& gauge : snapshot.gauges) {
      if (gauge.name == "batch_eval_kernel") return gauge.value;
    }
    return std::numeric_limits<double>::quiet_NaN();
  }

  /// Observation count of the `serve_batch_eval_us` histogram (0 if absent).
  static std::uint64_t batch_eval_observations(metrics::Registry& registry) {
    const auto snapshot = registry.snapshot();
    for (const auto& hist : snapshot.histograms) {
      if (hist.name == "serve_batch_eval_us") return hist.count;
    }
    return 0;
  }

  static const knapsack::Instance* instance_;
  static const oracle::MaterializedAccess* access_;
  static const core::LcaKp* lca_;
};

const knapsack::Instance* EngineBatchEval::instance_ = nullptr;
const oracle::MaterializedAccess* EngineBatchEval::access_ = nullptr;
const core::LcaKp* EngineBatchEval::lca_ = nullptr;

TEST_F(EngineBatchEval, BatchPathMatchesPerRequestPath) {
  metrics::Registry reg_batch, reg_single;
  auto batch_config = fast_config();
  batch_config.batch_eval = true;
  auto single_config = fast_config();
  single_config.batch_eval = false;
  ServeEngine batched(*lca_, batch_config, reg_batch);
  ServeEngine single(*lca_, single_config, reg_single);

  std::vector<std::future<Response>> batch_futures, single_futures;
  for (std::size_t item = 0; item < 600; ++item) {
    batch_futures.push_back(batched.submit(item % 400));
    single_futures.push_back(single.submit(item % 400));
  }
  for (std::size_t q = 0; q < batch_futures.size(); ++q) {
    const auto from_batch = batch_futures[q].get();
    const auto from_single = single_futures[q].get();
    ASSERT_EQ(from_batch.outcome, Outcome::kOk);
    ASSERT_EQ(from_single.outcome, Outcome::kOk);
    EXPECT_EQ(from_batch.answer, from_single.answer) << "query " << q;
    EXPECT_EQ(from_batch.answer, lca_->answer_from(batched.run(), q % 400));
  }
  batched.drain();
  single.drain();

  const auto batch_stats = batched.stats();
  EXPECT_GT(batch_stats.batch_eval_groups, 0u);
  EXPECT_EQ(single.stats().batch_eval_groups, 0u);
  EXPECT_EQ(batch_stats.submitted,
            batch_stats.ok + batch_stats.overloaded +
                batch_stats.deadline_exceeded + batch_stats.degraded +
                batch_stats.errors);
  // The histogram sees one observation per dispatch group that evaluated.
  EXPECT_GT(batch_eval_observations(reg_batch), 0u);
  EXPECT_EQ(batch_eval_observations(reg_single), 0u);
}

TEST_F(EngineBatchEval, KernelGaugeReflectsTheActivePath) {
  metrics::Registry reg_on, reg_off;
  auto on = fast_config();
  on.batch_eval = true;
  auto off = fast_config();
  off.batch_eval = false;
  ServeEngine engine_on(*lca_, on, reg_on);
  ServeEngine engine_off(*lca_, off, reg_off);
  // The engine starts on the best kernel the build + CPU offer; the gauge
  // exports the same enum value the accessor reports.
  EXPECT_EQ(engine_on.batch_kernel(), core::BatchEval::best_kernel());
  EXPECT_EQ(kernel_gauge(reg_on),
            static_cast<double>(static_cast<int>(engine_on.batch_kernel())));
  // Disabled path: accessor falls back to kScalar, gauge exports -1.
  EXPECT_EQ(engine_off.batch_kernel(), core::BatchKernel::kScalar);
  EXPECT_EQ(kernel_gauge(reg_off), -1.0);
}

TEST_F(EngineBatchEval, CacheCountersMatchPerRequestPath) {
  metrics::Registry reg_batch, reg_single;
  auto batch_config = fast_config();
  batch_config.batch_eval = true;
  auto single_config = fast_config();
  single_config.batch_eval = false;
  ServeEngine batched(*lca_, batch_config, reg_batch);
  ServeEngine single(*lca_, single_config, reg_single);
  // Sequential identical traffic: every engine-visible cache counter must
  // agree between the two paths (hits, misses, and by implication puts).
  for (std::size_t q = 0; q < 900; ++q) {
    const std::size_t item = (q * 13) % 120;
    ASSERT_EQ(batched.submit_wait(item).outcome, Outcome::kOk);
    ASSERT_EQ(single.submit_wait(item).outcome, Outcome::kOk);
  }
  batched.drain();
  single.drain();
  const auto batch_stats = batched.stats();
  const auto single_stats = single.stats();
  EXPECT_EQ(batch_stats.cache_hits + batch_stats.cache_misses, 900u);
  EXPECT_EQ(batch_stats.cache_hits, single_stats.cache_hits);
  EXPECT_EQ(batch_stats.cache_misses, single_stats.cache_misses);
  EXPECT_EQ(batch_stats.cache_evictions, single_stats.cache_evictions);
}

TEST_F(EngineBatchEval, ParanoiaRecheckRunsOnBatchPathWithoutViolations) {
  metrics::Registry registry;
  auto config = fast_config();
  config.batch_eval = true;
  config.cache.paranoia_every = 1;  // recheck every hit
  ServeEngine engine(*lca_, config, registry);
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 400; ++q) {
    futures.push_back(engine.submit(q % 8));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().outcome, Outcome::kOk);
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_GT(stats.paranoia_checks, 0u);
  // Definition 2.3: the scalar recheck can never disagree with a cache entry
  // the batch kernels produced — byte-equality makes paranoia mode quiet.
  EXPECT_EQ(stats.paranoia_violations, 0u);
}

TEST_F(EngineBatchEval, CertificatesFlowFromBatchWitnesses) {
  const auto cert_dir =
      std::filesystem::temp_directory_path() / "lcaknap_batch_cert";
  std::filesystem::remove_all(cert_dir);
  std::filesystem::create_directories(cert_dir);
  metrics::Registry registry;
  auto config = fast_config();
  config.batch_eval = true;
  config.certify = true;
  config.cert_dir = cert_dir.string();
  {
    ServeEngine engine(*lca_, config, registry);
    for (std::size_t item = 0; item < 200; ++item) {
      ASSERT_EQ(engine.submit_wait(item).outcome, Outcome::kOk);
    }
    engine.drain();
    const auto stats = engine.stats();
    // Every kOk answer carried a witness — nothing skipped certification.
    EXPECT_EQ(stats.cert_records, 200u);
    EXPECT_EQ(stats.cert_skipped, 0u);
  }
  std::filesystem::remove_all(cert_dir);
}

TEST_F(EngineBatchEval, ExpiredDeadlinesAreShedOnTheBatchPath) {
  metrics::Registry registry;
  auto config = fast_config();
  config.batch_eval = true;
  ServeEngine engine(*lca_, config, registry);
  const auto response = engine.submit(3, 0us).get();
  EXPECT_EQ(response.outcome, Outcome::kDeadlineExceeded);
  engine.drain();
  EXPECT_EQ(engine.stats().deadline_exceeded, 1u);
}

TEST_F(EngineBatchEval, OutOfRangeItemYieldsErrorNotCrash) {
  metrics::Registry registry;
  auto config = fast_config();
  config.batch_eval = true;
  ServeEngine engine(*lca_, config, registry);
  EXPECT_EQ(engine.submit_wait(instance_->size() + 10).outcome, Outcome::kError);
  EXPECT_EQ(engine.submit_wait(0).outcome, Outcome::kOk);
  engine.drain();
  EXPECT_EQ(engine.stats().errors, 1u);
}

TEST_F(EngineBatchEval, DegradedModeAnswersThroughAnOutage) {
  metrics::Registry registry;
  auto config = fast_config();
  config.batch_eval = true;
  config.degrade = true;
  // A dead oracle behind the batch path: per-lane fault isolation must turn
  // every miss into the documented degraded fallback, not an error.
  util::VirtualClock clock;
  fault::FaultPhase down;
  down.label = "down";
  down.duration_us = 0;  // hold forever
  down.fail_rate = 1.0;
  fault::ChaosAccess chaos(*shared_access(),
                           fault::FaultPlan({down}, /*seed=*/0xD0A), clock,
                           /*armed=*/false, registry);
  core::LcaKpConfig lca_config;
  lca_config.eps = 0.2;
  lca_config.seed = 0x5E;
  lca_config.quantile_samples = 20'000;
  const core::LcaKp chaotic_lca(chaos, lca_config);
  ServeEngine engine(chaotic_lca, config, registry);
  chaos.arm();

  for (std::size_t item = 100; item < 140; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kDegraded) << "item " << item;
    EXPECT_EQ(response.answer, engine.run().index_large.contains(item));
  }
  // Degraded answers were not cached: recovery restores full LCA quality.
  chaos.disarm();
  for (std::size_t item = 100; item < 140; ++item) {
    const auto response = engine.submit_wait(item);
    ASSERT_EQ(response.outcome, Outcome::kOk);
    EXPECT_EQ(response.answer, chaotic_lca.answer_from(engine.run(), item));
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.degraded, 40u);
  EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                 stats.deadline_exceeded + stats.degraded +
                                 stats.errors);
}

}  // namespace
}  // namespace lcaknap::serve
