#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <vector>

#include "core/lca_kp.h"
#include "fault/chaos.h"
#include "knapsack/generators.h"
#include "metrics/metrics.h"
#include "oracle/access.h"
#include "serve/engine.h"
#include "util/virtual_clock.h"

/// \file test_engine_batch.cpp
/// The engine's answer semantics inside multi-request dispatch groups.  Every
/// request reaches `execute_batch`, one group per dispatch; these tests submit
/// whole bursts asynchronously so groups hold many requests, and check that
/// each request is still answered on its own terms: the same answer as a
/// lone request, its own deadline, its own error, its own degraded fallback.

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
    lca_ = new core::LcaKp(*access_, lca_config());
  }
  static void TearDownTestSuite() {
    delete lca_;
    delete access_;
    delete instance_;
    lca_ = nullptr;
    access_ = nullptr;
    instance_ = nullptr;
  }

  static core::LcaKpConfig lca_config() {
    core::LcaKpConfig config;
    config.eps = 0.2;
    config.seed = 0x5E;
    config.quantile_samples = 20'000;
    return config;
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

  static void expect_conserved(const EngineStats& stats) {
    EXPECT_EQ(stats.submitted, stats.ok + stats.overloaded +
                                   stats.deadline_exceeded + stats.degraded +
                                   stats.errors);
  }

  static const knapsack::Instance* instance_;
  static const oracle::MaterializedAccess* access_;
  static const core::LcaKp* lca_;
};

const knapsack::Instance* EngineBatchEval::instance_ = nullptr;
const oracle::MaterializedAccess* EngineBatchEval::access_ = nullptr;
const core::LcaKp* EngineBatchEval::lca_ = nullptr;

TEST_F(EngineBatchEval, BatchPathMatchesPerRequestPath) {
  // One engine takes a 600-request burst (many-request groups); the other
  // answers the same items one at a time (singleton groups).  Answers must
  // agree with each other and with direct evaluation (Lemma 4.9).
  metrics::Registry reg_burst, reg_single;
  ServeEngine burst(*lca_, fast_config(), reg_burst);
  ServeEngine single(*lca_, fast_config(), reg_single);

  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 600; ++q) futures.push_back(burst.submit(q % 400));
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto from_burst = futures[q].get();
    const auto from_single = single.submit_wait(q % 400);
    ASSERT_EQ(from_burst.outcome, Outcome::kOk);
    ASSERT_EQ(from_single.outcome, Outcome::kOk);
    EXPECT_EQ(from_burst.answer, from_single.answer) << "query " << q;
    EXPECT_EQ(from_burst.answer, lca_->answer_from(burst.run(), q % 400));
  }
  burst.drain();
  single.drain();

  const auto stats = burst.stats();
  EXPECT_EQ(stats.ok, 600u);
  EXPECT_EQ(stats.batched_requests, 600u);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LE(stats.batches, stats.batched_requests);
  expect_conserved(stats);
}

TEST_F(EngineBatchEval, ParanoiaRecheckRunsOnBatchPathWithoutViolations) {
  metrics::Registry registry;
  auto config = fast_config();
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
  // Definition 2.3: re-evaluating a hit inside a group can never disagree
  // with the cache entry, so paranoia mode stays quiet.
  EXPECT_EQ(stats.paranoia_violations, 0u);
}

TEST_F(EngineBatchEval, ExpiredDeadlinesAreShedOnTheBatchPath) {
  // Expired and live requests interleaved in one burst: only the expired
  // ones are shed, and the live ones in the same groups are still answered.
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 200; ++q) {
    futures.push_back(q % 4 == 0 ? engine.submit(q, 0us)
                                 : engine.submit(q, 60s));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto response = futures[q].get();
    if (q % 4 == 0) {
      EXPECT_EQ(response.outcome, Outcome::kDeadlineExceeded) << "query " << q;
    } else {
      ASSERT_EQ(response.outcome, Outcome::kOk) << "query " << q;
      EXPECT_EQ(response.answer, lca_->answer_from(engine.run(), q));
    }
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.deadline_exceeded, 50u);
  EXPECT_EQ(stats.ok, 150u);
  expect_conserved(stats);
}

TEST_F(EngineBatchEval, OutOfRangeItemYieldsErrorNotCrash) {
  // A failing evaluation inside a group fails only its own request.
  metrics::Registry registry;
  ServeEngine engine(*lca_, fast_config(), registry);
  const std::size_t bad = instance_->size() + 10;
  std::vector<std::future<Response>> futures;
  for (std::size_t q = 0; q < 100; ++q) {
    futures.push_back(engine.submit(q == 50 ? bad : q));
  }
  for (std::size_t q = 0; q < futures.size(); ++q) {
    const auto response = futures[q].get();
    if (q == 50) {
      EXPECT_EQ(response.outcome, Outcome::kError);
    } else {
      ASSERT_EQ(response.outcome, Outcome::kOk) << "query " << q;
      EXPECT_EQ(response.answer, lca_->answer_from(engine.run(), q));
    }
  }
  // The engine stays healthy afterwards.
  EXPECT_EQ(engine.submit_wait(0).outcome, Outcome::kOk);
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.errors, 1u);
  expect_conserved(stats);
}

TEST_F(EngineBatchEval, DegradedModeAnswersThroughAnOutage) {
  metrics::Registry registry;
  auto config = fast_config();
  config.degrade = true;
  // A dead oracle behind a burst: every miss in every group must take the
  // documented degraded fallback, not an error.
  util::VirtualClock clock;
  fault::FaultPhase down;
  down.label = "down";
  down.duration_us = 0;  // hold forever
  down.fail_rate = 1.0;
  fault::ChaosAccess chaos(*shared_access(),
                           fault::FaultPlan({down}, /*seed=*/0xD0A), clock,
                           /*armed=*/false, registry);
  const core::LcaKp chaotic_lca(chaos, lca_config());
  ServeEngine engine(chaotic_lca, config, registry);
  chaos.arm();

  std::vector<std::future<Response>> futures;
  for (std::size_t item = 100; item < 140; ++item) {
    futures.push_back(engine.submit(item));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::size_t item = 100 + i;
    const auto response = futures[i].get();
    ASSERT_EQ(response.outcome, Outcome::kDegraded) << "item " << item;
    EXPECT_EQ(response.answer, engine.run().index_large.contains(item));
  }
  // Degraded answers were not cached: recovery restores full LCA quality.
  chaos.disarm();
  futures.clear();
  for (std::size_t item = 100; item < 140; ++item) {
    futures.push_back(engine.submit(item));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::size_t item = 100 + i;
    const auto response = futures[i].get();
    ASSERT_EQ(response.outcome, Outcome::kOk) << "item " << item;
    EXPECT_EQ(response.answer, chaotic_lca.answer_from(engine.run(), item));
  }
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.degraded, 40u);
  expect_conserved(stats);
}

}  // namespace
}  // namespace lcaknap::serve
