#ifndef LCAKNAP_PERFBENCH_WORKLOAD_H
#define LCAKNAP_PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dyn/update.h"

/// \file workload.h
/// The three workloads and everything they generate from `--seed`: the
/// instance seed, the shared and tape seeds, each connection's item stream,
/// and the update script.  The program under test only ever sees the frames
/// and batches built from these.

namespace lcaknap::perfbench {

enum class ItemMix {
  kHot,      ///< 90% to 64 hot items, the rest uniform
  kUniform,  ///< uniform over all n items
  kZipf,     ///< Zipf s = 1.1 over a seeded permutation of the items
};

enum class SetupPath {
  kRestart,     ///< StateStore hydrates a snapshot written before timing
  kLiveWarmup,  ///< StateStore warms live into an empty dir and persists
  kEpoched,     ///< dyn::EpochedState plus a memory-only StateStore
};

struct WorkloadSpec {
  std::string name;
  std::size_t n = 0;
  std::size_t connections = 1;
  std::size_t window = 1;
  /// Open-loop offered rate on one connection; 0 = closed loop.
  double rate_qps = 0.0;
  /// Closed loop: requests per second per connection the generator's logs
  /// are sized for before the window (see LoadPlan::log_rate_qps).
  double log_rate_qps = 0.0;
  ItemMix mix = ItemMix::kUniform;
  SetupPath setup = SetupPath::kRestart;
  bool certify = false;

  /// Epoch advances run while the load runs only where the workload serves
  /// an `EpochedState`; elsewhere they run after it, on an idle server, so
  /// that `advance_p50_ms` is measured on every workload.
  [[nodiscard]] bool live_updates() const { return setup == SetupPath::kEpoched; }
};

/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name);

/// Every seed one run derives from `--seed`.
struct Seeds {
  std::uint64_t instance = 0;
  std::uint64_t shared = 0;  ///< LcaKpConfig::seed
  std::uint64_t tape = 0;    ///< warm-up tape
  std::uint64_t streams = 0;  ///< hot set, Zipf permutation, item streams
  std::uint64_t updates = 0;
};
[[nodiscard]] Seeds derive_seeds(std::uint64_t seed);

/// Item streams for one workload: `stream(c)` is connection c's sequence;
/// the same (spec, seed, c) always yields the same sequence.  Copies of one
/// returned stream share its position.
class ItemStreams {
 public:
  /// `seed` is `Seeds::streams`.
  ItemStreams(const WorkloadSpec& spec, std::uint64_t seed);
  [[nodiscard]] std::function<std::uint64_t()> stream(std::size_t c) const;

 private:
  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::shared_ptr<const std::vector<std::uint64_t>> hot_;
  std::shared_ptr<const std::vector<double>> zipf_cdf_;
  std::shared_ptr<const std::vector<std::uint64_t>> zipf_items_;
};

/// Mutations per update batch (0.1% of n for the 200k-item workloads).
inline constexpr std::size_t kBatchMutations = 200;
/// Every kRewarmEvery-th batch carries inserts and profit changes (full
/// re-warm-up); the others are weight-only (delta path).
inline constexpr std::size_t kRewarmEvery = 4;

/// The fixed update script: `count` batches for epochs 1..count over an
/// instance of `base_n` items.  Mutations only target the base items.
[[nodiscard]] std::vector<dyn::UpdateBatch> update_script(std::size_t base_n,
                                                          std::size_t count,
                                                          std::uint64_t seed);

}  // namespace lcaknap::perfbench

#endif  // LCAKNAP_PERFBENCH_WORKLOAD_H
