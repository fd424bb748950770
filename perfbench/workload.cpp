#include "workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.h"

namespace lcaknap::perfbench {

namespace {

constexpr std::size_t kHotItems = 64;
constexpr double kHotShare = 0.9;
constexpr double kZipfS = 1.1;
constexpr std::int64_t kMaxValue = 10'000;  // the generator's value bound

std::uint64_t mix(std::uint64_t seed, std::uint64_t label) {
  std::uint64_t state = seed ^ (label * 0x9E37'79B9'7F4A'7C15ull);
  return util::splitmix64(state);
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "serial_hot") {
    spec.n = 200'000;
    spec.log_rate_qps = 10'000.0;
    spec.mix = ItemMix::kHot;
    spec.setup = SetupPath::kRestart;
  } else if (name == "pipelined_cold") {
    spec.n = 1'000'000;
    spec.connections = 2;
    spec.window = 32;
    spec.log_rate_qps = 100'000.0;
    spec.mix = ItemMix::kUniform;
    spec.setup = SetupPath::kLiveWarmup;
    spec.certify = true;
  } else if (name == "open_churn") {
    spec.n = 200'000;
    spec.rate_qps = 5'000.0;
    spec.mix = ItemMix::kZipf;
    spec.setup = SetupPath::kEpoched;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

Seeds derive_seeds(std::uint64_t seed) {
  return {mix(seed, 1), mix(seed, 2), mix(seed, 3), mix(seed, 4), mix(seed, 5)};
}

ItemStreams::ItemStreams(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  util::Xoshiro256 rng(mix(seed, 100));
  if (spec.mix == ItemMix::kHot) {
    std::vector<std::uint64_t> hot;
    std::unordered_set<std::uint64_t> seen;
    while (hot.size() < kHotItems) {
      const auto item = rng.next_below(spec.n);
      if (seen.insert(item).second) hot.push_back(item);
    }
    hot_ = std::make_shared<const std::vector<std::uint64_t>>(std::move(hot));
  } else if (spec.mix == ItemMix::kZipf) {
    // Rank r (1-based) has weight r^-s; ranks map to items through a seeded
    // Fisher-Yates permutation, so the hot set is spread over the instance.
    std::vector<double> cdf(spec.n);
    double total = 0.0;
    for (std::size_t r = 0; r < spec.n; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfS);
      cdf[r] = total;
    }
    for (auto& c : cdf) c /= total;
    std::vector<std::uint64_t> items(spec.n);
    for (std::size_t i = 0; i < spec.n; ++i) items[i] = i;
    for (std::size_t i = spec.n - 1; i > 0; --i) {
      std::swap(items[i], items[rng.next_below(i + 1)]);
    }
    zipf_cdf_ = std::make_shared<const std::vector<double>>(std::move(cdf));
    zipf_items_ =
        std::make_shared<const std::vector<std::uint64_t>>(std::move(items));
  }
}

std::function<std::uint64_t()> ItemStreams::stream(std::size_t c) const {
  auto rng = std::make_shared<util::Xoshiro256>(mix(seed_, 200 + c));
  const std::uint64_t n = spec_.n;
  switch (spec_.mix) {
    case ItemMix::kHot:
      return [rng, n, hot = hot_] {
        if (rng->next_double() < kHotShare) {
          return (*hot)[rng->next_below(hot->size())];
        }
        return rng->next_below(n);
      };
    case ItemMix::kUniform:
      return [rng, n] { return rng->next_below(n); };
    case ItemMix::kZipf:
      return [rng, cdf = zipf_cdf_, items = zipf_items_] {
        const double u = rng->next_double();
        const auto rank = static_cast<std::size_t>(
            std::lower_bound(cdf->begin(), cdf->end(), u) - cdf->begin());
        return (*items)[std::min(rank, items->size() - 1)];
      };
  }
  throw std::logic_error("unreachable item mix");
}

std::vector<dyn::UpdateBatch> update_script(std::size_t base_n,
                                            std::size_t count,
                                            std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<dyn::UpdateBatch> script;
  for (std::size_t b = 0; b < count; ++b) {
    dyn::UpdateBatch batch;
    batch.epoch_id = b + 1;
    const bool rewarm = b % kRewarmEvery == kRewarmEvery - 1;
    for (std::size_t m = 0; m < kBatchMutations; ++m) {
      dyn::Mutation mutation;
      if (rewarm && m % 2 == 0) {
        mutation.kind = dyn::MutationKind::kInsert;
        mutation.profit = rng.next_in(1, kMaxValue);
        mutation.weight = rng.next_in(1, kMaxValue);
      } else if (rewarm) {
        mutation.kind = dyn::MutationKind::kProfitUpdate;
        mutation.index = rng.next_below(base_n);
        mutation.profit = rng.next_in(1, kMaxValue);
      } else {
        mutation.kind = dyn::MutationKind::kWeightUpdate;
        mutation.index = rng.next_below(base_n);
        mutation.weight = rng.next_in(1, kMaxValue);
      }
      batch.mutations.push_back(mutation);
    }
    script.push_back(std::move(batch));
  }
  return script;
}

}  // namespace lcaknap::perfbench
