#ifndef LCAKNAP_PERFBENCH_PROBE_ACCESS_H
#define LCAKNAP_PERFBENCH_PROBE_ACCESS_H

#include <atomic>
#include <cstdint>

#include "oracle/access.h"

/// \file probe_access.h
/// The benchmark's own oracle decorator.  The traced run wraps the serving
/// stack's oracle at its top (what `LcaKp` calls) and at its bottom (right
/// above `MaterializedAccess`), and reads the probe counts from here instead
/// of any library counter.  Equal top and bottom counts are the oracle
/// stack's conservation law: every probe the algorithm makes reaches storage
/// exactly once.

namespace lcaknap::perfbench {

class ProbeAccess final : public oracle::InstanceAccess {
 public:
  /// `inner` must outlive the probe.
  explicit ProbeAccess(const oracle::InstanceAccess& inner) : inner_(&inner) {}

  [[nodiscard]] std::size_t size() const noexcept override {
    return inner_->size();
  }
  [[nodiscard]] std::int64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  [[nodiscard]] std::int64_t total_profit() const noexcept override {
    return inner_->total_profit();
  }
  [[nodiscard]] std::int64_t total_weight() const noexcept override {
    return inner_->total_weight();
  }

  /// Counting off makes the probe a plain forwarding hop (one branch), so
  /// the traced run can measure its untraced reference on the same stack.
  void set_counting(bool on) noexcept {
    counting_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t probes() const noexcept {
    return probes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t draws() const noexcept {
    return draws_.load(std::memory_order_relaxed);
  }

 protected:
  [[nodiscard]] knapsack::Item do_query(std::size_t i) const override {
    if (counting_.load(std::memory_order_relaxed)) {
      probes_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->query(i);
  }
  [[nodiscard]] oracle::WeightedDraw do_sample(
      util::Xoshiro256& rng) const override {
    if (counting_.load(std::memory_order_relaxed)) {
      draws_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_->weighted_sample(rng);
  }

 private:
  const oracle::InstanceAccess* inner_;
  std::atomic<bool> counting_{true};
  mutable std::atomic<std::uint64_t> probes_{0};
  mutable std::atomic<std::uint64_t> draws_{0};
};

}  // namespace lcaknap::perfbench

#endif  // LCAKNAP_PERFBENCH_PROBE_ACCESS_H
