#ifndef LCAKNAP_TOOLS_CLI_FLAGS_H
#define LCAKNAP_TOOLS_CLI_FLAGS_H

#include <algorithm>
#include <string_view>

/// \file cli_flags.h
/// The flags `lcaknap_cli` accepts, written without the leading `--`.  The
/// parser rejects any flag not listed here, and the CLI tests check that
/// the usage text names every one of them.

namespace lcaknap::cli {

inline constexpr std::string_view kKnownFlags[] = {
    "all", "allow-shutdown", "backoff-max-us", "backoff-us", "batch-max",
    "breaker", "cache-cap", "cache-shards", "cert-dir", "cert-segment-records",
    "certify", "chaos-plan", "chaos-seed", "chaos-tenant", "conn-inflight",
    "deadline-us", "degrade", "eps", "family", "flaky", "flaky-seed",
    "hot-frac", "hot-items", "in", "instance-id", "items", "listen", "log",
    "max-conns", "method", "metrics", "n", "out", "paranoia-every", "queries",
    "queue-cap", "replica-id", "replicas", "retries", "retry-attempts",
    "retry-budget", "sample", "seed", "shape", "snap", "snapshot-dir",
    "store-capacity", "tape", "tenant-inflight", "tenants",
    "update-interval-ms", "updates", "verify-epochs", "warmup-threads",
    "workers", "workload-seed", "zipf-s",
};

/// The known flags that take no value.
inline constexpr std::string_view kBooleanFlags[] = {
    "all", "allow-shutdown", "breaker", "certify", "degrade", "verify-epochs",
};

[[nodiscard]] inline bool is_known_flag(std::string_view flag) {
  return std::find(std::begin(kKnownFlags), std::end(kKnownFlags), flag) !=
         std::end(kKnownFlags);
}

[[nodiscard]] inline bool is_boolean_flag(std::string_view flag) {
  return std::find(std::begin(kBooleanFlags), std::end(kBooleanFlags), flag) !=
         std::end(kBooleanFlags);
}

}  // namespace lcaknap::cli

#endif  // LCAKNAP_TOOLS_CLI_FLAGS_H
