#ifndef LCAKNAP_FAULT_PLAN_H
#define LCAKNAP_FAULT_PLAN_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

/// \file plan.h
/// Scripted fault plans.  A `FaultPlan` is a deterministic, seed-driven
/// script of phases — steady, burst outage, brownout latency ramp,
/// corruption window — that `ChaosAccess` (chaos.h) executes against a
/// wrapped oracle.  Each phase fixes three knobs for its duration:
///
///  * `fail_rate`     — fraction of calls that throw `OracleUnavailable`
///                      before touching the inner oracle (fail-stop);
///  * `latency range` — per-call injected latency, drawn uniformly in
///                      [latency_min_us, latency_max_us] and slept on the
///                      injected `util::Clock` (brownout);
///  * `corrupt_rate`  — fraction of answers returned wrong-but-well-formed
///                      (the corrupted-answer fault class of knapsack under
///                      explorable uncertainty, arXiv:2507.02657).
///
/// Phase position is a function of *elapsed clock time* since the plan was
/// armed, so the same plan means the same thing to a naive client and a
/// backing-off one (a call-count schedule would make the outage shorter for
/// whoever retries hardest).  Per-call decisions are a pure function of
/// (plan seed, call index) via `util::Prf`, so a replay over a
/// `VirtualClock` reproduces the identical fault sequence — the property
/// tests/fault/test_resilience_stack.cpp pins.

namespace lcaknap::fault {

/// One phase of a fault script.  All rates in [0, 1]; a phase with all-zero
/// knobs is a steady (fault-free) window.
struct FaultPhase {
  std::string label = "steady";
  /// Phase length in clock microseconds; 0 on the *last* phase means "hold
  /// forever" (0 elsewhere is rejected by validate()).
  std::uint64_t duration_us = 0;
  double fail_rate = 0.0;
  double corrupt_rate = 0.0;
  std::uint64_t latency_min_us = 0;
  std::uint64_t latency_max_us = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  /// Validates eagerly: throws std::invalid_argument on empty phase lists,
  /// rates outside [0, 1] (NaN included), inverted latency ranges, zero
  /// durations before the last phase, or an all-zero-duration cycling plan.
  FaultPlan(std::vector<FaultPhase> phases, std::uint64_t seed, bool cycle = false);

  /// Phase index active after `elapsed_us` of armed time.  Past the scripted
  /// end, a cycling plan wraps modulo its total duration; a non-cycling plan
  /// holds its last phase.
  [[nodiscard]] std::size_t phase_index_at(std::uint64_t elapsed_us) const noexcept;
  [[nodiscard]] const FaultPhase& phase_at(std::uint64_t elapsed_us) const noexcept {
    return phases_[phase_index_at(elapsed_us)];
  }

  [[nodiscard]] const std::vector<FaultPhase>& phases() const noexcept {
    return phases_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] bool cycles() const noexcept { return cycle_; }
  /// Sum of scripted durations (the final hold-forever phase contributes 0).
  [[nodiscard]] std::uint64_t total_duration_us() const noexcept { return total_us_; }

  /// One line per phase, for CLI echo and bench headers.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<FaultPhase> phases_;
  std::uint64_t seed_ = 0;
  bool cycle_ = false;
  std::uint64_t total_us_ = 0;
};

/// A one-phase plan that fail-stops a `fail_rate` fraction of calls and holds
/// forever: a plain flaky oracle (what `lcaknap_cli serve --flaky` runs).
[[nodiscard]] FaultPlan fail_stop_plan(double fail_rate, std::uint64_t seed);

/// Typed parse failure: carries the 1-based line/column where the offending
/// token starts and the token itself, so a mistyped plan in a CLI flag or a
/// chaos-drill script points at the exact spot instead of a bare reason.
/// Derives from std::invalid_argument, so callers that only care that the
/// spec was malformed keep working.
class FaultPlanParseError : public std::invalid_argument {
 public:
  FaultPlanParseError(std::string reason, std::size_t line, std::size_t column,
                      std::string token)
      : std::invalid_argument("fault plan:" + std::to_string(line) + ":" +
                              std::to_string(column) + ": " + reason + ": '" +
                              token + "'"),
        line_(line),
        column_(column),
        token_(std::move(token)) {}

  [[nodiscard]] std::size_t line() const noexcept { return line_; }
  [[nodiscard]] std::size_t column() const noexcept { return column_; }
  [[nodiscard]] const std::string& token() const noexcept { return token_; }

 private:
  std::size_t line_;
  std::size_t column_;
  std::string token_;
};

/// Parses the CLI plan grammar:
///
///   plan   := phase ((';' | '\n') phase)*
///   phase  := label ':' duration_ms [':' knob (',' knob)*]
///   knob   := 'fail=' RATE | 'corrupt=' RATE
///           | 'lat=' US | 'lat=' US '..' US
///
/// Durations are milliseconds (human scale); latencies are microseconds
/// (injection scale).  A trailing phase with duration 0 holds forever.
/// Example: "steady:200;outage:100:fail=1;brownout:150:fail=0.2,lat=100..400".
/// Multi-line scripts separate phases by newline; both separators nest the
/// same way.  Throws `FaultPlanParseError` (an std::invalid_argument with
/// line/column and the offending token) on malformed specs; semantic
/// violations (inverted ranges, zero mid-plan durations) throw plain
/// std::invalid_argument from the FaultPlan constructor.
[[nodiscard]] FaultPlan parse_fault_plan(const std::string& spec,
                                         std::uint64_t seed, bool cycle = false);

}  // namespace lcaknap::fault

#endif  // LCAKNAP_FAULT_PLAN_H
