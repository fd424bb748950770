#include "fault/plan.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace lcaknap::fault {

namespace {

bool valid_rate(double r) { return r >= 0.0 && r <= 1.0; }  // NaN fails both

}  // namespace

FaultPlan::FaultPlan(std::vector<FaultPhase> phases, std::uint64_t seed, bool cycle)
    : phases_(std::move(phases)), seed_(seed), cycle_(cycle) {
  if (phases_.empty()) {
    throw std::invalid_argument("FaultPlan: at least one phase required");
  }
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const auto& phase = phases_[i];
    if (!valid_rate(phase.fail_rate) || !valid_rate(phase.corrupt_rate)) {
      throw std::invalid_argument("FaultPlan: phase '" + phase.label +
                                  "' has a rate outside [0, 1]");
    }
    if (phase.latency_min_us > phase.latency_max_us) {
      throw std::invalid_argument("FaultPlan: phase '" + phase.label +
                                  "' has latency_min_us > latency_max_us");
    }
    if (phase.duration_us == 0 && i + 1 < phases_.size()) {
      throw std::invalid_argument(
          "FaultPlan: zero duration is only allowed on the last phase");
    }
    total_us_ += phase.duration_us;
  }
  if (cycle_ && total_us_ == 0) {
    throw std::invalid_argument("FaultPlan: a cycling plan needs positive duration");
  }
}

std::size_t FaultPlan::phase_index_at(std::uint64_t elapsed_us) const noexcept {
  if (cycle_) elapsed_us %= total_us_;
  std::uint64_t edge = 0;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    edge += phases_[i].duration_us;
    if (elapsed_us < edge) return i;
  }
  return phases_.size() - 1;  // past the script: hold the last phase
}

FaultPlan fail_stop_plan(double fail_rate, std::uint64_t seed) {
  FaultPhase phase;
  phase.label = "flaky";
  phase.fail_rate = fail_rate;
  return FaultPlan({phase}, seed);
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const auto& phase = phases_[i];
    if (i > 0) os << "; ";
    os << phase.label << " ";
    if (phase.duration_us == 0) {
      os << "(hold)";
    } else {
      os << phase.duration_us / 1000 << "ms";
    }
    if (phase.fail_rate > 0) os << " fail=" << phase.fail_rate;
    if (phase.corrupt_rate > 0) os << " corrupt=" << phase.corrupt_rate;
    if (phase.latency_max_us > 0) {
      os << " lat=" << phase.latency_min_us << ".." << phase.latency_max_us << "us";
    }
  }
  if (cycle_) os << " (cycling)";
  return os.str();
}

namespace {

/// Translates an absolute byte offset in the spec into the 1-based
/// line/column a FaultPlanParseError reports; multi-line scripts (phases
/// separated by '\n') make the line component meaningful.
[[noreturn]] void fail_at(const std::string& spec, std::size_t at,
                          const std::string& reason, std::string token) {
  std::size_t line = 1;
  std::size_t column = 1;
  for (std::size_t i = 0; i < at && i < spec.size(); ++i) {
    if (spec[i] == '\n') {
      ++line;
      column = 1;
    } else {
      ++column;
    }
  }
  throw FaultPlanParseError(reason, line, column, std::move(token));
}

std::uint64_t parse_u64(const std::string& spec, std::size_t at,
                        const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const auto value = std::stoull(text, &used);
    if (used != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    fail_at(spec, at, "bad " + what, text);
  }
}

double parse_rate(const std::string& spec, std::size_t at,
                  const std::string& text, const std::string& what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used != text.size() || !(value >= 0.0 && value <= 1.0)) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    fail_at(spec, at, "bad " + what, text);
  }
}

/// Parses one phase token; `base` is the token's absolute offset in the
/// spec, so every error points at the offending token, not just the phase.
FaultPhase parse_phase(const std::string& spec, std::size_t base,
                       const std::string& text) {
  // label ':' duration_ms [':' knob (',' knob)*]
  const auto first = text.find(':');
  if (first == std::string::npos || first == 0) {
    fail_at(spec, base, "phase needs 'label:duration_ms'", text);
  }
  FaultPhase phase;
  phase.label = text.substr(0, first);
  const auto second = text.find(':', first + 1);
  const auto duration_text = text.substr(
      first + 1, second == std::string::npos ? std::string::npos : second - first - 1);
  phase.duration_us =
      parse_u64(spec, base + first + 1, duration_text, "duration") * 1000;
  if (second == std::string::npos) return phase;

  std::size_t pos = second + 1;
  while (true) {
    const auto comma = text.find(',', pos);
    const bool last = comma == std::string::npos;
    const std::string knob =
        text.substr(pos, last ? std::string::npos : comma - pos);
    if (last && knob.empty()) break;  // a trailing ',' yields no knob
    const std::size_t knob_at = base + pos;
    const auto eq = knob.find('=');
    if (eq == std::string::npos) {
      fail_at(spec, knob_at, "knob needs 'key=value'", knob);
    }
    const auto key = knob.substr(0, eq);
    const auto value = knob.substr(eq + 1);
    const std::size_t value_at = knob_at + eq + 1;
    if (key == "fail") {
      phase.fail_rate = parse_rate(spec, value_at, value, "fail rate");
    } else if (key == "corrupt") {
      phase.corrupt_rate = parse_rate(spec, value_at, value, "corrupt rate");
    } else if (key == "lat") {
      const auto dots = value.find("..");
      if (dots == std::string::npos) {
        phase.latency_min_us = phase.latency_max_us =
            parse_u64(spec, value_at, value, "latency");
      } else {
        phase.latency_min_us =
            parse_u64(spec, value_at, value.substr(0, dots), "latency min");
        phase.latency_max_us = parse_u64(spec, value_at + dots + 2,
                                         value.substr(dots + 2), "latency max");
      }
    } else {
      fail_at(spec, knob_at, "unknown knob (try fail, corrupt, lat)", key);
    }
    if (last) break;
    pos = comma + 1;
  }
  return phase;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec, std::uint64_t seed, bool cycle) {
  std::vector<FaultPhase> phases;
  std::size_t start = 0;
  while (start <= spec.size()) {
    auto end = spec.find_first_of(";\n", start);
    if (end == std::string::npos) end = spec.size();
    if (end > start) {
      phases.push_back(parse_phase(spec, start, spec.substr(start, end - start)));
    }
    if (end == spec.size()) break;
    start = end + 1;
  }
  return FaultPlan(std::move(phases), seed, cycle);  // validates
}

}  // namespace lcaknap::fault
