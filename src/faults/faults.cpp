#include "faults/faults.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/contract.hpp"
#include "pmu/measure.hpp"

namespace catalyst::faults {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::wrap: return "wrap";
    case FaultKind::stuck: return "stuck";
    case FaultKind::dropped_reading: return "drop";
    case FaultKind::spike: return "spike";
    case FaultKind::add_event_busy: return "add_event_busy";
    case FaultKind::start_busy: return "start_busy";
  }
  return "unknown";
}

double FaultRates::rate(FaultKind kind) const noexcept {
  switch (kind) {
    case FaultKind::wrap: return wrap;
    case FaultKind::stuck: return stuck;
    case FaultKind::dropped_reading: return dropped_reading;
    case FaultKind::spike: return spike;
    case FaultKind::add_event_busy: return add_event_busy;
    case FaultKind::start_busy: return start_busy;
  }
  return 0.0;
}

bool FaultRates::any() const noexcept {
  return wrap > 0.0 || stuck > 0.0 || dropped_reading > 0.0 || spike > 0.0 ||
         add_event_busy > 0.0 || start_busy > 0.0;
}

const FaultRates& FaultPlan::rates_for(const std::string& event_name) const {
  const auto it = per_event.find(event_name);
  return it == per_event.end() ? rates : it->second;
}

bool FaultPlan::enabled() const noexcept {
  if (rates.any()) return true;
  for (const auto& [name, r] : per_event) {
    if (r.any()) return true;
  }
  return false;
}

FaultPlan FaultPlan::mid_rate(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rates.dropped_reading = 0.008;  // together ~1% transient read failure
  plan.rates.stuck = 0.002;
  plan.rates.wrap = 0.001;
  plan.rates.spike = 0.001;
  plan.rates.add_event_busy = 0.01;
  plan.rates.start_busy = 0.005;
  return plan;
}

bool fires(const FaultPlan& plan, std::uint64_t event_hash, FaultKind kind,
           std::uint64_t run, std::uint64_t kernel, std::uint64_t attempt,
           double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  // Mirrors the noise-stream keying in pmu/measure.cpp: every coordinate is
  // finalized separately so structured ids (consecutive runs/kernels) do not
  // cancel, and the kind gets its own salt so the per-kind decisions for one
  // reading are independent draws.
  const std::uint64_t key =
      plan.seed ^ event_hash ^ pmu::mix64(run + 1) ^
      pmu::mix64(kernel + 0x20002) ^ pmu::mix64(attempt + 0x30003) ^
      pmu::mix64(static_cast<std::uint64_t>(kind) + 0x40004);
  return pmu::uniform_from_key(key) < rate;
}

double counter_wrap_span(int width_bits) {
  CATALYST_REQUIRE_AS(width_bits > 0 && width_bits <= 53,
                      std::invalid_argument,
                      "counter_wrap_span: width must be in (0, 53]");
  return std::ldexp(1.0, width_bits);
}

double wrap_reading(const FaultPlan& plan, double reading) {
  return reading - counter_wrap_span(plan.counter_width_bits);
}

double unwrap_reading(int width_bits, double reading,
                      std::uint64_t* wraps_corrected) {
  const double span = counter_wrap_span(width_bits);
  while (reading < 0.0) {
    reading += span;
    if (wraps_corrected != nullptr) ++*wraps_corrected;
  }
  return reading;
}

namespace {

/// The whole of `val` as a T, read with std::from_chars: std::stod/stoi
/// throw bare "stod"/"stoi" messages and std::stoull wraps "-1" to
/// 2^64 - 1.  Throws std::invalid_argument naming the key and the value.
template <typename T>
T parse_value(const std::string& key, const std::string& val) {
  T value{};
  const char* end = val.data() + val.size();
  const auto [ptr, ec] = std::from_chars(val.data(), end, value);
  if (val.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument("parse_fault_plan: bad value for '" + key +
                                "': '" + val + "'");
  }
  return value;
}

/// Rates are probabilities; anything outside [0, 1] is a spec typo, not a
/// plan -- reject it instead of silently clamping.
double parse_rate(const std::string& key, const std::string& val) {
  const double rate = parse_value<double>(key, val);
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("parse_fault_plan: rate '" + key +
                                "' must be in [0, 1], got '" + val + "'");
  }
  return rate;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::stringstream ss(spec);
  std::string token;
  bool first = true;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    if (first && token == "off") {
      first = false;
      continue;  // all-zero plan; further tokens may still adjust it
    }
    if (first && token == "mid") {
      plan = FaultPlan::mid_rate();
      first = false;
      continue;
    }
    first = false;
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("parse_fault_plan: expected key=value, got '" +
                                  token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_value<std::uint64_t>(key, val);
    } else if (key == "width") {
      plan.counter_width_bits = parse_value<int>(key, val);
    } else if (key == "wrap") {
      plan.rates.wrap = parse_rate(key, val);
    } else if (key == "stuck") {
      plan.rates.stuck = parse_rate(key, val);
    } else if (key == "drop") {
      plan.rates.dropped_reading = parse_rate(key, val);
    } else if (key == "spike") {
      plan.rates.spike = parse_rate(key, val);
    } else if (key == "add") {
      plan.rates.add_event_busy = parse_rate(key, val);
    } else if (key == "start") {
      plan.rates.start_busy = parse_rate(key, val);
    } else if (key == "plausible_max") {
      plan.plausible_max = parse_value<double>(key, val);
    } else {
      throw std::invalid_argument("parse_fault_plan: unknown key '" + key +
                                  "'");
    }
  }
  return plan;
}

std::string describe(const FaultPlan& plan) {
  std::ostringstream os;
  os << "seed=" << plan.seed << " width=" << plan.counter_width_bits
     << " wrap=" << plan.rates.wrap << " stuck=" << plan.rates.stuck
     << " drop=" << plan.rates.dropped_reading
     << " spike=" << plan.rates.spike << " add=" << plan.rates.add_event_busy
     << " start=" << plan.rates.start_busy;
  if (!plan.per_event.empty()) {
    os << " (+" << plan.per_event.size() << " per-event override"
       << (plan.per_event.size() == 1 ? "" : "s") << ")";
  }
  return os.str();
}

std::chrono::nanoseconds Backoff::delay(std::uint64_t attempt) const noexcept {
  // min(cap, base * 2^attempt) without overflowing the shift.
  const std::uint64_t shift = std::min<std::uint64_t>(attempt, 62);
  const double scaled =
      static_cast<double>(base.count()) * std::ldexp(1.0, static_cast<int>(shift));
  const double capped = std::min(scaled, static_cast<double>(cap.count()));
  return std::chrono::nanoseconds(static_cast<std::int64_t>(capped));
}

}  // namespace catalyst::faults
