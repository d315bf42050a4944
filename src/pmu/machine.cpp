#include "pmu/machine.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contract.hpp"
#include "pmu/measure.hpp"

namespace catalyst::pmu {

Machine::Machine(std::string name, std::size_t physical_counters,
                 std::uint64_t noise_seed)
    : name_(std::move(name)),
      physical_counters_(physical_counters),
      noise_seed_(noise_seed) {
  CATALYST_REQUIRE_AS(physical_counters_ > 0, std::invalid_argument,
                      "Machine: need at least one counter");
  CATALYST_REQUIRE_AS(!name_.empty(), std::invalid_argument,
                      "Machine: empty machine name");
}

void Machine::add_event(EventDefinition event) {
  event.name_hash = fnv1a(event.name);
  CATALYST_REQUIRE_AS(!event.name.empty(), std::invalid_argument,
                      "Machine::add_event: empty event name");
  // A non-finite coefficient would turn an absent signal's 0.0 into NaN
  // in the dense sum, where the map sum skips the term.
  for (const SignalTerm& t : event.terms) {
    CATALYST_REQUIRE_AS(std::isfinite(t.coefficient), std::invalid_argument,
                        "Machine::add_event: event '" + event.name +
                            "' has a non-finite coefficient on '" + t.signal +
                            "'");
  }
  const auto [it, inserted] = index_.try_emplace(event.name, events_.size());
  CATALYST_REQUIRE_AS(inserted, std::invalid_argument,
                      "Machine: duplicate event " + event.name);
  for (const SignalTerm& t : event.terms) {
    const auto id = signal_ids_.try_emplace(
        t.signal, static_cast<std::uint32_t>(signal_ids_.size()));
    terms_.push_back({id.first->second, t.coefficient});
  }
  term_begin_.push_back(terms_.size());
  events_.push_back(std::move(event));
}

std::optional<std::size_t> Machine::find(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

std::vector<double> Machine::densify(const Activity& activity) const {
  std::vector<double> signals(num_signals(), 0.0);
  for (const auto& [name, count] : activity) {
    const auto it = signal_ids_.find(name);
    if (it != signal_ids_.end()) signals[it->second] = count;
  }
  return signals;
}

double Machine::ideal(std::size_t event_index,
                      std::span<const double> signals) const {
  CATALYST_REQUIRE_AS(
      event_index < events_.size() && signals.size() == num_signals(),
      std::invalid_argument,
      "Machine::ideal: need an event index below " +
          std::to_string(events_.size()) + " and " +
          std::to_string(num_signals()) + " signals, got " +
          std::to_string(event_index) + " and " +
          std::to_string(signals.size()));
  double v = 0.0;
  for (std::size_t t = term_begin_[event_index];
       t < term_begin_[event_index + 1]; ++t) {
    v += terms_[t].coefficient * signals[terms_[t].signal];
  }
  return v;
}

std::vector<std::string> Machine::event_names() const {
  std::vector<std::string> names;
  names.reserve(events_.size());
  for (const auto& e : events_) names.push_back(e.name);
  return names;
}

}  // namespace catalyst::pmu
