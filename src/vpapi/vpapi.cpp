#include "vpapi/vpapi.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/contract.hpp"

namespace catalyst::vpapi {

std::string to_string(Status s) {
  switch (s) {
    case Status::ok: return "ok";
    case Status::no_such_event: return "no such event";
    case Status::conflict: return "event set full (counter conflict)";
    case Status::already_added: return "event already in set";
    case Status::is_running: return "event set is running";
    case Status::not_running: return "event set has no data";
    case Status::no_such_eventset: return "no such event set";
    case Status::invalid_preset: return "invalid preset definition";
    case Status::transient: return "transient failure (busy/conflict)";
  }
  return "unknown status";
}

Session::Session(const pmu::Machine& machine) : machine_(&machine) {}

void Session::set_fault_context(const faults::FaultPlan* plan) {
  fault_plan_ = plan;
  fault_rates_.clear();
  if (plan == nullptr || !plan->enabled()) {
    fault_plan_ = nullptr;
    return;
  }
  // Resolve per-event overrides to machine indices once; the read engine
  // then costs one vector lookup per slot measurement.
  fault_rates_.reserve(machine_->num_events());
  for (const auto& event : machine_->events()) {
    fault_rates_.push_back(plan->rates_for(event.name));
  }
}

void Session::set_fault_coordinates(std::uint64_t run, std::uint64_t attempt) {
  fault_run_ = run;
  fault_attempt_ = attempt;
}

bool Session::query_event(const std::string& name) const {
  return machine_->find(name).has_value() || find_preset(name) != nullptr;
}

std::vector<std::string> Session::enumerate_events() const {
  return machine_->event_names();
}

std::vector<std::string> Session::enumerate_presets() const {
  std::vector<std::string> names;
  names.reserve(presets_.size());
  for (const auto& p : presets_) names.push_back(p.name);
  return names;
}

std::string Session::event_description(const std::string& name) const {
  if (auto idx = machine_->find(name)) {
    return machine_->event(*idx).description;
  }
  if (const DerivedEvent* p = find_preset(name)) return p->description;
  return {};
}

const DerivedEvent* Session::find_preset(const std::string& name) const {
  for (const auto& p : presets_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

Status Session::register_preset(const DerivedEvent& preset) {
  if (preset.name.empty() || preset.terms.empty()) {
    return Status::invalid_preset;
  }
  if (machine_->find(preset.name) || find_preset(preset.name)) {
    return Status::already_added;
  }
  for (const auto& t : preset.terms) {
    if (!machine_->find(t.event_name)) return Status::invalid_preset;
  }
  presets_.push_back(preset);
  return Status::ok;
}

int Session::create_eventset() {
  sets_.emplace_back();
  return static_cast<int>(sets_.size() - 1);
}

Session::EventSet* Session::get(int set) {
  if (set < 0 || static_cast<std::size_t>(set) >= sets_.size()) return nullptr;
  EventSet* es = &sets_[static_cast<std::size_t>(set)];
  return es->destroyed ? nullptr : es;
}

const Session::EventSet* Session::get(int set) const {
  if (set < 0 || static_cast<std::size_t>(set) >= sets_.size()) return nullptr;
  const EventSet* es = &sets_[static_cast<std::size_t>(set)];
  return es->destroyed ? nullptr : es;
}

Session::Slot* Session::find_slot(EventSet& es, std::size_t machine_index) {
  if (machine_index >= es.slot_of.size()) return nullptr;
  const std::int32_t i = es.slot_of[machine_index];
  return i < 0 ? nullptr : &es.slots[static_cast<std::size_t>(i)];
}

const Session::Slot* Session::find_slot(const EventSet& es,
                                        std::size_t machine_index) {
  if (machine_index >= es.slot_of.size()) return nullptr;
  const std::int32_t i = es.slot_of[machine_index];
  return i < 0 ? nullptr : &es.slots[static_cast<std::size_t>(i)];
}

Status Session::enable_multiplexing(int set) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (es->running) return Status::is_running;
  es->multiplexed = true;
  return Status::ok;
}

bool Session::is_multiplexed(int set) const {
  const EventSet* es = get(set);
  return es != nullptr && es->multiplexed;
}

Status Session::set_multiplex_phase(int set, std::uint64_t start_slice) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (es->running) return Status::is_running;
  const std::size_t n_slots = es->slots.size();
  const std::size_t window = machine_->physical_counters();
  if (!es->multiplexed || n_slots <= window) {
    es->mux_cursor = 0;  // not oversubscribed: every slot counts every slice
    return Status::ok;
  }
  es->mux_cursor = static_cast<std::size_t>(
      (start_slice % n_slots) * window % n_slots);
  return Status::ok;
}

std::vector<std::uint64_t> Session::slice_counts(int set) const {
  const EventSet* es = get(set);
  if (!es) return {};
  std::vector<std::uint64_t> counts;
  counts.reserve(es->items.size());
  for (const auto& item : es->items) {
    std::uint64_t slices = 0;
    bool first = true;
    for (const auto& part : item.parts) {
      const Slot* slot = find_slot(*es, part.machine_index);
      if (slot == nullptr) continue;
      slices = first ? slot->slices : std::min(slices, slot->slices);
      first = false;
    }
    counts.push_back(slices);
  }
  return counts;
}

Status Session::destroy_eventset(int set) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (es->running) return Status::is_running;
  es->destroyed = true;
  return Status::ok;
}

Status Session::add_event(int set, const std::string& name) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (es->running) return Status::is_running;
  for (const auto& item : es->items) {
    if (item.name == name) return Status::already_added;
  }

  // Resolve the name to its constituent (raw event, coefficient) parts.
  std::vector<Part> parts;
  if (auto idx = machine_->find(name)) {
    parts.push_back({*idx, 1.0});
  } else if (const DerivedEvent* p = find_preset(name)) {
    for (const auto& t : p->terms) {
      auto raw = machine_->find(t.event_name);
      if (!raw) return Status::invalid_preset;  // registry was validated,
                                                // but stay defensive
      parts.push_back({*raw, t.coefficient});
    }
  } else {
    return Status::no_such_event;
  }

  // Count the new counters this item needs (constituents may share slots
  // with events already in the set, and a preset may reference the same
  // raw event twice).
  std::vector<std::size_t> new_raws;
  for (const auto& part : parts) {
    if (find_slot(*es, part.machine_index)) continue;
    if (std::find(new_raws.begin(), new_raws.end(), part.machine_index) ==
        new_raws.end()) {
      new_raws.push_back(part.machine_index);
    }
  }
  if (!es->multiplexed &&
      es->slots.size() + new_raws.size() > machine_->physical_counters()) {
    return Status::conflict;
  }
  // Transient EBUSY/ECNFLCT-style programming failure, injected only after
  // every real validation passed so a fault can never mask a genuine error.
  // Nothing was mutated yet, so the caller can simply retry.
  if (fault_plan_ != nullptr) {
    const double rate = fault_plan_->rates_for(name).add_event_busy;
    if (faults::fires(*fault_plan_, pmu::fnv1a(name),
                      faults::FaultKind::add_event_busy, fault_run_, 0,
                      fault_attempt_, rate)) {
      fault_log_.push_back({faults::FaultKind::add_event_busy,
                            parts.front().machine_index, fault_run_, 0,
                            fault_attempt_});
      return Status::transient;
    }
  }
  if (es->slot_of.size() < machine_->num_events()) {
    es->slot_of.assign(machine_->num_events(), -1);
    for (std::size_t i = 0; i < es->slots.size(); ++i) {
      es->slot_of[es->slots[i].machine_index] = static_cast<std::int32_t>(i);
    }
  }
  for (std::size_t raw : new_raws) {
    es->slot_of[raw] = static_cast<std::int32_t>(es->slots.size());
    es->slots.push_back(Slot{raw, 0.0, 0, 0});
  }
  for (const auto& part : parts) {
    find_slot(*es, part.machine_index)->refs += 1;
  }
  es->items.push_back(Item{name, std::move(parts)});
  return Status::ok;
}

Status Session::remove_event(int set, const std::string& name) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (es->running) return Status::is_running;
  auto it = std::find_if(es->items.begin(), es->items.end(),
                         [&](const Item& item) { return item.name == name; });
  if (it == es->items.end()) return Status::no_such_event;
  for (const auto& part : it->parts) {
    Slot* slot = find_slot(*es, part.machine_index);
    slot->refs -= 1;
  }
  es->items.erase(it);
  // Free counters no longer referenced by any item, then rebuild the O(1)
  // lookup table (slot indices shift after the erase).
  std::erase_if(es->slots, [](const Slot& s) { return s.refs <= 0; });
  std::fill(es->slot_of.begin(), es->slot_of.end(), -1);
  for (std::size_t i = 0; i < es->slots.size(); ++i) {
    es->slot_of[es->slots[i].machine_index] = static_cast<std::int32_t>(i);
  }
  return Status::ok;
}

std::vector<std::string> Session::list_events(int set) const {
  const EventSet* es = get(set);
  std::vector<std::string> names;
  if (!es) return names;
  names.reserve(es->items.size());
  for (const auto& item : es->items) names.push_back(item.name);
  return names;
}

std::size_t Session::counters_in_use(int set) const {
  const EventSet* es = get(set);
  return es ? es->slots.size() : 0;
}

Status Session::start(int set) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (es->running) return Status::is_running;
  if (fault_plan_ != nullptr) {
    // Set-level transient start failure (the set id stands in for the event
    // hash; start is not tied to a single event).
    const std::uint64_t h =
        pmu::mix64(static_cast<std::uint64_t>(set) + 0x57A27);
    if (faults::fires(*fault_plan_, h, faults::FaultKind::start_busy,
                      fault_run_, 0, fault_attempt_,
                      fault_plan_->rates.start_busy)) {
      fault_log_.push_back({faults::FaultKind::start_busy,
                            static_cast<std::size_t>(-1), fault_run_, 0,
                            fault_attempt_});
      return Status::transient;
    }
  }
  es->running = true;
  es->ever_started = true;
  return Status::ok;
}

Status Session::stop(int set) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (!es->running) return Status::not_running;
  es->running = false;
  return Status::ok;
}

Status Session::reset(int set) {
  EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  for (auto& slot : es->slots) {
    slot.count = 0.0;
    slot.slices = 0;
  }
  es->slices_total = 0;
  es->transient_read = false;
  return Status::ok;
}

void Session::run_kernel(std::span<const double> signals,
                         std::uint64_t repetition,
                         std::uint64_t kernel_index) {
  CATALYST_REQUIRE_AS(signals.size() == machine_->num_signals(),
                      std::invalid_argument,
                      "Session::run_kernel: need " +
                          std::to_string(machine_->num_signals()) +
                          " dense signals, got " +
                          std::to_string(signals.size()));
  auto measure = [&](EventSet& es, const Slot& slot) {
    const double reading = pmu::measure_from_ideal(
        *machine_, machine_->event(slot.machine_index),
        machine_->ideal(slot.machine_index, signals), repetition,
        kernel_index);
    // With no plan armed the reading is untouched -- bit-identical to a
    // fault-free session.
    return fault_plan_ == nullptr
               ? reading
               : apply_reading_faults(es, slot, reading, kernel_index);
  };
  for (auto& es : sets_) {
    if (es.destroyed || !es.running) continue;
    const std::size_t n_slots = es.slots.size();
    if (!es.multiplexed || n_slots <= machine_->physical_counters()) {
      for (auto& slot : es.slots) {
        slot.count += measure(es, slot);
        ++slot.slices;
      }
      ++es.slices_total;
      continue;
    }
    // Time-sliced counting: only a rotating window of physical_counters
    // slots is live for this kernel; the others miss this slice and their
    // reading must later be extrapolated.
    const std::size_t window = machine_->physical_counters();
    for (std::size_t w = 0; w < window; ++w) {
      Slot& slot = es.slots[(es.mux_cursor + w) % n_slots];
      slot.count += measure(es, slot);
      ++slot.slices;
    }
    es.mux_cursor = (es.mux_cursor + window) % n_slots;
    ++es.slices_total;
  }
}

double Session::apply_reading_faults(EventSet& es, const Slot& slot,
                                     double reading,
                                     std::uint64_t kernel_index) {
  const faults::FaultRates& fr = fault_rates_[slot.machine_index];
  if (!fr.any()) return reading;
  const auto& event = machine_->event(slot.machine_index);
  const std::uint64_t h =
      event.name_hash != 0 ? event.name_hash : pmu::fnv1a(event.name);
  using faults::FaultKind;
  auto hit = [&](FaultKind kind, double rate) {
    if (!faults::fires(*fault_plan_, h, kind, fault_run_, kernel_index,
                       fault_attempt_, rate)) {
      return false;
    }
    fault_log_.push_back(
        {kind, slot.machine_index, fault_run_, kernel_index, fault_attempt_});
    return true;
  };
  // Drop and stuck make the whole read untrustworthy (typed transient error
  // from read()); wrap and spike corrupt the value but let the read
  // "succeed" -- the resilient driver must catch those from the data alone.
  if (hit(FaultKind::dropped_reading, fr.dropped_reading)) {
    es.transient_read = true;
    return reading;
  }
  if (hit(FaultKind::stuck, fr.stuck)) {
    es.transient_read = true;
    return 0.0;  // the frozen register does not advance: zero delta
  }
  if (hit(FaultKind::wrap, fr.wrap)) {
    reading = faults::wrap_reading(*fault_plan_, reading);
  }
  if (hit(FaultKind::spike, fr.spike)) {
    reading += fault_plan_->spike_magnitude;
  }
  return reading;
}

Status Session::read(int set, std::vector<double>& values) const {
  const EventSet* es = get(set);
  if (!es) return Status::no_such_eventset;
  if (!es->ever_started) return Status::not_running;
  if (es->transient_read) return Status::transient;
  values.clear();
  values.reserve(es->items.size());
  for (const auto& item : es->items) {
    double v = 0.0;
    for (const auto& part : item.parts) {
      const Slot* slot = find_slot(*es, part.machine_index);
      double count = slot->count;
      // Multiplexed slots were counting only part of the time: scale by
      // the inverse duty cycle to estimate the full-run value (PAPI's
      // multiplex estimation).
      if (es->multiplexed && slot->slices > 0 &&
          slot->slices < es->slices_total) {
        count *= static_cast<double>(es->slices_total) /
                 static_cast<double>(slot->slices);
      }
      v += part.coefficient * count;
    }
    values.push_back(v);
  }
  return Status::ok;
}

}  // namespace catalyst::vpapi
