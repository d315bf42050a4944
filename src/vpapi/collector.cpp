#include "vpapi/collector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace catalyst::vpapi {

std::vector<std::vector<std::string>> schedule_groups(
    const pmu::Machine& machine, const std::vector<std::string>& event_names) {
  const std::size_t budget = machine.physical_counters();
  std::vector<std::vector<std::string>> groups;
  for (const auto& name : event_names) {
    if (groups.empty() || groups.back().size() >= budget) {
      groups.emplace_back();
    }
    groups.back().push_back(name);
  }
  return groups;
}

std::string to_string(EventDisposition d) {
  switch (d) {
    case EventDisposition::clean: return "clean";
    case EventDisposition::recovered: return "recovered";
    case EventDisposition::quarantined: return "quarantined";
  }
  return "unknown";
}

std::uint64_t EventReport::total_faults() const noexcept {
  std::uint64_t sum = 0;
  for (const std::uint64_t f : faults) sum += f;
  return sum;
}

const EventReport* CollectionReport::find(const std::string& name) const {
  for (const auto& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string CollectionReport::summary() const {
  std::size_t clean = 0;
  std::size_t recovered = 0;
  for (const auto& e : events) {
    if (e.disposition == EventDisposition::clean) ++clean;
    if (e.disposition == EventDisposition::recovered) ++recovered;
  }
  std::ostringstream os;
  os << events.size() << " events: " << clean << " clean, " << recovered
     << " recovered, " << quarantined.size() << " quarantined; "
     << total_retries << " retries";
  return os.str();
}

namespace {

// Resolves event names to machine indices, throwing on unknown names.
std::vector<std::size_t> resolve_events(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const char* caller) {
  std::vector<std::size_t> indices;
  indices.reserve(event_names.size());
  for (const auto& name : event_names) {
    const auto idx = machine.find(name);
    if (!idx) {
      throw std::invalid_argument(std::string(caller) + ": unknown event " +
                                  name);
    }
    indices.push_back(*idx);
  }
  return indices;
}

/// The run a unit executes and where its rows go.  Members are in slot
/// order; `rows[i]` is member i's row in the result, `indices[i]` its
/// machine index.
struct UnitTarget {
  const std::vector<std::string>& members;
  const std::vector<std::size_t>& indices;
  const std::vector<std::size_t>& rows;
  std::uint64_t run_id;
  RepetitionData& dest;
};

// A clean counting unit: a fresh session measuring the run's events over
// the full kernel sequence, start/run/stop/read/reset around each kernel,
// the way CAT instruments its microkernels.  `ideals` is immutable and
// shared by every unit (and worker thread) of the collection.
void run_clean_unit(const pmu::Machine& machine,
                    const std::vector<pmu::Activity>& activities,
                    const pmu::IdealTable& ideals, const UnitTarget& unit) {
  Session session(machine);
  const int set = session.create_eventset();
  for (const auto& name : unit.members) {
    const Status s = session.add_event(set, name);
    if (s != Status::ok) {
      throw std::runtime_error("collect: add_event '" + name +
                               "' failed: " + to_string(s));
    }
  }
  std::vector<std::vector<double>> per_kernel(unit.members.size());
  for (auto& v : per_kernel) v.reserve(activities.size());
  std::vector<double> vals;
  for (std::size_t k = 0; k < activities.size(); ++k) {
    Status s = session.start(set);
    if (s != Status::ok) {
      throw std::runtime_error("collect: start failed: " + to_string(s));
    }
    session.run_kernel(activities[k], unit.run_id, k, &ideals);
    session.stop(set);
    s = session.read(set, vals);
    if (s != Status::ok) {
      throw std::runtime_error("collect: read failed: " + to_string(s));
    }
    session.reset(set);
    for (std::size_t e = 0; e < vals.size(); ++e) {
      per_kernel[e].push_back(vals[e]);
    }
  }
  for (std::size_t e = 0; e < unit.members.size(); ++e) {
    unit.dest.values[unit.rows[e]] = std::move(per_kernel[e]);
  }
}

/// What one resilient unit tallied, indexed like the run's members; summed
/// into the report after the workers join.
struct UnitTally {
  std::vector<char> quarantined;
  std::vector<std::uint64_t> read_attempts;
  std::vector<std::uint64_t> retries;
  std::vector<std::uint64_t> wraps_corrected;
  std::vector<std::array<std::uint64_t, faults::kNumFaultKinds>> fault_counts;
  std::uint64_t start_retries = 0;
  std::uint64_t total_retries = 0;
};

/// A resilient counting unit.  Every decision in here is a pure function of
/// (plan seed, event, run_id, kernel, attempt), so the outcome is identical
/// no matter which worker thread runs the unit.  Quarantined events' rows
/// are left empty.
void run_resilient_unit(const pmu::Machine& machine,
                        const std::vector<pmu::Activity>& activities,
                        const pmu::IdealTable& ideals, const UnitTarget& unit,
                        const faults::FaultPlan& plan,
                        const ResilienceOptions& opts, UnitTally& out) {
  const std::vector<std::string>& group = unit.members;
  const std::size_t n = group.size();
  out.quarantined.assign(n, 0);
  out.read_attempts.assign(n, 0);
  out.retries.assign(n, 0);
  out.wraps_corrected.assign(n, 0);
  out.fault_counts.assign(n, {});
  std::vector<std::vector<double>*> rows(n);
  for (std::size_t e = 0; e < n; ++e) rows[e] = &unit.dest.values[unit.rows[e]];

  Session session(machine);
  session.set_fault_context(&plan);
  const int set = session.create_eventset();

  auto pace = [&](std::uint64_t attempt) {
    if (opts.clock == nullptr) return;
    obs::Span backoff_span("collect.backoff");
    const std::chrono::nanoseconds d = opts.backoff.delay(attempt);
    backoff_span.arg("attempt", attempt);
    backoff_span.arg("ns", d.count());
    opts.clock->sleep_for(d);
  };

  // Tallies the session's fault log into the per-event counters; when
  // `suspect` is given, events hit by a data-destroying fault (drop, stuck,
  // spike) on kernel `kernel` are flagged -- the culprits to quarantine if
  // this kernel exhausts its retries.
  auto drain_faults = [&](std::uint64_t kernel, std::vector<char>* suspect) {
    for (const auto& rec : session.fault_log()) {
      const auto it =
          std::find(unit.indices.begin(), unit.indices.end(), rec.event_index);
      if (it == unit.indices.end()) continue;
      const auto e = static_cast<std::size_t>(it - unit.indices.begin());
      ++out.fault_counts[e][static_cast<std::size_t>(rec.kind)];
      if (suspect != nullptr && rec.kernel == kernel &&
          (rec.kind == faults::FaultKind::dropped_reading ||
           rec.kind == faults::FaultKind::stuck ||
           rec.kind == faults::FaultKind::spike)) {
        (*suspect)[e] = 1;
      }
    }
    session.clear_fault_log();
  };

  // --- add phase: transient EBUSY/ECNFLCT failures are retried per event --
  std::vector<std::size_t> in_set;  // member indices, add order
  in_set.reserve(n);
  for (std::size_t e = 0; e < n; ++e) {
    bool added = false;
    for (std::uint64_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
      // Inert span (nullptr name) on the first attempt: only actual RETRIES
      // show up in the trace, so a fault-free run stays span-quiet here.
      obs::Span retry_span(attempt > 0 ? "collect.add_retry" : nullptr);
      retry_span.arg("event", group[e]);
      retry_span.arg("attempt", attempt);
      session.set_fault_coordinates(unit.run_id, attempt);
      const Status s = session.add_event(set, group[e]);
      drain_faults(0, nullptr);
      if (s == Status::ok) {
        added = true;
        out.retries[e] += attempt;
        out.total_retries += attempt;
        break;
      }
      if (s != Status::transient) {
        throw std::runtime_error("collect: add_event '" + group[e] +
                                 "' failed: " + to_string(s));
      }
      pace(attempt);
    }
    if (added) {
      in_set.push_back(e);
    } else {
      out.quarantined[e] = 1;
      out.retries[e] += opts.max_retries;
      out.total_retries += opts.max_retries;
    }
  }
  for (const std::size_t e : in_set) rows[e]->reserve(activities.size());

  // --- kernel loop: retry, unwrap, screen, quarantine ----------------------
  std::vector<double> vals;
  std::vector<char> suspect(n, 0);
  for (std::size_t k = 0; k < activities.size() && !in_set.empty(); ++k) {
    bool kernel_done = false;
    while (!kernel_done && !in_set.empty()) {
      std::fill(suspect.begin(), suspect.end(), 0);
      bool success = false;
      for (std::uint64_t attempt = 0; attempt <= opts.max_retries; ++attempt) {
        // As above: span only the retries, not the happy path.
        obs::Span retry_span(attempt > 0 ? "collect.retry" : nullptr);
        retry_span.arg("kernel", k);
        retry_span.arg("attempt", attempt);
        session.set_fault_coordinates(unit.run_id, attempt);
        Status s = session.start(set);
        if (s == Status::transient) {
          ++out.start_retries;
          ++out.total_retries;
          pace(attempt);
          continue;
        }
        if (s != Status::ok) {
          throw std::runtime_error("collect: start failed: " + to_string(s));
        }
        session.run_kernel(activities[k], unit.run_id, k, &ideals);
        session.stop(set);
        s = session.read(set, vals);
        for (const std::size_t e : in_set) ++out.read_attempts[e];
        drain_faults(k, &suspect);
        session.reset(set);
        if (s == Status::transient) {
          for (const std::size_t e : in_set) ++out.retries[e];
          ++out.total_retries;
          pace(attempt);
          continue;
        }
        if (s != Status::ok) {
          throw std::runtime_error("collect: read failed: " + to_string(s));
        }
        // Width-aware delta decoding: a negative per-kernel delta means the
        // register wrapped between the surrounding reads; adding spans back
        // recovers the true reading exactly, no re-run needed.  Values the
        // plausibility screen rejects (spikes, non-finite) force a re-run.
        bool implausible = false;
        for (std::size_t i = 0; i < vals.size(); ++i) {
          double v = vals[i];
          if (v < 0.0) {
            v = faults::unwrap_reading(plan.counter_width_bits, v,
                                       &out.wraps_corrected[in_set[i]]);
          }
          if (!std::isfinite(v) || v > plan.plausible_max) {
            implausible = true;
          }
          vals[i] = v;
        }
        if (implausible) {
          for (const std::size_t e : in_set) ++out.retries[e];
          ++out.total_retries;
          pace(attempt);
          continue;
        }
        success = true;
        break;
      }
      if (success) {
        CATALYST_INVARIANT(vals.size() == in_set.size(),
                           "collect: reading/set size mismatch");
        for (std::size_t i = 0; i < vals.size(); ++i) {
          rows[in_set[i]]->push_back(vals[i]);
        }
        kernel_done = true;
        continue;
      }
      // Retries exhausted on this kernel: quarantine the culprits (events a
      // data-destroying fault hit here) and re-run the kernel without them.
      // With no identifiable culprit (persistent set-level start failure)
      // the whole remaining group is quarantined and the unit abandoned.
      std::vector<std::size_t> keep;
      keep.reserve(in_set.size());
      bool any_culprit = false;
      for (const std::size_t e : in_set) {
        if (suspect[e] != 0) any_culprit = true;
      }
      for (const std::size_t e : in_set) {
        if (any_culprit && suspect[e] == 0) {
          keep.push_back(e);
          continue;
        }
        out.quarantined[e] = 1;
        rows[e]->clear();  // discard the partial row: no torn data
        const Status s = session.remove_event(set, group[e]);
        CATALYST_INVARIANT(s == Status::ok, "collect: remove_event failed");
      }
      in_set = std::move(keep);
    }
  }
  // Partial rows can only belong to quarantined events, and were cleared.
  for (std::size_t e = 0; e < n; ++e) {
    CATALYST_ENSURE(rows[e]->size() == activities.size() ||
                        (rows[e]->empty() && out.quarantined[e] != 0),
                    "collect: torn row escaped a unit");
  }
}

// A sampled unit: the run's sample trace (vpapi/sampling.hpp) and the
// per-kernel rows reconstructed from it.
RunTrace run_sampled_unit(const pmu::Machine& machine,
                          const pmu::IdealTable& ideals, std::size_t kernels,
                          const CollectionPlan& plan, std::uint64_t repetition,
                          const UnitTarget& unit) {
  RunTrace trace = sample_run(machine, unit.members, unit.indices, ideals,
                              kernels, plan.mode, plan.schedule, repetition,
                              unit.run_id, plan.resilience.clock);
  std::vector<std::vector<double>> rows =
      reconstruct_run_phases(trace, plan.schedule.kernel_span_ns, kernels);
  for (std::size_t e = 0; e < rows.size(); ++e) {
    unit.dest.values[unit.rows[e]] = std::move(rows[e]);
  }
  return trace;
}

/// Campaign-level observability rollup of a fault-injected collection.
/// Counted once here, not per unit: the totals are order-independent sums.
void count_faults(const CollectionReport& report) {
  if (!obs::enabled()) return;
  obs::count(obs::names::kCollectRetries, report.total_retries);
  obs::count(obs::names::kCollectStartRetries, report.start_retries);
  std::uint64_t wraps = 0;
  std::array<std::uint64_t, faults::kNumFaultKinds> by_kind{};
  for (const EventReport& er : report.events) {
    wraps += er.wraps_corrected;
    for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
      by_kind[f] += er.faults[f];
    }
  }
  obs::count(obs::names::kCollectWrapsCorrected, wraps);
  obs::count(obs::names::kCollectQuarantined, report.quarantined.size());
  for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
    if (by_kind[f] == 0) continue;
    obs::count(std::string(obs::names::kCollectFaultsPrefix) +
                   faults::to_string(static_cast<faults::FaultKind>(f)),
               by_kind[f]);
  }
}

}  // namespace

Collector::Collector(const pmu::Machine& machine,
                     std::vector<std::string> event_names,
                     std::vector<pmu::Activity> activities)
    : machine_(&machine),
      events_(std::move(event_names)),
      activities_(std::move(activities)) {
  const std::vector<std::size_t> indices =
      resolve_events(machine, events_, "collect");
  std::unordered_map<std::string, std::size_t> row_of;
  row_of.reserve(events_.size());
  for (std::size_t e = 0; e < events_.size(); ++e) {
    row_of.emplace(events_[e], e);
  }
  // Bin-packed, constraint-aware run schedule; identical to the naive
  // chunking when no event carries a slot mask (see vpapi/scheduler.hpp).
  schedule_ = schedule_event_sets(machine, events_);
  run_rows_.resize(schedule_.runs.size());
  run_indices_.resize(schedule_.runs.size());
  for (std::size_t g = 0; g < schedule_.runs.size(); ++g) {
    for (const auto& name : schedule_.runs[g].events) {
      const std::size_t row = row_of.at(name);
      run_rows_[g].push_back(row);
      run_indices_[g].push_back(indices[row]);
    }
  }
  // An event's ideal reading over a kernel is repetition-invariant, so the
  // (event, kernel) table is evaluated once and shared by every unit of
  // every collect() call.  It is immutable from here on, so worker threads
  // read it without synchronization.
  ideals_ = pmu::IdealTable(machine, activities_, indices);
}

CollectionResult Collector::collect(const CollectionPlan& plan) const {
  CATALYST_REQUIRE_AS(plan.repetitions != 0, std::invalid_argument,
                      "collect: need at least one repetition");
  CATALYST_REQUIRE_AS(plan.threads >= 1, std::invalid_argument,
                      "collect: need at least one thread");
  const bool sampled = plan.mode != CollectionMode::counting;
  const bool faulty = plan.faults != nullptr && plan.faults->enabled();
  if (sampled) {
    plan.schedule.validate();
    CATALYST_REQUIRE_AS(!activities_.empty(), std::invalid_argument,
                        "collect: sampled modes need kernel activities");
    CATALYST_REQUIRE_AS(!faulty, std::invalid_argument,
                        "collect: fault injection is counting-mode only (a "
                        "sampler has no per-kernel retry point)");
  }
  const pmu::Machine& machine = *machine_;
  const std::size_t n_events = events_.size();
  const std::size_t n_runs = schedule_.runs.size();
  const std::size_t n_kernels = activities_.size();
  const std::size_t total_units = plan.repetitions * n_runs;

  CollectionResult result;
  result.runs_per_repetition = n_runs;
  result.repetitions.resize(plan.repetitions);
  for (auto& rep : result.repetitions) rep.values.resize(n_events);
  if (sampled) {
    result.trace.mode = plan.mode;
    result.trace.schedule = plan.schedule;
    result.trace.kernels = n_kernels;
    result.trace.runs.resize(total_units);
  }
  std::vector<UnitTally> tallies(faulty ? total_units : 0);

  obs::Span collect_span("vpapi.collect");
  collect_span.arg("mode", to_string(plan.mode));
  collect_span.arg("events", n_events);
  collect_span.arg("repetitions", plan.repetitions);
  collect_span.arg("groups", n_runs);
  collect_span.arg("faults", faulty);

  // Work list: all (repetition, run) units.  Each writes a disjoint slice of
  // the result (its rows, its trace slot, its tally), so workers need no
  // synchronization beyond the cursor; a worker throw unwinds through here
  // and destroys the partial result -- no torn rows escape.
  auto do_unit = [&](std::size_t u) {
    const std::size_t rep = u / n_runs;
    const std::size_t g = u % n_runs;
    const std::uint64_t repetition = plan.repetition_offset + rep;
    const UnitTarget unit{schedule_.runs[g].events, run_indices_[g],
                          run_rows_[g], repetition * n_runs + g,
                          result.repetitions[rep]};
    obs::Span unit_span("collect.unit");
    unit_span.arg("rep", repetition);
    unit_span.arg("group", g);
    if (sampled) {
      result.trace.runs[u] = run_sampled_unit(machine, ideals_, n_kernels,
                                              plan, repetition, unit);
    } else if (faulty) {
      run_resilient_unit(machine, activities_, ideals_, unit, *plan.faults,
                         plan.resilience, tallies[u]);
    } else {
      run_clean_unit(machine, activities_, ideals_, unit);
    }
  };
  core::parallel_for(total_units, plan.threads, do_unit);

  // --- report: per-event tallies, quarantine union, dispositions -----------
  // Every count is additive and quarantine is a set union, so the report is
  // independent of unit completion order and thread count.
  CollectionReport& report = result.report;
  report.events.resize(n_events);
  std::vector<char> quarantined(n_events, 0);
  for (std::size_t e = 0; e < n_events; ++e) {
    report.events[e].name = events_[e];
    if (!sampled && !faulty) {
      report.events[e].read_attempts = plan.repetitions * n_kernels;
    }
  }
  for (std::size_t u = 0; u < tallies.size(); ++u) {
    const UnitTally& tally = tallies[u];
    const std::vector<std::size_t>& rows = run_rows_[u % n_runs];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EventReport& er = report.events[rows[i]];
      er.read_attempts += tally.read_attempts[i];
      er.retries += tally.retries[i];
      er.wraps_corrected += tally.wraps_corrected[i];
      for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
        er.faults[f] += tally.fault_counts[i][f];
      }
      if (tally.quarantined[i] != 0) quarantined[rows[i]] = 1;
    }
    report.start_retries += tally.start_retries;
    report.total_retries += tally.total_retries;
  }
  for (std::size_t e = 0; e < n_events; ++e) {
    EventReport& er = report.events[e];
    if (quarantined[e] != 0) {
      er.disposition = EventDisposition::quarantined;
      report.quarantined.push_back(events_[e]);
    } else if (er.total_faults() > 0 || er.retries > 0 ||
               er.wraps_corrected > 0) {
      er.disposition = EventDisposition::recovered;
    }
  }
  if (faulty) count_faults(report);

  // --- data: quarantined events' rows are dropped --------------------------
  if (report.quarantined.empty()) {
    result.event_names = events_;
    return result;
  }
  for (std::size_t e = 0; e < n_events; ++e) {
    if (quarantined[e] == 0) result.event_names.push_back(events_[e]);
  }
  for (RepetitionData& rep : result.repetitions) {
    std::size_t kept = 0;
    for (std::size_t e = 0; e < n_events; ++e) {
      if (quarantined[e] != 0) continue;
      if (kept != e) rep.values[kept] = std::move(rep.values[e]);
      ++kept;
    }
    rep.values.resize(kept);
  }
  return result;
}

CollectionResult collect(const pmu::Machine& machine,
                         const std::vector<std::string>& event_names,
                         const std::vector<pmu::Activity>& activities,
                         const CollectionPlan& plan) {
  return Collector(machine, event_names, activities).collect(plan);
}

CollectionResult collect_multiplexed(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const std::vector<pmu::Activity>& activities, std::size_t repetitions) {
  CATALYST_REQUIRE_AS(repetitions != 0, std::invalid_argument,
                      "collect_multiplexed: need at least one repetition");
  const std::vector<std::size_t> event_indices =
      resolve_events(machine, event_names, "collect_multiplexed");
  const pmu::IdealTable ideals(machine, activities, event_indices);
  CollectionResult result;
  result.event_names = event_names;
  result.runs_per_repetition = 1;

  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    Session session(machine);
    const int set = session.create_eventset();
    Status s = session.enable_multiplexing(set);
    if (s != Status::ok) {
      throw std::runtime_error("collect_multiplexed: " + to_string(s));
    }
    for (const auto& name : event_names) {
      s = session.add_event(set, name);
      if (s != Status::ok) {
        throw std::invalid_argument("collect_multiplexed: add_event '" +
                                    name + "': " + to_string(s));
      }
    }
    // Continue the round-robin schedule across repetitions instead of
    // restarting it at slot 0: with the cursor pinned, the same leading
    // groups would collect the ceil(slices/groups) share in EVERY
    // repetition whenever kernels % groups != 0, a systematic duty-cycle
    // bias against the trailing group that no amount of repetition
    // averages away (see Session::set_multiplex_phase).
    session.set_multiplex_phase(set, rep * activities.size());
    RepetitionData data;
    data.values.assign(event_names.size(), {});
    for (auto& v : data.values) v.reserve(activities.size());
    std::vector<double> prev(event_names.size(), 0.0);
    std::vector<double> now;
    session.start(set);
    for (std::size_t k = 0; k < activities.size(); ++k) {
      session.run_kernel(activities[k], rep, k, &ideals);
      session.read(set, now);
      // The multiplexed set keeps running across kernels (stopping would
      // reset the duty-cycle schedule); per-kernel values are consecutive
      // differences of the extrapolated totals.
      for (std::size_t e = 0; e < event_names.size(); ++e) {
        data.values[e].push_back(now[e] - prev[e]);
      }
      // read() clears its output before filling, so the buffers can just
      // trade places instead of copying every total per kernel.
      std::swap(prev, now);
    }
    session.stop(set);
    result.repetitions.push_back(std::move(data));
  }
  return result;
}

}  // namespace catalyst::vpapi
