#include "vpapi/collector.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace catalyst::vpapi {

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

void EventReport::add(const EventReport& other) noexcept {
  read_attempts += other.read_attempts;
  retries += other.retries;
  wraps_corrected += other.wraps_corrected;
  for (std::size_t f = 0; f < faults.size(); ++f) faults[f] += other.faults[f];
  if (other.is_quarantined()) disposition = EventDisposition::quarantined;
}

CollectionReport CollectionReport::for_events(
    const std::vector<std::string>& names) {
  CollectionReport report;
  report.events.reserve(names.size());
  for (const std::string& name : names) report.events.push_back({.name = name});
  return report;
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

void CollectionReport::add(const CollectionReport& other) {
  for (std::size_t e = 0; e < events.size(); ++e) {
    events[e].add(other.events[e]);
  }
  total_retries += other.total_retries;
  start_retries += other.start_retries;
}

void CollectionReport::resolve_dispositions() {
  quarantined.clear();
  for (EventReport& er : events) {
    if (er.is_quarantined()) {
      quarantined.push_back(er.name);
    } else {
      er.disposition = er.total_faults() != 0 || er.retries != 0 ||
                               er.wraps_corrected != 0
                           ? EventDisposition::recovered
                           : EventDisposition::clean;
    }
  }
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

// Each kernel's activity in the machine's dense signal ids.
std::vector<std::vector<double>> densify_all(
    const pmu::Machine& machine, const std::vector<pmu::Activity>& activities) {
  std::vector<std::vector<double>> signals;
  signals.reserve(activities.size());
  for (const pmu::Activity& act : activities) {
    signals.push_back(machine.densify(act));
  }
  return signals;
}

/// The run a unit executes and where its readings go.  Members are in slot
/// order; `rows[i]` is member i's event in `dest`, `indices[i]` its machine
/// index, and the unit writes repetition `rep` of those events.
struct UnitTarget {
  const std::vector<std::string>& members;
  const std::vector<std::size_t>& indices;
  const std::vector<std::size_t>& rows;
  std::uint64_t run_id;
  Measurements& dest;
  std::size_t rep;

  std::span<double> row(std::size_t i) const { return dest.row(rows[i], rep); }
};

// A clean counting unit: a fresh session measuring the run's events over
// the full kernel sequence, start/run/stop/read/reset around each kernel,
// the way CAT instruments its microkernels.  `signals` (kernel k's dense
// activity) is immutable and shared by every unit (and worker thread) of
// the collection.
void run_clean_unit(const pmu::Machine& machine,
                    const std::vector<std::vector<double>>& signals,
                    const UnitTarget& unit) {
  Session session(machine);
  const int set = session.create_eventset();
  for (const auto& name : unit.members) {
    const Status s = session.add_event(set, name);
    if (s != Status::ok) {
      throw std::runtime_error("collect: add_event '" + name +
                               "' failed: " + to_string(s));
    }
  }
  // Readings arrive kernel by kernel.  A unit-local block takes those
  // scattered writes and fills each row in one pass at the end: writing
  // the rows kernel by kernel cost ~5% of a scale_10k op (perfbench A/B).
  const std::size_t n_kernels = signals.size();
  std::vector<double> block(unit.members.size() * n_kernels);
  std::vector<double> vals;
  for (std::size_t k = 0; k < n_kernels; ++k) {
    Status s = session.start(set);
    if (s != Status::ok) {
      throw std::runtime_error("collect: start failed: " + to_string(s));
    }
    session.run_kernel(signals[k], unit.run_id, k);
    session.stop(set);
    s = session.read(set, vals);
    if (s != Status::ok) {
      throw std::runtime_error("collect: read failed: " + to_string(s));
    }
    session.reset(set);
    for (std::size_t e = 0; e < vals.size(); ++e) {
      block[e * n_kernels + k] = vals[e];
    }
  }
  for (std::size_t e = 0; e < unit.members.size(); ++e) {
    std::copy_n(block.begin() + e * n_kernels, n_kernels, unit.row(e).begin());
  }
}

/// A resilient counting unit.  Every decision in here is a pure function of
/// (plan seed, event, run_id, kernel, attempt), so the outcome is identical
/// no matter which worker thread runs the unit.  It tallies into `out`, one
/// unnamed entry per run member (quarantined members get that
/// disposition), which is added into the collection's report after the
/// workers join.  Quarantined events' rows are left partly written.
void run_resilient_unit(const pmu::Machine& machine,
                        const std::vector<std::vector<double>>& signals,
                        const UnitTarget& unit,
                        const faults::FaultPlan& plan,
                        const ResilienceOptions& opts, CollectionReport& out) {
  const std::vector<std::string>& group = unit.members;
  const std::size_t n = group.size();
  out.events.assign(n, {});
  std::vector<std::size_t> written(n, 0);  // kernels in each member's row

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
      ++out.events[e].faults[static_cast<std::size_t>(rec.kind)];
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
        out.events[e].retries += attempt;
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
      out.events[e].disposition = EventDisposition::quarantined;
      out.events[e].retries += opts.max_retries;
      out.total_retries += opts.max_retries;
    }
  }

  // --- kernel loop: retry, unwrap, screen, quarantine ----------------------
  std::vector<double> vals;
  std::vector<char> suspect(n, 0);
  for (std::size_t k = 0; k < signals.size() && !in_set.empty(); ++k) {
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
        session.run_kernel(signals[k], unit.run_id, k);
        session.stop(set);
        s = session.read(set, vals);
        for (const std::size_t e : in_set) ++out.events[e].read_attempts;
        drain_faults(k, &suspect);
        session.reset(set);
        if (s == Status::transient) {
          for (const std::size_t e : in_set) ++out.events[e].retries;
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
                                       &out.events[in_set[i]].wraps_corrected);
          }
          if (!std::isfinite(v) || v > plan.plausible_max) {
            implausible = true;
          }
          vals[i] = v;
        }
        if (implausible) {
          for (const std::size_t e : in_set) ++out.events[e].retries;
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
          unit.row(in_set[i])[k] = vals[i];
          ++written[in_set[i]];
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
        out.events[e].disposition = EventDisposition::quarantined;
        const Status s = session.remove_event(set, group[e]);
        CATALYST_INVARIANT(s == Status::ok, "collect: remove_event failed");
      }
      in_set = std::move(keep);
    }
  }
  // Partial rows can only belong to quarantined events, which the report
  // names and every consumer drops.
  for (std::size_t e = 0; e < n; ++e) {
    CATALYST_ENSURE(written[e] == signals.size() ||
                        out.events[e].is_quarantined(),
                    "collect: torn row escaped a unit");
  }
}

/// Campaign-level observability rollup of a fault-injected collection.
/// Counted once here, not per unit: the totals are order-independent sums.
void count_faults(const CollectionReport& report) {
  if (!obs::enabled()) return;
  obs::count(obs::names::kCollectRetries, report.total_retries);
  obs::count(obs::names::kCollectStartRetries, report.start_retries);
  EventReport sum;
  for (const EventReport& er : report.events) sum.add(er);
  obs::count(obs::names::kCollectWrapsCorrected, sum.wraps_corrected);
  obs::count(obs::names::kCollectQuarantined, report.quarantined.size());
  for (std::size_t f = 0; f < faults::kNumFaultKinds; ++f) {
    if (sum.faults[f] == 0) continue;
    obs::count(std::string(obs::names::kCollectFaultsPrefix) +
                   faults::to_string(static_cast<faults::FaultKind>(f)),
               sum.faults[f]);
  }
}

}  // namespace

Collector::Collector(const pmu::Machine& machine,
                     std::vector<std::string> event_names,
                     const std::vector<pmu::Activity>& activities)
    : machine_(&machine),
      events_(std::move(event_names)),
      signals_(densify_all(machine, activities)) {
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
}

CollectionResult Collector::collect(const CollectionPlan& plan) const {
  Measurements readings(events_.size(), plan.repetitions, signals_.size());
  CollectionResult result = collect_into(plan, readings, 0);
  std::vector<char> keep(events_.size());
  for (std::size_t e = 0; e < events_.size(); ++e) {
    keep[e] = !result.report.events[e].is_quarantined();
    if (keep[e] != 0) result.event_names.push_back(events_[e]);
  }
  readings.keep_events(keep);  // drops quarantined events' partial rows
  result.measurements = std::move(readings);
  return result;
}

CollectionResult Collector::collect_into(const CollectionPlan& plan,
                                         Measurements& out,
                                         std::size_t first_rep) const {
  CATALYST_REQUIRE_AS(plan.repetitions != 0, std::invalid_argument,
                      "collect: need at least one repetition");
  CATALYST_REQUIRE_AS(plan.threads >= 1, std::invalid_argument,
                      "collect: need at least one thread");
  CATALYST_REQUIRE_AS(out.size() == events_.size() &&
                          out.slots() == signals_.size() &&
                          first_rep + plan.repetitions <= out.repetitions(),
                      std::invalid_argument,
                      "collect: destination tensor does not fit the "
                      "collection");
  const bool sampled = plan.mode != CollectionMode::counting;
  const bool faulty = plan.faults != nullptr && plan.faults->enabled();
  if (sampled) {
    plan.schedule.validate();
    CATALYST_REQUIRE_AS(!signals_.empty(), std::invalid_argument,
                        "collect: sampled modes need kernel activities");
    CATALYST_REQUIRE_AS(!faulty, std::invalid_argument,
                        "collect: fault injection is counting-mode only (a "
                        "sampler has no per-kernel retry point)");
  }
  const pmu::Machine& machine = *machine_;
  const std::size_t n_events = events_.size();
  const std::size_t n_runs = schedule_.runs.size();
  const std::size_t n_kernels = signals_.size();
  const std::size_t total_units = plan.repetitions * n_runs;

  CollectionResult result;
  result.runs_per_repetition = n_runs;
  if (sampled) {
    result.trace.mode = plan.mode;
    result.trace.schedule = plan.schedule;
    result.trace.kernels = n_kernels;
    result.trace.runs.resize(total_units);
  }
  std::vector<CollectionReport> tallies(faulty ? total_units : 0);

  obs::Span collect_span("vpapi.collect");
  collect_span.arg("mode", to_string(plan.mode));
  collect_span.arg("events", n_events);
  collect_span.arg("repetitions", plan.repetitions);
  collect_span.arg("groups", n_runs);
  collect_span.arg("faults", faulty);

  // Work list: all (repetition, run) units.  Each writes a disjoint slice --
  // its rows of `out`, its trace slot, its tally -- so workers need no
  // synchronization beyond the cursor.
  auto do_unit = [&](std::size_t u) {
    const std::size_t rep = u / n_runs;
    const std::size_t g = u % n_runs;
    const std::uint64_t repetition = plan.repetition_offset + rep;
    const UnitTarget unit{schedule_.runs[g].events, run_indices_[g],
                          run_rows_[g], repetition * n_runs + g,
                          out, first_rep + rep};
    obs::Span unit_span("collect.unit");
    unit_span.arg("rep", repetition);
    unit_span.arg("group", g);
    if (sampled) {
      // The run's sample trace (vpapi/sampling.hpp), with the per-kernel
      // rows reconstructed from it written in place.
      RunTrace& trace = result.trace.runs[u];
      trace = sample_run(machine, unit.members, unit.indices, signals_,
                         plan.mode, plan.schedule, repetition, unit.run_id,
                         plan.resilience.clock);
      reconstruct_run_phases(trace, plan.schedule.kernel_span_ns, out,
                             unit.rows, unit.rep);
    } else if (faulty) {
      run_resilient_unit(machine, signals_, unit, *plan.faults,
                         plan.resilience, tallies[u]);
    } else {
      run_clean_unit(machine, signals_, unit);
    }
  };
  core::parallel_for(total_units, plan.threads, do_unit);

  // --- report: per-event tallies, quarantine union, dispositions -----------
  // Every count is additive and quarantine is a set union, so the report is
  // independent of unit completion order and thread count.
  CollectionReport& report = result.report;
  report = CollectionReport::for_events(events_);
  if (!sampled && !faulty) {
    for (EventReport& er : report.events) {
      er.read_attempts = plan.repetitions * n_kernels;
    }
  }
  for (std::size_t u = 0; u < tallies.size(); ++u) {
    const CollectionReport& tally = tallies[u];
    const std::vector<std::size_t>& rows = run_rows_[u % n_runs];
    for (std::size_t i = 0; i < rows.size(); ++i) {
      report.events[rows[i]].add(tally.events[i]);
    }
    report.start_retries += tally.start_retries;
    report.total_retries += tally.total_retries;
  }
  report.resolve_dispositions();
  if (faulty) count_faults(report);
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
  // Refuses unknown names before any session is built.
  resolve_events(machine, event_names, "collect_multiplexed");
  const std::vector<std::vector<double>> signals =
      densify_all(machine, activities);
  CollectionResult result;
  result.event_names = event_names;
  result.runs_per_repetition = 1;
  result.measurements =
      Measurements(event_names.size(), repetitions, activities.size());

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
    std::vector<double> prev(event_names.size(), 0.0);
    std::vector<double> now;
    session.start(set);
    for (std::size_t k = 0; k < activities.size(); ++k) {
      session.run_kernel(signals[k], rep, k);
      session.read(set, now);
      // The multiplexed set keeps running across kernels (stopping would
      // reset the duty-cycle schedule); per-kernel values are consecutive
      // differences of the extrapolated totals.
      for (std::size_t e = 0; e < event_names.size(); ++e) {
        result.measurements.row(e, rep)[k] = now[e] - prev[e];
      }
      // read() clears its output before filling, so the buffers can just
      // trade places instead of copying every total per kernel.
      std::swap(prev, now);
    }
    session.stop(set);
  }
  return result;
}

}  // namespace catalyst::vpapi
