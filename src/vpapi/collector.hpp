// catalyst/vpapi -- grouped whole-machine data collection.
//
// There are hundreds to thousands of raw events and only a handful of
// physical counters, so measuring "every event over every kernel" requires
// scheduling events into counter-sized groups and re-running the benchmark
// once per group.  This is exactly how CAT gathers its data, and the
// grouping is why run-to-run noise shows up *between* events measured in
// different runs -- the effect the paper's repetition-based RNMSE filter
// targets.
//
// One driver does all of it.  A Collector is prepared once per (machine,
// events, activities): it resolves the events, builds the event-set
// schedule (vpapi/scheduler.hpp) and densifies each kernel's activity into
// the machine's signal ids (pmu::Machine::densify).
// Collector::collect then runs a CollectionPlan -- repetitions, worker
// threads, collection mode, fault plan and pacing clock -- over that state
// as many times as the caller likes, into one (event, repetition, slot)
// Measurements tensor (vpapi/measurements.hpp).  Each (repetition,
// scheduled run) unit writes its events' rows in place and is one of:
//   * a clean counting run, event by event: each member's readings over
//     the kernel sequence, the bits a start/run/stop/read session reads;
//   * a resilient counting run, when an enabled fault plan is armed:
//     transient failures are retried with capped exponential backoff,
//     wrapped counters are corrected by width-aware delta decoding, kernels
//     whose readings fail a plausibility screen are re-run, and an event
//     that still fails after `max_retries` is QUARANTINED -- recorded in the
//     CollectionReport and excluded from the returned data -- instead of
//     aborting the whole campaign;
//   * a sampled run (sampling/strobed modes, vpapi/sampling.hpp): periodic
//     snapshots on a virtual timeline, reconstructed into per-kernel rows.
// Every reading is a pure function of its (event, run id, kernel)
// coordinates, so all three give bit-identical results for any worker
// thread count, and a clean or recovered counting run reads exactly what
// the other would.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pmu/measure.hpp"
#include "vpapi/measurements.hpp"
#include "vpapi/sampling.hpp"
#include "vpapi/scheduler.hpp"
#include "vpapi/vpapi.hpp"

namespace catalyst::vpapi {

/// How an event came out of a collection.
enum class EventDisposition {
  clean = 0,   ///< No fault ever touched the event.
  recovered,   ///< Faults were injected but retry/correction absorbed them.
  quarantined, ///< Exhausted max_retries somewhere; excluded from the data.
};
std::string to_string(EventDisposition d);

/// Per-event tally of what the driver saw and did.
struct EventReport {
  std::string name;
  std::uint64_t read_attempts = 0;  ///< Kernel read attempts that included it.
  std::uint64_t retries = 0;        ///< Attempts beyond the first, any cause.
  /// Injected faults attributed to this event, indexed by FaultKind.
  std::array<std::uint64_t, faults::kNumFaultKinds> faults{};
  std::uint64_t wraps_corrected = 0;  ///< Counter spans added back in place.
  EventDisposition disposition = EventDisposition::clean;

  std::uint64_t total_faults() const noexcept;
  bool is_quarantined() const noexcept {
    return disposition == EventDisposition::quarantined;
  }
  /// Adds `other`'s tallies; an event quarantined in either is quarantined.
  void add(const EventReport& other) noexcept;
};

/// Structured outcome of a collection: one entry per requested event
/// (input order), plus collection-level totals.
struct CollectionReport {
  std::vector<EventReport> events;
  std::uint64_t total_retries = 0;   ///< All retries, incl. add/start/read.
  std::uint64_t start_retries = 0;   ///< Set-level start_busy retries.
  std::vector<std::string> quarantined;  ///< Names, input order.

  /// An all-clean report with one entry per event of `names`.
  static CollectionReport for_events(const std::vector<std::string>& names);

  const EventReport* find(const std::string& name) const;
  /// "172 events: 170 clean, 1 recovered, 1 quarantined; 12 retries".
  std::string summary() const;

  /// Adds `other`'s tallies event by event; both list the same events.
  void add(const CollectionReport& other);
  /// The disposition rule: a quarantined event stays quarantined (and is
  /// listed in `quarantined`, event order); any other is recovered if a
  /// fault, retry or wrap touched it, else clean.
  void resolve_dispositions();
};

/// Tuning of the retry/quarantine machinery and the plan's pacing clock.
struct ResilienceOptions {
  /// Extra attempts after the first, per add_event call and per kernel
  /// reading, before the offending event is quarantined.
  std::size_t max_retries = 8;
  faults::Backoff backoff;
  /// The one pacing clock: retry backoff sleeps through it, and the sampled
  /// modes sleep one kernel span per kernel through it.  nullptr = no
  /// pacing (tests and simulated collection); the CLI installs a RealClock
  /// for fault-injected campaigns.  Values never depend on it.  Never sleep
  /// via std::this_thread directly (catalyst-lint: sleep-in-retry).
  faults::Clock* clock = nullptr;
};

/// Everything one collection does beyond the (machine, events, activities)
/// it was prepared for.
struct CollectionPlan {
  std::size_t repetitions = 1;  ///< >= 1.
  /// Shifts the absolute repetition indices: batch b of a checkpointed
  /// campaign passes its global first-repetition index so that run ids --
  /// and therefore noise and fault draws -- are bit-identical to an
  /// uninterrupted collection (see core/campaign.hpp).
  std::size_t repetition_offset = 0;
  /// OS threads over the independent (repetition, run) units; results are
  /// bit-identical for any value >= 1.
  int threads = 1;
  CollectionMode mode = CollectionMode::counting;
  SampleSchedule schedule;  ///< Sampled modes only.
  /// Fault injection (counting mode only: a sampler reads running counters
  /// on a timer and has no per-kernel retry point).  nullptr or a disabled
  /// plan runs the clean units.
  const faults::FaultPlan* faults = nullptr;
  ResilienceOptions resilience;
};

/// Full collection result across repetitions.
struct CollectionResult {
  /// Event labels of `measurements`: the requested events minus quarantined
  /// ones, input order.
  std::vector<std::string> event_names;
  /// Reading of event e on kernel slot k at repetition r: row(e, r)[k].
  Measurements measurements;
  std::size_t runs_per_repetition = 0;  ///< Benchmark re-runs needed.
  /// One entry per requested event.  Clean counting units count one read
  /// attempt per kernel; sampled units read no counters.
  CollectionReport report;
  /// Sampled modes: every unit's samples, ordered (repetition, run).
  /// Counting mode: no runs.
  SampleTrace trace;
};

/// The grouped collection driver, prepared for one (machine, events,
/// activities) triple.  The machine must outlive the collector.
class Collector {
 public:
  /// Builds the schedule and densifies `activities`, one kernel slot each.
  /// Throws std::invalid_argument on unknown or duplicate event names.
  Collector(const pmu::Machine& machine, std::vector<std::string> event_names,
            const std::vector<pmu::Activity>& activities);

  /// Measures every event over the kernel sequence, `plan.repetitions`
  /// times.  Each (repetition, scheduled run) pair is a distinct run with
  /// run id (repetition_offset + rep) * runs + run, and so sees distinct
  /// noise; kernel slots within a run share the run.
  ///
  /// Throws std::invalid_argument on a bad plan (no repetitions or threads,
  /// an invalid sample schedule, a fault plan in a sampled mode).
  /// Exceptions raised inside worker threads are rethrown on the calling
  /// thread and no partial data escapes.
  CollectionResult collect(const CollectionPlan& plan = {}) const;

  /// collect() into `out` (one event per collector event, one slot per
  /// kernel): event e's readings at repetition r go to out.row(e, first_rep
  /// + r), units writing disjoint rows.  Quarantined events' rows are left
  /// partly written.  The result carries the report, trace and run count;
  /// its event_names and measurements stay empty.
  CollectionResult collect_into(const CollectionPlan& plan, Measurements& out,
                                std::size_t first_rep) const;

 private:
  const pmu::Machine* machine_;
  std::vector<std::string> events_;
  /// Kernel k's activity in the machine's dense signal ids, densified once
  /// and read (never written) by every unit and worker thread.
  std::vector<std::vector<double>> signals_;
  EventSetSchedule schedule_;
  /// Per scheduled run: its members' rows in events_ and machine indices
  /// (constrained events may be packed out of input order).
  std::vector<std::vector<std::size_t>> run_rows_;
  std::vector<std::vector<std::size_t>> run_indices_;
};

/// One-shot convenience: Collector(machine, event_names,
/// activities).collect(plan).
CollectionResult collect(const pmu::Machine& machine,
                         const std::vector<std::string>& event_names,
                         const std::vector<pmu::Activity>& activities,
                         const CollectionPlan& plan = {});

/// The alternative CAT deliberately avoids: ONE time-division-multiplexed
/// event set holding every event, one benchmark run per repetition.  Far
/// fewer runs (1 instead of ceil(events/counters)), but each reading is a
/// duty-cycle extrapolation from the slices its counter happened to be
/// live -- an estimation error that scales with how bursty the kernel
/// sequence is.  Provided so the methodology benches can quantify the
/// trade-off against grouped collection.
///
/// Per-kernel readings are obtained by reading the running set after every
/// kernel and differencing consecutive totals.  The result's report and
/// trace stay empty.
CollectionResult collect_multiplexed(
    const pmu::Machine& machine, const std::vector<std::string>& event_names,
    const std::vector<pmu::Activity>& activities, std::size_t repetitions);

}  // namespace catalyst::vpapi
