// catalyst/vpapi -- the event-set scheduler.
//
// Grouped collection re-runs the whole benchmark once per event group, so
// the number of runs IS the cost model: total kernel executions =
// runs x kernels x repetitions.  With no placement constraints the optimum
// is trivially ceil(events / counters) and the naive in-order chunking
// achieves it.  Real PMUs are not that uniform: some
// events are pinned to a fixed counter or a subset of the programmable
// slots (pmu::EventDefinition::slot_mask).  A constraint-blind scheduler
// then either produces an unprogrammable set or -- the next-fit baseline
// below -- burns a fresh run every time the current one's pinned slot is
// taken, leaving other slots idle.
//
// schedule_event_sets() is a first-fit bin packer over (run, slot) cells:
// events are placed in input order into the FIRST run with a free slot the
// event's mask allows (lowest such slot).  For unconstrained event lists
// this degenerates to exactly the naive chunking -- same groups, same
// order, same run ids, bit-identical noise draws -- which is what keeps the
// paper-table outputs byte-stable.  With constraints it backfills the holes
// next-fit leaves behind; the property tests pin a case where that saves
// >= 2 runs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pmu/machine.hpp"

namespace catalyst::vpapi {

/// One benchmark re-run: the events measured in it and, parallel to them,
/// the physical slot each one is programmed on.  Slot assignments are what
/// proves the run is feasible under the machine's masks; within a run no
/// slot appears twice.
struct ScheduledRun {
  std::vector<std::string> events;
  std::vector<std::size_t> slots;
};

/// A full schedule for one collection sweep.
struct EventSetSchedule {
  std::vector<ScheduledRun> runs;
  /// What the constraint-respecting next-fit baseline (the "round-robin"
  /// multiplexer generalised to masks) would have needed.  runs.size() <=
  /// baseline_runs always; the gap is the bin-packing win.
  std::size_t baseline_runs = 0;

  /// Total events across all runs (every input event exactly once).
  std::size_t scheduled_events() const;
};

/// First-fit bin packing of `event_names` onto runs of the machine's
/// physical counters, honouring each event's slot_mask.  Placement is in
/// input order, so for fully unconstrained inputs the runs are the naive
/// in-order chunks of physical_counters() events.  Throws
/// std::invalid_argument on unknown event names (masks themselves are
/// validated at build_machine time).
EventSetSchedule schedule_event_sets(
    const pmu::Machine& machine, const std::vector<std::string>& event_names);

/// The baseline cost: next-fit (only the most recent run is considered;
/// a conflict opens a new run).  Exposed for the property tests and the
/// scheduler cost-model docs.
std::size_t next_fit_run_count(const pmu::Machine& machine,
                               const std::vector<std::string>& event_names);

}  // namespace catalyst::vpapi
