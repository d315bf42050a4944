// Property tests for the event-set scheduler (vpapi/scheduler.hpp): every
// event scheduled exactly once onto a mask-legal slot, no slot double-booked
// within a run, never more runs than the next-fit baseline, and a pinned
// adversarial case where first-fit bin packing saves >= 2 benchmark re-runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "vpapi/scheduler.hpp"

namespace catalyst::vpapi {
namespace {

/// A machine with `counters` physical counters and one event per entry of
/// `masks` (named M0, M1, ...), each pinned to the given slot mask (0 =
/// unconstrained).
pmu::Machine masked_machine(std::size_t counters,
                            const std::vector<std::uint64_t>& masks) {
  pmu::Machine m("sched", counters, 7);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    m.add_event({"M" + std::to_string(i), "", {{"x", 1.0}}, {}, masks[i]});
  }
  return m;
}

std::vector<std::string> all_names(std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) names.push_back("M" + std::to_string(i));
  return names;
}

/// The schedule-wide invariants every valid schedule must satisfy.
void check_invariants(const pmu::Machine& machine,
                      const std::vector<std::string>& names,
                      const EventSetSchedule& schedule) {
  // Every input event appears exactly once across all runs.
  EXPECT_EQ(schedule.scheduled_events(), names.size());
  std::map<std::string, int> seen;
  for (const ScheduledRun& run : schedule.runs) {
    ASSERT_EQ(run.events.size(), run.slots.size());
    EXPECT_LE(run.events.size(), machine.physical_counters());
    std::vector<bool> booked(machine.physical_counters(), false);
    for (std::size_t i = 0; i < run.events.size(); ++i) {
      ++seen[run.events[i]];
      const std::size_t slot = run.slots[i];
      ASSERT_LT(slot, machine.physical_counters());
      // No slot double-booked within a run.
      EXPECT_FALSE(booked[slot]) << run.events[i] << " slot " << slot;
      booked[slot] = true;
      // The slot respects the event's mask (0 = unconstrained).
      const auto idx = machine.find(run.events[i]);
      ASSERT_TRUE(idx.has_value());
      const std::uint64_t mask = machine.event(*idx).slot_mask;
      if (mask != 0) {
        EXPECT_NE(mask & (std::uint64_t{1} << slot), 0u)
            << run.events[i] << " placed on disallowed slot " << slot;
      }
    }
  }
  for (const auto& name : names) EXPECT_EQ(seen[name], 1) << name;
  // Bin packing never loses to the next-fit baseline.
  EXPECT_EQ(schedule.baseline_runs, next_fit_run_count(machine, names));
  EXPECT_LE(schedule.runs.size(), schedule.baseline_runs);
}

TEST(Scheduler, UnconstrainedEqualsNaiveChunking) {
  // No masks: first-fit in input order degenerates to the naive in-order
  // chunking exactly -- same groups, same order -- which is what keeps
  // counting-mode run ids (and so the paper tables) byte-stable.
  const auto m = masked_machine(3, std::vector<std::uint64_t>(8, 0));
  const auto names = all_names(8);
  const auto schedule = schedule_event_sets(m, names);
  check_invariants(m, names, schedule);
  const std::vector<std::vector<std::string>> groups{
      {"M0", "M1", "M2"}, {"M3", "M4", "M5"}, {"M6", "M7"}};
  const std::vector<std::vector<std::size_t>> slots{
      {0, 1, 2}, {0, 1, 2}, {0, 1}};
  ASSERT_EQ(schedule.runs.size(), groups.size());
  for (std::size_t r = 0; r < groups.size(); ++r) {
    EXPECT_EQ(schedule.runs[r].events, groups[r]);
    EXPECT_EQ(schedule.runs[r].slots, slots[r]);
  }
  // ceil(8/3) = 3: unconstrained packing is optimal, baseline agrees.
  EXPECT_EQ(schedule.runs.size(), 3u);
  EXPECT_EQ(schedule.baseline_runs, 3u);
}

TEST(Scheduler, PinnedAdversarialCaseSavesTwoRuns) {
  // 2 counters; four events pinned to slot 0 interleaved-at-the-front with
  // four unconstrained ones.  Next-fit opens a fresh run for every pinned
  // event (slot 0 of the current run is always taken) and then again for
  // the free events: 6 runs.  First-fit backfills slot 1 of the pinned
  // runs: 4 runs.  The bin-packing win the satellite pins: >= 2 runs.
  pmu::Machine m("adv", 2, 7);
  for (const char* pinned : {"A0", "B0", "C0", "D0"}) {
    m.add_event({pinned, "", {{"x", 1.0}}, {}, 0x1});
  }
  for (const char* free_event : {"c1", "c2", "c3", "c4"}) {
    m.add_event({free_event, "", {{"x", 1.0}}, {}, 0});
  }
  const std::vector<std::string> names{"A0", "B0", "C0", "D0",
                                       "c1", "c2", "c3", "c4"};
  const auto schedule = schedule_event_sets(m, names);
  check_invariants(m, names, schedule);
  EXPECT_EQ(schedule.runs.size(), 4u);
  EXPECT_EQ(schedule.baseline_runs, 6u);
  EXPECT_GE(schedule.baseline_runs - schedule.runs.size(), 2u);
  // Each run carries one pinned event on slot 0 plus one backfilled free
  // event on slot 1.
  for (const ScheduledRun& run : schedule.runs) {
    ASSERT_EQ(run.events.size(), 2u);
    EXPECT_EQ(run.slots[0], 0u);
    EXPECT_EQ(run.slots[1], 1u);
  }
}

TEST(Scheduler, PropertySweepOverGeneratedMasks) {
  // Deterministic pseudo-random mask populations: for every generated
  // machine the schedule must satisfy all invariants.  A plain LCG keeps
  // the sweep reproducible without <random>.
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t counters = 1 + next() % 6;
    const std::size_t n_events = 1 + next() % 14;
    const std::uint64_t full =
        (std::uint64_t{1} << counters) - 1;
    std::vector<std::uint64_t> masks;
    for (std::size_t e = 0; e < n_events; ++e) {
      // ~half unconstrained, the rest a random non-empty subset of slots.
      std::uint64_t mask = 0;
      if (next() % 2 == 1) {
        mask = next() & full;
        if (mask == 0) mask = std::uint64_t{1} << (next() % counters);
      }
      masks.push_back(mask);
    }
    const auto m = masked_machine(counters, masks);
    const auto names = all_names(n_events);
    const auto schedule = schedule_event_sets(m, names);
    check_invariants(m, names, schedule);
    // A lower bound nothing may beat: the busiest single slot.  Events
    // whose mask allows only slot s all need distinct runs.
    std::vector<std::size_t> slot_demand(counters, 0);
    for (std::size_t e = 0; e < n_events; ++e) {
      const std::uint64_t mask = masks[e] == 0 ? full : masks[e];
      if ((mask & (mask - 1)) == 0) {  // single-slot mask
        std::size_t s = 0;
        while ((mask >> s) != 1) ++s;
        ++slot_demand[s];
      }
    }
    for (const std::size_t demand : slot_demand) {
      EXPECT_GE(schedule.runs.size(), demand);
    }
    // And the trivial capacity bound.
    EXPECT_GE(schedule.runs.size() * counters, n_events);
  }
}

TEST(Scheduler, SingleSlotMachineSerializesEverything) {
  const auto m = masked_machine(1, {0, 0x1, 0, 0x1});
  const auto names = all_names(4);
  const auto schedule = schedule_event_sets(m, names);
  check_invariants(m, names, schedule);
  EXPECT_EQ(schedule.runs.size(), 4u);
  EXPECT_EQ(schedule.baseline_runs, 4u);
}

TEST(Scheduler, RejectsUnknownEvents) {
  const auto m = masked_machine(2, {0, 0});
  EXPECT_THROW(schedule_event_sets(m, {"M0", "NOPE"}), std::invalid_argument);
  EXPECT_THROW(next_fit_run_count(m, {"NOPE"}), std::invalid_argument);
}

TEST(Scheduler, EmptyInputYieldsEmptySchedule) {
  const auto m = masked_machine(2, {0});
  const auto schedule = schedule_event_sets(m, {});
  EXPECT_TRUE(schedule.runs.empty());
  EXPECT_EQ(schedule.scheduled_events(), 0u);
  EXPECT_EQ(schedule.baseline_runs, 0u);
}

}  // namespace
}  // namespace catalyst::vpapi
