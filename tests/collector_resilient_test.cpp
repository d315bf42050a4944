// The driver's fault-tolerance contracts: bit-identity on the clean path,
// exact recovery under the canonical fault plan, quarantine of
// unrecoverable events, thread-count invariance, backoff pacing through the
// injectable clock, and repetition offsets for resumable campaigns.
#include "vpapi/collector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace catalyst::vpapi {
namespace {

pmu::Machine fault_machine() {
  // 2 counters x 6 events -> 3 groups per repetition: group scheduling,
  // retry, and quarantine all get exercised.
  pmu::Machine m("faulty-tiny", 2, 7);
  m.add_event({"A", "x", {{"x", 1.0}}, {}});
  m.add_event({"B", "2x", {{"x", 2.0}}, {}});
  m.add_event({"C", "y", {{"y", 1.0}}, {}});
  m.add_event({"D", "x+y", {{"x", 1.0}, {"y", 1.0}}, {}});
  m.add_event({"N", "noisy x", {{"x", 1.0}, {"y", 0.5}},
               pmu::NoiseModel::relative(0.05)});
  m.add_event({"Z", "dead", {}, {}});
  return m;
}

const std::vector<std::string> kEvents = {"A", "B", "C", "D", "N", "Z"};
const std::vector<pmu::Activity> kActs{{{"x", 1e6}, {"y", 3e5}},
                                       {{"x", 5e5}},
                                       {{"y", 9e5}}};

faults::FaultPlan mid_plan() { return faults::FaultPlan::mid_rate(); }

/// A plan for `n` repetitions, with `faults` armed (may be null).
CollectionPlan reps(std::size_t n, const faults::FaultPlan* faults = nullptr) {
  CollectionPlan plan;
  plan.repetitions = n;
  plan.faults = faults;
  return plan;
}

void expect_identical_values(const CollectionResult& a,
                             const CollectionResult& b) {
  ASSERT_EQ(a.event_names, b.event_names);
  ASSERT_EQ(a.repetitions.size(), b.repetitions.size());
  for (std::size_t r = 0; r < a.repetitions.size(); ++r) {
    ASSERT_EQ(a.repetitions[r].values.size(), b.repetitions[r].values.size());
    for (std::size_t e = 0; e < a.repetitions[r].values.size(); ++e) {
      ASSERT_EQ(a.repetitions[r].values[e], b.repetitions[r].values[e])
          << "rep " << r << " event " << a.event_names[e];
    }
  }
}

TEST(CollectResilient, CleanPathBitIdenticalToCollect) {
  // A prepared collector reused across calls reads what one-shot collect()
  // reads, and a clean run reports one read attempt per kernel, no faults.
  const auto m = fault_machine();
  const Collector prepared(m, kEvents, kActs);
  prepared.collect(reps(1));
  const auto plain = collect(m, kEvents, kActs, reps(3));
  const auto reused = prepared.collect(reps(3));
  expect_identical_values(plain, reused);
  EXPECT_EQ(reused.report.total_retries, 0u);
  EXPECT_EQ(reused.report.quarantined.size(), 0u);
  ASSERT_EQ(reused.report.events.size(), kEvents.size());
  for (const auto& e : reused.report.events) {
    EXPECT_EQ(e.disposition, EventDisposition::clean);
    EXPECT_EQ(e.read_attempts, 3 * kActs.size());
  }
}

TEST(CollectResilient, DisabledPlanAlsoBitIdentical) {
  const auto m = fault_machine();
  const faults::FaultPlan off;  // all rates zero
  const auto plain = collect(m, kEvents, kActs, reps(2));
  const auto idle = collect(m, kEvents, kActs, reps(2, &off));
  expect_identical_values(plain, idle);
}

TEST(CollectResilient, MidRateFaultsRecoverExactValues) {
  // The tentpole claim at the collector level: retries re-draw the fault
  // coordinate while the underlying reading is a pure function of
  // (event, run, kernel) -- so recovery reproduces the CLEAN data exactly,
  // not approximately.
  const auto m = fault_machine();
  const auto clean = collect(m, kEvents, kActs, reps(3));
  const auto plan = mid_plan();
  const auto resilient = collect(m, kEvents, kActs, reps(3, &plan));
  ASSERT_TRUE(resilient.report.quarantined.empty())
      << "mid-rate faults must never exhaust 8 retries";
  expect_identical_values(clean, resilient);
}

TEST(CollectResilient, UnrecoverableEventIsQuarantined) {
  const auto m = fault_machine();
  faults::FaultPlan plan;
  plan.seed = 9;
  faults::FaultRates cursed;
  cursed.dropped_reading = 1.0;  // every read attempt fails, forever
  plan.per_event["C"] = cursed;

  const auto clean = collect(m, kEvents, kActs, reps(2));
  CollectionPlan faulty = reps(2, &plan);
  faulty.resilience.max_retries = 3;
  const auto resilient = collect(m, kEvents, kActs, faulty);

  ASSERT_EQ(resilient.report.quarantined,
            std::vector<std::string>({"C"}));
  const auto* c = resilient.report.find("C");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->disposition, EventDisposition::quarantined);
  EXPECT_GT(c->faults[static_cast<std::size_t>(
                faults::FaultKind::dropped_reading)],
            0u);

  // The survivors' rows are bit-identical to the clean run's.
  ASSERT_EQ(resilient.event_names,
            std::vector<std::string>({"A", "B", "D", "N", "Z"}));
  for (std::size_t r = 0; r < 2; ++r) {
    std::size_t kept = 0;
    for (std::size_t e = 0; e < kEvents.size(); ++e) {
      if (kEvents[e] == "C") continue;
      EXPECT_EQ(resilient.repetitions[r].values[kept],
                clean.repetitions[r].values[e])
          << kEvents[e];
      ++kept;
    }
  }
}

TEST(CollectResilient, ThreadCountInvariance) {
  // Fixed plan seed: 1 worker vs 4 workers must give bit-identical data
  // AND identical per-event fault tallies (merge is additive/set-union).
  const auto m = fault_machine();
  faults::FaultPlan plan = mid_plan();
  plan.rates.dropped_reading = 0.2;  // plenty of retries to merge
  plan.rates.wrap = 0.05;

  const CollectionPlan serial = reps(4, &plan);
  CollectionPlan parallel = serial;
  parallel.threads = 4;
  const auto a = collect(m, kEvents, kActs, serial);
  const auto b = collect(m, kEvents, kActs, parallel);

  expect_identical_values(a, b);
  EXPECT_EQ(a.report.total_retries, b.report.total_retries);
  EXPECT_EQ(a.report.start_retries, b.report.start_retries);
  EXPECT_EQ(a.report.quarantined, b.report.quarantined);
  ASSERT_EQ(a.report.events.size(), b.report.events.size());
  for (std::size_t e = 0; e < a.report.events.size(); ++e) {
    EXPECT_EQ(a.report.events[e].name, b.report.events[e].name);
    EXPECT_EQ(a.report.events[e].faults, b.report.events[e].faults);
    EXPECT_EQ(a.report.events[e].retries, b.report.events[e].retries);
    EXPECT_EQ(a.report.events[e].wraps_corrected,
              b.report.events[e].wraps_corrected);
    EXPECT_EQ(a.report.events[e].disposition, b.report.events[e].disposition);
  }
}

TEST(CollectResilient, BackoffGoesThroughTheInjectableClock) {
  const auto m = fault_machine();
  faults::FaultPlan plan;
  plan.seed = 3;
  plan.rates.dropped_reading = 0.3;

  faults::FakeClock clock;
  CollectionPlan paced = reps(3, &plan);
  paced.resilience.clock = &clock;
  const auto result = collect(m, kEvents, kActs, paced);
  EXPECT_GT(result.report.total_retries, 0u);
  // Every retry paid a backoff delay through the clock; no wall time was
  // spent (this test completes instantly).
  EXPECT_FALSE(clock.delays().empty());
  for (const auto d : clock.delays()) {
    EXPECT_GE(d, paced.resilience.backoff.base);
    EXPECT_LE(d, paced.resilience.backoff.cap);
  }
}

TEST(CollectResilient, StressManyWorkersManyFaults) {
  // Aggressive rates + 8 workers; run under CATALYST_TSAN to prove the
  // retry/quarantine machinery is race-free.  Results must still match the
  // serial run bit for bit.
  const auto m = fault_machine();
  faults::FaultPlan plan = mid_plan();
  plan.rates.dropped_reading = 0.3;
  plan.rates.stuck = 0.1;
  plan.rates.wrap = 0.05;
  plan.rates.spike = 0.05;
  plan.rates.start_busy = 0.1;

  const CollectionPlan serial = reps(6, &plan);
  CollectionPlan stress = serial;
  stress.threads = 8;
  const auto a = collect(m, kEvents, kActs, serial);
  const auto b = collect(m, kEvents, kActs, stress);
  expect_identical_values(a, b);
  EXPECT_EQ(a.report.quarantined, b.report.quarantined);
  EXPECT_EQ(a.report.total_retries, b.report.total_retries);
}

TEST(CollectResilient, RepetitionOffsetMatchesUninterruptedRun) {
  // The checkpointing contract: collecting repetitions [0, 4) in one call
  // equals collecting them one at a time with the matching offset.
  const auto m = fault_machine();
  const auto plan = mid_plan();
  const Collector prepared(m, kEvents, kActs);
  const auto whole = prepared.collect(reps(4, &plan));
  for (std::size_t r = 0; r < 4; ++r) {
    CollectionPlan one = reps(1, &plan);
    one.repetition_offset = r;
    const auto batch = prepared.collect(one);
    ASSERT_EQ(batch.repetitions.size(), 1u);
    ASSERT_EQ(batch.event_names, whole.event_names);
    EXPECT_EQ(batch.repetitions[0].values, whole.repetitions[r].values)
        << "repetition " << r;
  }
}

}  // namespace
}  // namespace catalyst::vpapi
