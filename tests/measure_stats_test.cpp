// Contracts of the counter-based measurement engine introduced for the
// hot-path overhaul:
//   * the stateless RNG preserves the configured noise magnitudes
//     (rel_sigma / abs_sigma / spike_prob), so noise-class tests stay
//     meaningful,
//   * collection is bit-identical across thread counts,
//   * exceptions from collector worker threads reach the caller, and a
//     duplicate event name is refused before any worker starts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "pmu/pmu.hpp"
#include "vpapi/collector.hpp"

namespace catalyst {
namespace {

/// A plan for `n` repetitions on `threads` workers.
vpapi::CollectionPlan reps(std::size_t n, int threads = 1) {
  vpapi::CollectionPlan plan;
  plan.repetitions = n;
  plan.threads = threads;
  return plan;
}

pmu::Machine one_event_machine(const pmu::NoiseModel& noise) {
  pmu::Machine m("stats", 4, 0xA11CE5EED);
  m.add_event({"E", "", {{"x", 1.0}}, noise});
  return m;
}

// Samples the event across (rep, kernel) coordinates; one draw per sample.
std::vector<double> sample_grid(const pmu::Machine& m, double ideal,
                                std::size_t n_reps, std::size_t n_kernels) {
  pmu::Activity act{{"x", ideal}};
  std::vector<double> out;
  out.reserve(n_reps * n_kernels);
  for (std::size_t r = 0; r < n_reps; ++r) {
    for (std::size_t k = 0; k < n_kernels; ++k) {
      out.push_back(pmu::measure_event(m, m.event(0), act, r, k));
    }
  }
  return out;
}

double sample_mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double sample_sd(const std::vector<double>& xs) {
  const double mean = sample_mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - mean) * (x - mean);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

TEST(NoiseStats, RelativeSigmaIsPreserved) {
  // sigma = 1% on a 1e9 ideal: integer rounding contributes ~1e-9 relative,
  // invisible next to the jitter.  4000 samples pin the sample sd of the
  // relative deviation to 1e-2 within ~1e-3 at many sigmas of slack.
  const auto m = one_event_machine(pmu::NoiseModel::relative(0.01));
  const double ideal = 1e9;
  const auto vs = sample_grid(m, ideal, 80, 50);
  std::vector<double> rel;
  rel.reserve(vs.size());
  for (double v : vs) rel.push_back(v / ideal - 1.0);
  EXPECT_NEAR(sample_mean(rel), 0.0, 1e-3);
  EXPECT_NEAR(sample_sd(rel), 0.01, 1e-3);
}

TEST(NoiseStats, AbsoluteSigmaIsPreserved) {
  const auto m = one_event_machine(pmu::NoiseModel::absolute(1000.0));
  const double ideal = 1e9;
  const auto vs = sample_grid(m, ideal, 80, 50);
  std::vector<double> dev;
  dev.reserve(vs.size());
  for (double v : vs) dev.push_back(v - ideal);
  EXPECT_NEAR(sample_mean(dev), 0.0, 100.0);
  EXPECT_NEAR(sample_sd(dev), 1000.0, 100.0);
}

TEST(NoiseStats, SpikeProbabilityIsPreserved) {
  // Spikes add U(0,1) * 1e6 on a 1000 ideal: any reading above 2000 is a
  // spike (P[spike below that] ~ 1e-3 of spikes).  With p = 0.2 over 4000
  // samples the observed rate is within +-0.03 at ~5 binomial sigmas.
  const auto m = one_event_machine(pmu::NoiseModel::spiky(0.2, 1e6));
  const auto vs = sample_grid(m, 1000.0, 80, 50);
  std::size_t spikes = 0;
  for (double v : vs) {
    if (v > 2000.0) ++spikes;
  }
  const double rate = static_cast<double>(spikes) /
                      static_cast<double>(vs.size());
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(NoiseStats, AdjacentCoordinatesAreDecorrelated) {
  // The counter-based stream must not leak correlation between neighbouring
  // repetition indices (lag-1 autocorrelation across reps, fixed kernel).
  const auto m = one_event_machine(pmu::NoiseModel::relative(0.01));
  const double ideal = 1e9;
  pmu::Activity act{{"x", ideal}};
  std::vector<double> rel;
  for (std::uint64_t r = 0; r < 2000; ++r) {
    rel.push_back(pmu::measure_event(m, m.event(0), act, r, 0) / ideal - 1.0);
  }
  const double mean = sample_mean(rel);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    const double d = rel[i] - mean;
    den += d * d;
    if (i + 1 < rel.size()) num += d * (rel[i + 1] - mean);
  }
  EXPECT_LT(std::fabs(num / den), 0.08);
}

TEST(MeasureFromIdeal, MatchesMeasureEventExactly) {
  const auto m = one_event_machine(
      pmu::NoiseModel{1e-2, 5.0, 0.1, 100.0, 1e-3});
  pmu::Activity act{{"x", 123456.0}};
  const double ideal = m.event(0).ideal(act);
  for (std::uint64_t r = 0; r < 20; ++r) {
    for (std::uint64_t k = 0; k < 5; ++k) {
      EXPECT_DOUBLE_EQ(pmu::measure_event(m, m.event(0), act, r, k),
                       pmu::measure_from_ideal(m, m.event(0), ideal, r, k));
    }
  }
}

TEST(CollectorDeterminism, SingleAndMultiThreadedResultsAreBitIdentical) {
  // The full saphira machine exercises every noise model (relative,
  // absolute, spiky, drifting) across thread counts.
  const pmu::Machine m = pmu::saphira_cpu();
  std::vector<std::string> names;
  for (std::size_t e = 0; e < 40; ++e) names.push_back(m.event(e).name);
  const std::vector<pmu::Activity> acts{
      {{pmu::sig::cycles, 1e6}, {pmu::sig::instructions, 2e6}},
      {{pmu::sig::cycles, 3e6}, {pmu::sig::uops, 4e6}}};
  const auto serial = vpapi::collect(m, names, acts, reps(3, 1));
  const auto threaded = vpapi::collect(m, names, acts, reps(3, 4));
  EXPECT_EQ(serial.event_names, threaded.event_names);
  EXPECT_EQ(serial.runs_per_repetition, threaded.runs_per_repetition);
  EXPECT_EQ(serial.measurements, threaded.measurements);
}

// The clean counting unit as a PAPI-style session runs it, kept as the
// reference for the collector's event-major units: per (repetition,
// scheduled run), a fresh session holding the run's events, with
// start/run/stop/read/reset around every kernel.
vpapi::Measurements session_reference(
    const pmu::Machine& machine, const std::vector<std::string>& names,
    const std::vector<pmu::Activity>& activities, std::size_t repetitions) {
  const vpapi::EventSetSchedule schedule =
      vpapi::schedule_event_sets(machine, names);
  const std::size_t n_runs = schedule.runs.size();
  std::vector<std::vector<double>> signals;
  for (const pmu::Activity& act : activities) {
    signals.push_back(machine.densify(act));
  }
  vpapi::Measurements out(names.size(), repetitions, activities.size());
  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    for (std::size_t g = 0; g < n_runs; ++g) {
      const std::vector<std::string>& members = schedule.runs[g].events;
      vpapi::Session session(machine);
      const int set = session.create_eventset();
      for (const std::string& name : members) {
        EXPECT_EQ(session.add_event(set, name), vpapi::Status::ok) << name;
      }
      std::vector<double> vals;
      for (std::size_t k = 0; k < signals.size(); ++k) {
        EXPECT_EQ(session.start(set), vpapi::Status::ok);
        session.run_kernel(signals[k], rep * n_runs + g, k);
        session.stop(set);
        EXPECT_EQ(session.read(set, vals), vpapi::Status::ok);
        session.reset(set);
        for (std::size_t i = 0; i < members.size(); ++i) {
          const auto row = static_cast<std::size_t>(
              std::find(names.begin(), names.end(), members[i]) -
              names.begin());
          out.row(row, rep)[k] = vals[i];
        }
      }
    }
  }
  return out;
}

TEST(CollectorDeterminism, CleanUnitsReadWhatASessionReads) {
  // Relative, absolute, spiky and drifting noise, alone and mixed, over
  // three counters: four runs, the last one short, and one slot-pinned
  // event for the scheduler to place.
  pmu::Machine m("diff", 3, 0xD1FF);
  const pmu::NoiseModel models[] = {
      pmu::NoiseModel::none(),
      pmu::NoiseModel::relative(2e-2),
      pmu::NoiseModel::absolute(25.0),
      pmu::NoiseModel::spiky(0.2, 1e4),
      pmu::NoiseModel::drifting(3e-3),
      pmu::NoiseModel{1e-2, 5.0, 0.1, 100.0, 1e-3},
  };
  std::vector<std::string> names;
  for (std::size_t e = 0; e < 11; ++e) {
    pmu::EventDefinition event{"E" + std::to_string(e), "",
                               {{"x", 1.0 + double(e)}, {"y", 0.5}},
                               models[e % 6]};
    if (e == 2) event.slot_mask = 0b100;
    m.add_event(event);
    names.push_back(event.name);
  }
  const std::vector<pmu::Activity> acts{
      {{"x", 1e6}}, {{"x", 3e5}, {"y", 7e5}}, {{"y", 2e6}}, {{"x", 0.0}}};
  const vpapi::Measurements reference =
      session_reference(m, names, acts, 5);
  for (const int threads : {1, 4}) {
    const auto got = vpapi::collect(m, names, acts, reps(5, threads));
    EXPECT_EQ(got.event_names, names);
    EXPECT_EQ(got.measurements, reference) << "threads=" << threads;
  }
}

TEST(CollectorExceptions, WorkerThrowPropagatesToCaller) {
  // A non-finite kernel activity passes every up-front check but makes the
  // reading's finite-ideal contract fail inside the unit, i.e. inside a
  // worker thread.  The throw must surface on the calling thread instead of
  // calling std::terminate.
  pmu::Machine m("inf", 2, 7);
  m.add_event({"A", "", {{"x", 1.0}}, {}});
  m.add_event({"B", "", {{"x", 2.0}}, {}});
  const std::vector<pmu::Activity> acts{{{"x", 1.0}},
                                        {{"x", HUGE_VAL}}};
  EXPECT_THROW(
      vpapi::collect(m, {"A", "B"}, acts, reps(8, 4)),
      std::runtime_error);
}

TEST(CollectorExceptions, DuplicateEventNamesAreRefusedUpFront) {
  // A repeated name would be measured twice into one row and leave the
  // other row unwritten (all zeros), so the collector refuses it when it is
  // built, naming the event, before any unit runs.
  pmu::Machine m("dup", 2, 7);
  for (const char* name : {"A", "B", "C"}) {
    m.add_event({name, "", {{"x", 1.0}}, {}});
  }
  const std::vector<pmu::Activity> acts{{{"x", 1e6}}};
  for (const std::vector<std::string>& names :
       {std::vector<std::string>{"A", "A"},
        std::vector<std::string>{"A", "B", "C", "A"}}) {
    try {
      vpapi::Collector collector(m, names, acts);
      ADD_FAILURE() << "duplicate event accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("duplicate event A"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(vpapi::collect(m, names, acts, reps(2, 4)),
                 std::invalid_argument);
  }
  // Distinct names still collect: every row reads its event.
  const auto ok = vpapi::collect(m, {"A", "B", "C"}, acts, reps(2, 1));
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(ok.measurements.row(e, 1)[0], 1e6);
  }
}

}  // namespace
}  // namespace catalyst
