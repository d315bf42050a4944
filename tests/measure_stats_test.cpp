// Contracts of the counter-based measurement engine introduced for the
// hot-path overhaul:
//   * the stateless RNG preserves the configured noise magnitudes
//     (rel_sigma / abs_sigma / spike_prob), so noise-class tests stay
//     meaningful,
//   * collection is bit-identical across thread counts,
//   * exceptions from collector worker threads reach the caller.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

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

TEST(CollectorExceptions, WorkerThrowPropagatesToCaller) {
  // A duplicated event name passes the up-front existence check but makes
  // add_event fail inside the unit, i.e. inside a worker thread.  The throw
  // must surface on the calling thread instead of calling std::terminate.
  pmu::Machine m("dup", 2, 7);
  m.add_event({"A", "", {{"x", 1.0}}, {}});
  const std::vector<pmu::Activity> acts{{{"x", 1.0}}};
  EXPECT_THROW(
      vpapi::collect(m, {"A", "A"}, acts, reps(8, 4)),
      std::runtime_error);
}

}  // namespace
}  // namespace catalyst
