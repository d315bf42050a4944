// Tests for the noise classifier (future-work extension): each regime must
// be recognized from repetition data, both hand-built and produced by the
// PMU noise models.
#include "core/noise_classify.hpp"

#include "core/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "cat/cat.hpp"
#include "core/pipeline.hpp"
#include "core/signatures.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

/// One event's repetition vectors as a one-event tensor (a ragged input
/// throws std::invalid_argument).
vpapi::Measurements tensor(const std::vector<std::vector<double>>& reps) {
  std::vector<double> values;
  for (const auto& rep : reps) {
    values.insert(values.end(), rep.begin(), rep.end());
  }
  return vpapi::Measurements(1, reps.size(), reps.empty() ? 0 : reps[0].size(),
                             std::move(values));
}

TEST(NoiseClassify, Silent) {
  auto p = classify_noise(tensor({{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}), 0);
  EXPECT_EQ(p.cls, NoiseClass::silent);
  EXPECT_EQ(std::string(to_string(p.cls)), "silent");
}

TEST(NoiseClassify, Deterministic) {
  auto p =
      classify_noise(tensor({{10, 20, 30}, {10, 20, 30}, {10, 20, 30}}), 0);
  EXPECT_EQ(p.cls, NoiseClass::deterministic);
  EXPECT_EQ(p.max_rnmse, 0.0);
}

TEST(NoiseClassify, DriftingTrend) {
  // Means rise monotonically: 100 -> 101 -> 102 -> 103 (1% per rep).
  std::vector<std::vector<double>> reps;
  for (int r = 0; r < 4; ++r) {
    const double scale = 1.0 + 0.01 * r;
    reps.push_back({100 * scale, 200 * scale, 300 * scale});
  }
  auto p = classify_noise(tensor(reps), 0);
  EXPECT_EQ(p.cls, NoiseClass::drifting) << to_string(p.cls);
  EXPECT_GT(p.drift_correlation, 0.99);
  EXPECT_GT(p.drift_magnitude, 0.01);
}

TEST(NoiseClassify, SpikyOutlier) {
  // One reading blown up by an interrupt; everything else jitters slightly.
  std::vector<std::vector<double>> reps{
      {100, 200, 301}, {101, 199, 300}, {99, 200, 300},
      {100, 201, 300}, {100, 200, 5000},
  };
  auto p = classify_noise(tensor(reps), 0);
  EXPECT_EQ(p.cls, NoiseClass::spiky) << to_string(p.cls);
  EXPECT_GT(p.spike_ratio, 8.0);
}

TEST(NoiseClassify, GaussianJitter) {
  std::vector<std::vector<double>> reps{
      {1002, 1998, 3004}, {998, 2003, 2996}, {1001, 1997, 3001},
      {997, 2002, 2999}, {1003, 2000, 2998},
  };
  auto p = classify_noise(tensor(reps), 0);
  EXPECT_EQ(p.cls, NoiseClass::gaussian) << to_string(p.cls);
}

TEST(NoiseClassify, ValidatesInput) {
  EXPECT_THROW(classify_noise(tensor({{1, 2}}), 0), std::invalid_argument);
  EXPECT_THROW(classify_noise(tensor({{1, 2}, {1}}), 0),
               std::invalid_argument);
  EXPECT_THROW(classify_noise(tensor({{}, {}}), 0), std::invalid_argument);
}

// --- against the PMU noise models ------------------------------------------------

vpapi::Measurements measure_reps(const pmu::NoiseModel& noise,
                                 std::size_t n_reps) {
  pmu::Machine m("nc", 4, 321);
  m.add_event({"E", "", {{"x", 1.0}}, noise});
  std::vector<pmu::Activity> acts{{{"x", 1e6}}, {{"x", 2e6}}, {{"x", 3e6}}};
  std::vector<std::vector<double>> reps;
  for (std::size_t r = 0; r < n_reps; ++r) {
    std::vector<double> row;
    for (std::size_t k = 0; k < acts.size(); ++k) {
      row.push_back(pmu::measure_event(m, m.event(0), acts[k], r, k));
    }
    reps.push_back(std::move(row));
  }
  return tensor(reps);
}

TEST(NoiseClassifyPmu, NoiseFreeEventIsDeterministic) {
  auto p = classify_noise(measure_reps(pmu::NoiseModel::none(), 5), 0);
  EXPECT_EQ(p.cls, NoiseClass::deterministic);
}

TEST(NoiseClassifyPmu, RelativeJitterIsGaussian) {
  auto p =
      classify_noise(measure_reps(pmu::NoiseModel::relative(1e-3), 8), 0);
  EXPECT_EQ(p.cls, NoiseClass::gaussian) << to_string(p.cls);
}

TEST(NoiseClassifyPmu, DriftModelIsDrifting) {
  auto p =
      classify_noise(measure_reps(pmu::NoiseModel::drifting(5e-3), 6), 0);
  EXPECT_EQ(p.cls, NoiseClass::drifting) << to_string(p.cls);
}

TEST(NoiseClassifyPmu, SpikeModelIsSpikyOrGaussianNeverDrifting) {
  // Spikes are rare; with enough reps at least the classifier must not see
  // a systematic trend.
  auto p = classify_noise(
      measure_reps(pmu::NoiseModel::spiky(0.3, 5e5), 10), 0);
  EXPECT_NE(p.cls, NoiseClass::drifting) << to_string(p.cls);
  EXPECT_NE(p.cls, NoiseClass::deterministic);
}

// --- detrending --------------------------------------------------------------------

TEST(Detrend, RescuesPureDriftBelowStrictTau) {
  // 1% per-rep multiplicative drift: raw max-RNMSE is ~3%, detrended ~0.
  std::vector<std::vector<double>> reps;
  for (int r = 0; r < 4; ++r) {
    const double scale = 1.0 + 0.01 * r;
    reps.push_back({1000 * scale, 2000 * scale, 3000 * scale});
  }
  vpapi::Measurements m = tensor(reps);
  EXPECT_GT(max_rnmse(m, 0), 1e-3);
  detrend_repetitions(m, 0);
  EXPECT_LT(max_rnmse(m, 0), 1e-10);
  // Only roundoff fuzz remains: the trend verdict must be gone (the result
  // is deterministic up to 1e-16-level division noise).
  EXPECT_NE(classify_noise(m, 0, 0.9, 8.0).cls, NoiseClass::drifting);
}

TEST(Detrend, LeavesTrendFreeDataAlmostUnchanged) {
  std::vector<std::vector<double>> reps{{100, 200}, {101, 199}, {99, 201},
                                        {100, 200}};
  vpapi::Measurements out = tensor(reps);
  detrend_repetitions(out, 0);
  for (std::size_t r = 0; r < reps.size(); ++r) {
    for (std::size_t k = 0; k < reps[r].size(); ++k) {
      EXPECT_NEAR(out.row(0, r)[k], reps[r][k], 2.0);
    }
  }
}

TEST(Detrend, AllZeroPassesThrough) {
  std::vector<std::vector<double>> reps{{0, 0}, {0, 0}};
  vpapi::Measurements m = tensor(reps);
  detrend_repetitions(m, 0);
  EXPECT_EQ(m, tensor(reps));
}

TEST(Detrend, ValidatesInput) {
  vpapi::Measurements one_rep = tensor({{1.0}});
  EXPECT_THROW(detrend_repetitions(one_rep, 0), std::invalid_argument);
}

TEST(Detrend, RescuesPmuDriftModelEndToEnd) {
  // The planted Saphira cycles drift: raw reps fail tau = 1e-10 by orders
  // of magnitude; after detrending, only the Gaussian jitter remains.
  auto reps = measure_reps(pmu::NoiseModel::drifting(2e-3), 6);
  EXPECT_GT(max_rnmse(reps, 0), 1e-4);
  detrend_repetitions(reps, 0);
  EXPECT_LT(max_rnmse(reps, 0), 1e-5);
}

TEST(DetrendPipeline, RescuesADriftingEventEndToEnd) {
  // A machine whose ONLY misprediction counter drifts: with the strict tau
  // the branch pipeline cannot compose "Mispredicted Branches"; with
  // detrending enabled it can.
  pmu::Machine m("drifty", 6, 77);
  m.add_event({"BR_RETIRED", "", {{pmu::sig::branch_cond_retired, 1.0}},
               pmu::NoiseModel::none()});
  m.add_event({"BR_TAKEN", "", {{pmu::sig::branch_cond_taken, 1.0}},
               pmu::NoiseModel::none()});
  m.add_event({"BR_UNCOND", "", {{pmu::sig::branch_uncond, 1.0}},
               pmu::NoiseModel::none()});
  // 5% drift per repetition: far above any reasonable tau raw, and far
  // above the integer-quantization floor (~1e-3 at these counts) once
  // detrended.
  m.add_event({"BR_MISPRED_DRIFTY", "",
               {{pmu::sig::branch_mispredicted, 1.0}},
               pmu::NoiseModel::drifting(5e-2)});

  const auto bench = cat::branch_benchmark();
  const auto sigs = core::branch_signatures();
  auto find_misp = [&](const PipelineResult& r) -> const MetricDefinition& {
    for (const auto& metric : r.metrics) {
      if (metric.metric_name == "Mispredicted Branches.") return metric;
    }
    throw std::runtime_error("metric missing");
  };

  // Quantization-tolerant tau: detrending is the only difference between
  // the two runs.
  PipelineOptions base;
  base.tau = 1e-2;
  const auto without = run_pipeline(m, bench, sigs, base);
  EXPECT_FALSE(find_misp(without).composable);

  PipelineOptions with_detrend = base;
  with_detrend.detrend_drifting = true;
  const auto with = run_pipeline(m, bench, sigs, with_detrend);
  EXPECT_TRUE(find_misp(with).composable)
      << find_misp(with).backward_error;
  bool uses_drifty = false;
  for (const auto& t : find_misp(with).terms) {
    if (t.event_name == "BR_MISPRED_DRIFTY" && std::abs(t.coefficient) > 0.5) {
      uses_drifty = true;
    }
  }
  EXPECT_TRUE(uses_drifty);
}

}  // namespace
}  // namespace catalyst::core
