// Integration tests: the full analysis pipeline on every benchmark/machine
// pair, asserting the paper's headline results (Sections V and VI,
// Tables V-VIII).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

/// Names of the events behind X's columns (the projection survivors).
std::vector<std::string> x_names(const PipelineResult& res) {
  std::vector<std::string> names;
  for (linalg::index_t j = 0; j < res.projection.x.cols(); ++j) {
    names.push_back(res.x_event(j));
  }
  return names;
}

const MetricDefinition& metric(const PipelineResult& res,
                               const std::string& name) {
  for (const auto& m : res.metrics) {
    if (m.metric_name == name) return m;
  }
  throw std::runtime_error("metric not found: " + name);
}

double coefficient(const MetricDefinition& def, const std::string& event) {
  for (const auto& t : def.terms) {
    if (t.event_name == event) return t.coefficient;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// CPU FLOPs (Sections V-A, VI-A; Table V)
// ---------------------------------------------------------------------------

class CpuFlopsPipeline : public ::testing::Test {
 protected:
  static const PipelineResult& result() {
    static const PipelineResult res = [] {
      const pmu::Machine machine = pmu::saphira_cpu();
      const cat::Benchmark bench = cat::cpu_flops_benchmark();
      PipelineOptions opt;  // tau = 1e-10, alpha = 5e-4: the paper's values
      return run_pipeline(machine, bench, cpu_flops_signatures(), opt);
    }();
    return res;
  }
};

TEST_F(CpuFlopsPipeline, QrSelectsExactlyTheEightFpArithEvents) {
  const auto& events = result().xhat_events;
  ASSERT_EQ(events.size(), 8u) << format_selected_events(result());
  for (const char* suffix :
       {"SCALAR_SINGLE", "SCALAR_DOUBLE", "128B_PACKED_SINGLE",
        "128B_PACKED_DOUBLE", "256B_PACKED_SINGLE", "256B_PACKED_DOUBLE",
        "512B_PACKED_SINGLE", "512B_PACKED_DOUBLE"}) {
    EXPECT_TRUE(contains(events,
                         std::string("FP_ARITH_INST_RETIRED:") + suffix))
        << suffix;
  }
}

TEST_F(CpuFlopsPipeline, InstrAndOpsMetricsAreComposable) {
  for (const char* name : {"SP Instrs.", "SP Ops.", "DP Instrs.", "DP Ops."}) {
    const auto& m = metric(result(), name);
    EXPECT_TRUE(m.composable) << name << " err=" << m.backward_error;
    EXPECT_LT(m.backward_error, 1e-10) << name;
  }
}

TEST_F(CpuFlopsPipeline, DpOpsCoefficientsMatchTableV) {
  const auto& m = metric(result(), "DP Ops.");
  EXPECT_NEAR(coefficient(m, "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE"), 1.0,
              1e-6);
  EXPECT_NEAR(coefficient(m, "FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE"), 2.0,
              1e-6);
  EXPECT_NEAR(coefficient(m, "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE"), 4.0,
              1e-6);
  EXPECT_NEAR(coefficient(m, "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE"), 8.0,
              1e-6);
  // No contamination from the SP events.
  EXPECT_NEAR(coefficient(m, "FP_ARITH_INST_RETIRED:SCALAR_SINGLE"), 0.0,
              1e-6);
}

TEST_F(CpuFlopsPipeline, SpInstrsCoefficientsAreAllOnes) {
  const auto& m = metric(result(), "SP Instrs.");
  for (const char* e :
       {"FP_ARITH_INST_RETIRED:SCALAR_SINGLE",
        "FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE"}) {
    EXPECT_NEAR(coefficient(m, e), 1.0, 1e-6) << e;
  }
}

TEST_F(CpuFlopsPipeline, FmaInstrsMetricsAreNotComposable) {
  // Table V: the FMA-instruction metrics come out as 0.8 x (each event)
  // with backward error ~2.4e-1 -- the architecture has no FMA-only events.
  for (const char* name : {"SP FMA Instrs.", "DP FMA Instrs."}) {
    const auto& m = metric(result(), name);
    EXPECT_FALSE(m.composable) << name;
    EXPECT_NEAR(m.backward_error, 2.4e-1, 8e-2) << name;
  }
  const auto& dp = metric(result(), "DP FMA Instrs.");
  EXPECT_NEAR(coefficient(dp, "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE"),
              0.8, 1e-3);
}

TEST_F(CpuFlopsPipeline, AggregateFpEventsWerePrunedByQr) {
  // FP_ARITH_INST_RETIRED:VECTOR/:ANY are exact linear combinations of the
  // eight selected events: they survive noise + projection but must NOT be
  // in X-hat.
  const auto proj_names = x_names(result());
  EXPECT_TRUE(contains(proj_names, "FP_ARITH_INST_RETIRED:VECTOR"));
  EXPECT_TRUE(contains(proj_names, "FP_ARITH_INST_RETIRED:ANY"));
  EXPECT_FALSE(contains(result().xhat_events, "FP_ARITH_INST_RETIRED:VECTOR"));
  EXPECT_FALSE(contains(result().xhat_events, "FP_ARITH_INST_RETIRED:ANY"));
}

TEST_F(CpuFlopsPipeline, CyclesEventsNeverReachX) {
  // Cycle counters are noisy (dropped by tau) AND unrepresentable; they
  // must not appear among the projected events.
  const auto proj_names = x_names(result());
  EXPECT_FALSE(contains(proj_names, "CPU_CLK_UNHALTED:THREAD"));
  EXPECT_FALSE(contains(proj_names, "TOPDOWN:SLOTS"));
}

TEST_F(CpuFlopsPipeline, ZeroNoiseClusterExists) {
  // Fig. 2b: a cluster of events with (near-)zero variability, well
  // separated from the noisy tail.
  std::size_t zero_noise = 0;
  std::size_t noisy = 0;
  for (const auto& v : result().noise.variabilities) {
    if (v.all_zero) continue;
    if (v.max_rnmse <= 1e-10) ++zero_noise;
    if (v.max_rnmse > 1e-4) ++noisy;
  }
  EXPECT_GT(zero_noise, 10u);
  EXPECT_GT(noisy, 50u);
}

// ---------------------------------------------------------------------------
// GPU FLOPs (Sections V-B, VI-B; Table VI)
// ---------------------------------------------------------------------------

class GpuFlopsPipeline : public ::testing::Test {
 protected:
  static const PipelineResult& result() {
    static const PipelineResult res = [] {
      const pmu::Machine machine = pmu::tempest_gpu();
      const cat::Benchmark bench = cat::gpu_flops_benchmark();
      PipelineOptions opt;
      return run_pipeline(machine, bench, gpu_flops_signatures(), opt);
    }();
    return res;
  }
};

TEST_F(GpuFlopsPipeline, QrSelectsTheTwelveValuFpEvents) {
  const auto& events = result().xhat_events;
  ASSERT_EQ(events.size(), 12u) << format_selected_events(result());
  for (const char* op : {"ADD", "MUL", "TRANS", "FMA"}) {
    for (const char* p : {"F16", "F32", "F64"}) {
      const std::string name = std::string("rocm:::SQ_INSTS_VALU_") + op +
                               "_" + p + ":device=0";
      EXPECT_TRUE(contains(events, name)) << name;
    }
  }
}

TEST_F(GpuFlopsPipeline, HpAddAloneIsNotComposable) {
  // Table VI: HP Add and HP Sub cannot be separated; least squares puts
  // ~0.5 on the combined ADD counter with error ~4.1e-1.
  const auto& add = metric(result(), "HP Add Ops.");
  EXPECT_FALSE(add.composable);
  EXPECT_NEAR(add.backward_error, 4.1e-1, 1.5e-1);
  EXPECT_NEAR(coefficient(add, "rocm:::SQ_INSTS_VALU_ADD_F16:device=0"), 0.5,
              1e-3);
  const auto& sub = metric(result(), "HP Sub Ops.");
  EXPECT_FALSE(sub.composable);
  EXPECT_NEAR(coefficient(sub, "rocm:::SQ_INSTS_VALU_ADD_F16:device=0"), 0.5,
              1e-3);
}

TEST_F(GpuFlopsPipeline, CombinedAddSubIsExact) {
  const auto& m = metric(result(), "HP Add and Sub Ops.");
  EXPECT_TRUE(m.composable) << m.backward_error;
  EXPECT_NEAR(coefficient(m, "rocm:::SQ_INSTS_VALU_ADD_F16:device=0"), 1.0,
              1e-6);
}

TEST_F(GpuFlopsPipeline, AllOpsMetricsMatchTableVI) {
  for (const char* prec : {"HP", "SP", "DP"}) {
    const std::string name = std::string("All ") + prec + " Ops.";
    const auto& m = metric(result(), name);
    EXPECT_TRUE(m.composable) << name << " err=" << m.backward_error;
    const char* suffix = prec == std::string("HP")   ? "F16"
                         : prec == std::string("SP") ? "F32"
                                                     : "F64";
    EXPECT_NEAR(coefficient(m, std::string("rocm:::SQ_INSTS_VALU_FMA_") +
                                   suffix + ":device=0"),
                2.0, 1e-6);
    EXPECT_NEAR(coefficient(m, std::string("rocm:::SQ_INSTS_VALU_MUL_") +
                                   suffix + ":device=0"),
                1.0, 1e-6);
  }
}

TEST_F(GpuFlopsPipeline, IdleDeviceEventsDoNotReachX) {
  for (const auto& name : x_names(result())) {
    EXPECT_EQ(name.find("device=3"), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------------
// Branching (Sections V-C, VI-C; Table VII)
// ---------------------------------------------------------------------------

class BranchPipeline : public ::testing::Test {
 protected:
  static const PipelineResult& result() {
    static const PipelineResult res = [] {
      const pmu::Machine machine = pmu::saphira_cpu();
      const cat::Benchmark bench = cat::branch_benchmark();
      PipelineOptions opt;
      return run_pipeline(machine, bench, branch_signatures(), opt);
    }();
    return res;
  }
};

TEST_F(BranchPipeline, QrSelectsTheFourPaperEvents) {
  const auto& events = result().xhat_events;
  ASSERT_EQ(events.size(), 4u) << format_selected_events(result());
  EXPECT_TRUE(contains(events, "BR_MISP_RETIRED"));
  EXPECT_TRUE(contains(events, "BR_INST_RETIRED:COND"));
  EXPECT_TRUE(contains(events, "BR_INST_RETIRED:COND_TAKEN"));
  EXPECT_TRUE(contains(events, "BR_INST_RETIRED:ALL_BRANCHES"));
}

TEST_F(BranchPipeline, ComposableMetricsMatchTableVII) {
  // Unconditional = ALL - COND.
  const auto& uncond = metric(result(), "Unconditional Branches.");
  EXPECT_TRUE(uncond.composable) << uncond.backward_error;
  EXPECT_NEAR(coefficient(uncond, "BR_INST_RETIRED:ALL_BRANCHES"), 1.0, 1e-6);
  EXPECT_NEAR(coefficient(uncond, "BR_INST_RETIRED:COND"), -1.0, 1e-6);
  // Not Taken = COND - COND_TAKEN.
  const auto& ntaken = metric(result(), "Conditional Branches Not Taken.");
  EXPECT_TRUE(ntaken.composable);
  EXPECT_NEAR(coefficient(ntaken, "BR_INST_RETIRED:COND"), 1.0, 1e-6);
  EXPECT_NEAR(coefficient(ntaken, "BR_INST_RETIRED:COND_TAKEN"), -1.0, 1e-6);
  // Correctly Predicted = COND - MISP.
  const auto& correct = metric(result(), "Correctly Predicted Branches.");
  EXPECT_TRUE(correct.composable);
  EXPECT_NEAR(coefficient(correct, "BR_MISP_RETIRED"), -1.0, 1e-6);
  // One-to-one metrics.
  EXPECT_NEAR(coefficient(metric(result(), "Mispredicted Branches."),
                          "BR_MISP_RETIRED"),
              1.0, 1e-6);
  EXPECT_NEAR(coefficient(metric(result(), "Conditional Branches Taken."),
                          "BR_INST_RETIRED:COND_TAKEN"),
              1.0, 1e-6);
}

TEST_F(BranchPipeline, BranchesExecutedIsImpossibleWithErrorOne) {
  const auto& m = metric(result(), "Conditional Branches Executed.");
  EXPECT_FALSE(m.composable);
  EXPECT_NEAR(m.backward_error, 1.0, 1e-6);
  // All coefficients effectively zero (paper: 1e-16-scale garbage).
  for (const auto& t : m.terms) {
    EXPECT_LT(std::fabs(t.coefficient), 1e-8) << t.event_name;
  }
}

// ---------------------------------------------------------------------------
// Data caches (Sections V-D, VI-D; Table VIII)
// ---------------------------------------------------------------------------

class DcachePipeline : public ::testing::Test {
 protected:
  static const PipelineResult& result() {
    static const PipelineResult res = [] {
      const pmu::Machine machine = pmu::saphira_cpu();
      cat::DcacheOptions dopt;
      dopt.threads = 3;
      const cat::Benchmark bench = cat::dcache_benchmark(dopt);
      PipelineOptions opt;
      opt.tau = 1e-1;    // Section IV: lenient threshold for cache noise
      opt.alpha = 5e-2;  // Section V-E: looser rounding tolerance
      opt.projection_max_error = 1e-1;
      opt.fitness_threshold = 5e-2;  // cache coefficients carry %-level noise
      return run_pipeline(machine, bench, dcache_signatures(), opt);
    }();
    return res;
  }
};

TEST_F(DcachePipeline, QrSelectsOneEventPerCacheDimension) {
  const auto& events = result().xhat_events;
  ASSERT_EQ(events.size(), 4u) << format_selected_events(result());
  // One L1-hit-like, one L1-miss-like, one L2-hit-like, one L3-hit-like
  // event; names may be either of the aliased pairs.
  EXPECT_TRUE(contains(events, "MEM_LOAD_RETIRED:L1_HIT"));
  EXPECT_TRUE(contains(events, "MEM_LOAD_RETIRED:L1_MISS"));
  EXPECT_TRUE(contains(events, "MEM_LOAD_RETIRED:L2_HIT") ||
              contains(events, "L2_RQSTS:DEMAND_DATA_RD_HIT"));
  EXPECT_TRUE(contains(events, "MEM_LOAD_RETIRED:L3_HIT"));
}

TEST_F(DcachePipeline, MetricsComposeWithNearIntegerCoefficients) {
  // Table VIII: every data-cache metric composes; raw coefficients are
  // within a few percent of 0 / +-1 and snap exactly under rounding.
  for (const auto& m : result().metrics) {
    EXPECT_TRUE(m.composable) << m.metric_name << " " << m.backward_error;
    const auto rounded = round_coefficients(m.terms, 0.05);
    for (const auto& t : rounded) {
      EXPECT_DOUBLE_EQ(t.coefficient, std::round(t.coefficient))
          << m.metric_name << " / " << t.event_name;
    }
  }
}

TEST_F(DcachePipeline, RoundedCombinationsMatchTableVIII) {
  const auto& l1r = metric(result(), "L1 Reads.");
  const auto rounded = round_coefficients(l1r.terms, 0.05);
  double hit_coeff = 0.0, miss_coeff = 0.0;
  for (const auto& t : rounded) {
    if (t.event_name == "MEM_LOAD_RETIRED:L1_HIT") hit_coeff = t.coefficient;
    if (t.event_name == "MEM_LOAD_RETIRED:L1_MISS") miss_coeff = t.coefficient;
  }
  EXPECT_DOUBLE_EQ(hit_coeff, 1.0);
  EXPECT_DOUBLE_EQ(miss_coeff, 1.0);

  // L2 Misses = L1_MISS - L2 hit event (whichever alias was selected).
  const auto& l2m = metric(result(), "L2 Misses.");
  const auto r2 = round_coefficients(l2m.terms, 0.05);
  double l2hit_coeff = 0.0;
  for (const auto& t : r2) {
    if (t.event_name == "MEM_LOAD_RETIRED:L2_HIT" ||
        t.event_name == "L2_RQSTS:DEMAND_DATA_RD_HIT") {
      l2hit_coeff = t.coefficient;
    }
  }
  EXPECT_DOUBLE_EQ(l2hit_coeff, -1.0);
}

TEST_F(DcachePipeline, CacheEventsAreNoisyButBelowLenientTau) {
  // Fig. 2d: cache events form a variability continuum; the chosen events
  // must be noisy (above the strict 1e-10) yet below 1e-1.
  for (const auto& v : result().noise.variabilities) {
    if (v.event_name == "MEM_LOAD_RETIRED:L1_HIT") {
      EXPECT_GT(v.max_rnmse, 1e-10);
      EXPECT_LE(v.max_rnmse, 1e-1);
    }
  }
}

}  // namespace
}  // namespace catalyst::core
