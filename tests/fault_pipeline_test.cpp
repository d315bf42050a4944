// The `fault_pipeline` CI job (scripts/check.sh fault_pipeline): the FULL
// paper pipeline for Tables V-VIII, run under the canonical mid-rate fault
// plan, must reproduce the clean goldens EXACTLY -- same kept events, same
// selected events, same rounded coefficients.  This is the end-to-end form
// of the robustness claim: realistic fault rates cost retries, never
// results.
#include <gtest/gtest.h>

#include <string>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

struct TableCase {
  const char* name;        // which paper table this covers
  const char* category;
};

class FaultPipeline : public ::testing::TestWithParam<TableCase> {
 protected:
  static pmu::Machine machine_for(const std::string& category) {
    return category == "gpu_flops" ? pmu::tempest_gpu() : pmu::saphira_cpu();
  }
  static cat::Benchmark benchmark_for(const std::string& category) {
    if (category == "cpu_flops") return cat::cpu_flops_benchmark();
    if (category == "gpu_flops") return cat::gpu_flops_benchmark();
    if (category == "branch") return cat::branch_benchmark();
    cat::DcacheOptions chase;
    chase.threads = 3;
    return cat::dcache_benchmark(chase);
  }
  static std::vector<MetricSignature> signatures_for(
      const std::string& category) {
    if (category == "cpu_flops") return cpu_flops_signatures();
    if (category == "gpu_flops") return gpu_flops_signatures();
    if (category == "branch") return branch_signatures();
    return dcache_signatures();
  }
  static PipelineOptions options_for(const std::string& category) {
    PipelineOptions options;
    if (category == "dcache") {
      // Section IV / V-E: the cache runs use relaxed thresholds.
      options.tau = 1e-1;
      options.alpha = 5e-2;
      options.projection_max_error = 1e-1;
      options.fitness_threshold = 5e-2;
    }
    return options;
  }
};

TEST_P(FaultPipeline, MidRateFaultsReproduceTheTableExactly) {
  const std::string category = GetParam().category;
  const pmu::Machine machine = machine_for(category);
  const cat::Benchmark bench = benchmark_for(category);
  const auto signatures = signatures_for(category);
  const auto options = options_for(category);

  const auto clean = run_pipeline(machine, bench, signatures, options);
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions campaign;
  campaign.pipeline = options;
  campaign.fault_plan = &plan;
  const auto faulty =
      run_campaign(machine, bench, signatures, campaign).result;

  // Mid-rate faults must never exhaust the retry budget.
  EXPECT_TRUE(faulty.quarantined_events.empty());
  ASSERT_TRUE(faulty.collection.has_value());
  EXPECT_GT(faulty.collection->total_retries, 0u)
      << "the plan injected nothing -- the test is vacuous";

  // Kept events after the noise filter, selected events, and measurements
  // are all bit-identical to the clean run.
  EXPECT_EQ(clean.all_event_names, faulty.all_event_names);
  EXPECT_EQ(clean.measurements, faulty.measurements);
  EXPECT_EQ(clean.noise.kept, faulty.noise.kept);
  ASSERT_EQ(clean.xhat_events, faulty.xhat_events);

  // The published table content: rounded coefficients, exactly.
  ASSERT_EQ(clean.metrics.size(), faulty.metrics.size());
  for (std::size_t i = 0; i < clean.metrics.size(); ++i) {
    EXPECT_EQ(clean.metrics[i].metric_name, faulty.metrics[i].metric_name);
    const auto a = round_coefficients(clean.metrics[i].terms);
    const auto b = round_coefficients(faulty.metrics[i].terms);
    ASSERT_EQ(a.size(), b.size()) << clean.metrics[i].metric_name;
    for (std::size_t t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a[t].event_name, b[t].event_name);
      EXPECT_EQ(a[t].coefficient, b[t].coefficient)
          << clean.metrics[i].metric_name << " / " << a[t].event_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TablesVToVIII, FaultPipeline,
    ::testing::Values(TableCase{"TableV", "cpu_flops"},
                      TableCase{"TableVI", "gpu_flops"},
                      TableCase{"TableVII", "branch"},
                      TableCase{"TableVIII", "dcache"}),
    [](const ::testing::TestParamInfo<TableCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace catalyst::core
