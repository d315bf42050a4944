// Golden-file regression for the published table content (Tables V-VIII):
// the rounded metric tables for every machine/category pairing must stay
// BYTE-IDENTICAL to the checked-in goldens under tests/golden/.
//
// After an intended output change, regenerate with
//   scripts/update_golden.sh
// (which re-runs this binary with CATALYST_UPDATE_GOLDEN=1: the test then
// rewrites the golden files instead of comparing against them).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

#ifndef CATALYST_GOLDEN_DIR
#error "golden_tables_test needs CATALYST_GOLDEN_DIR (see tests/CMakeLists.txt)"
#endif

namespace catalyst::core {
namespace {

struct GoldenCase {
  const char* file;      // golden file name under tests/golden/
  const char* title;     // table heading (stored in the golden bytes)
  const char* machine;   // saphira | tempest | vesuvio
  const char* category;  // cpu_flops | gpu_flops | branch | dcache
};

class GoldenTables : public ::testing::TestWithParam<GoldenCase> {
 protected:
  static pmu::Machine machine_for(const std::string& name) {
    if (name == "tempest") return pmu::tempest_gpu();
    if (name == "vesuvio") return pmu::vesuvio_cpu();
    return pmu::saphira_cpu();
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

TEST_P(GoldenTables, RoundedTableMatchesGoldenBytes) {
  const GoldenCase& c = GetParam();
  const auto result =
      run_pipeline(machine_for(c.machine), benchmark_for(c.category),
                   signatures_for(c.category), options_for(c.category));
  const std::string text = format_metric_table(c.title, result.metrics,
                                               /*rounded=*/true);
  const std::string path = std::string(CATALYST_GOLDEN_DIR) + "/" + c.file;

  const char* update = std::getenv("CATALYST_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write golden file " << path;
    out << text;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; run scripts/update_golden.sh";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str())
      << "table output drifted from " << path
      << "; if the change is intended, run scripts/update_golden.sh and "
         "review the diff";
}

INSTANTIATE_TEST_SUITE_P(
    TablesVToVIII, GoldenTables,
    ::testing::Values(
        GoldenCase{"table5_cpu_flops_saphira.txt",
                   "Table V: CPU FLOPS metrics (saphira)", "saphira",
                   "cpu_flops"},
        GoldenCase{"table5_cpu_flops_vesuvio.txt",
                   "Table V: CPU FLOPS metrics (vesuvio)", "vesuvio",
                   "cpu_flops"},
        GoldenCase{"table6_gpu_flops_tempest.txt",
                   "Table VI: GPU FLOPS metrics (tempest)", "tempest",
                   "gpu_flops"},
        GoldenCase{"table7_branch_saphira.txt",
                   "Table VII: branch metrics (saphira)", "saphira",
                   "branch"},
        GoldenCase{"table7_branch_vesuvio.txt",
                   "Table VII: branch metrics (vesuvio)", "vesuvio",
                   "branch"},
        GoldenCase{"table8_dcache_saphira.txt",
                   "Table VIII: data-cache metrics (saphira)", "saphira",
                   "dcache"}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      std::string name = param_info.param.file;
      name = name.substr(0, name.find('.'));
      return name;
    });

}  // namespace
}  // namespace catalyst::core
