// Cross-path oracle: every way of running the collection front half must
// produce the same analysis input and the same archive bytes.
//
// For all six categories the paths below must agree on all_event_names,
// measurements, the QRCP selection and the rounded metric table:
//   * run_pipeline;
//   * a clean run_campaign;
//   * run_campaign with a disabled fault plan;
//   * a checkpointed campaign, resumed after its last batch file is deleted;
//   * counting mode through the sampled entry point.
// The archive digests pin the serialized bytes (fnv1a of save_archive) of
// each category's plain archive and of the two v2 archives the CLI writes
// for `collect branch --faults mid` and `collect branch --mode strobed`.
// Sampling with dither off is not byte-identical to counting, so it is not
// one of the paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>

#include "core/campaign.hpp"
#include "core/io.hpp"
#include "core/report.hpp"
#include "pmu/measure.hpp"
#include "service/catalog.hpp"

namespace catalyst::core {
namespace {

namespace fs = std::filesystem;

struct OracleCase {
  const char* category;
  std::uint64_t archive_digest;  ///< fnv1a(save_archive(make_archive(...))).
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.category; }

struct Rig {
  explicit Rig(const std::string& category)
      : setup(*service::category_setup(category)),
        machine(*service::machine_by_name(setup.default_machine)) {}
  service::CategorySetup setup;
  pmu::Machine machine;
};

std::string rounded_table(const PipelineResult& r) {
  return format_metric_table("oracle", r.metrics, /*rounded=*/true);
}

void expect_same_analysis(const PipelineResult& want,
                          const PipelineResult& got, const char* path) {
  SCOPED_TRACE(path);
  EXPECT_EQ(want.all_event_names, got.all_event_names);
  EXPECT_EQ(want.measurements, got.measurements);
  EXPECT_EQ(want.qr.selected, got.qr.selected);
  EXPECT_EQ(rounded_table(want), rounded_table(got));
}

class CrossPathOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(CrossPathOracle, EveryFrontHalfAgrees) {
  const Rig s(GetParam().category);
  const PipelineResult plain = run_pipeline(s.machine, s.setup.benchmark,
                                            s.setup.signatures,
                                            s.setup.options);
  EXPECT_EQ(pmu::fnv1a(save_archive(
                make_archive(s.machine, s.setup.benchmark, plain))),
            GetParam().archive_digest);

  CampaignOptions clean;
  clean.pipeline = s.setup.options;
  expect_same_analysis(plain,
                       run_campaign(s.machine, s.setup.benchmark,
                                    s.setup.signatures, clean)
                           .result,
                       "clean run_campaign");

  const faults::FaultPlan disabled;
  CampaignOptions idle = clean;
  idle.fault_plan = &disabled;
  expect_same_analysis(plain,
                       run_campaign(s.machine, s.setup.benchmark,
                                    s.setup.signatures, idle)
                           .result,
                       "disabled fault plan");

  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("oracle_ckpt_") + GetParam().category);
  fs::remove_all(dir);
  CampaignOptions ckpt = clean;
  ckpt.checkpoint.directory = dir.string();
  run_campaign(s.machine, s.setup.benchmark, s.setup.signatures, ckpt);
  const std::size_t last = s.setup.options.repetitions - 1;
  ASSERT_TRUE(fs::remove(dir / ("batch-" + std::to_string(last) + ".json")));
  ckpt.checkpoint.resume = true;
  const CampaignResult resumed =
      run_campaign(s.machine, s.setup.benchmark, s.setup.signatures, ckpt);
  EXPECT_EQ(resumed.batches_resumed, last);
  expect_same_analysis(plain, resumed.result, "resumed checkpoint");
  fs::remove_all(dir);

  CampaignOptions counting = clean;
  counting.collection_mode = vpapi::CollectionMode::counting;
  counting.sample_schedule.period_ns = 7;  // ignored when counting
  counting.sample_schedule.short_period_ns = 3;
  expect_same_analysis(plain,
                       run_campaign(s.machine, s.setup.benchmark,
                                    s.setup.signatures, counting)
                           .result,
                       "counting through the sampled entry point");
}

// Digests recorded before the collection paths were merged.
INSTANTIATE_TEST_SUITE_P(
    Categories, CrossPathOracle,
    ::testing::Values(OracleCase{"cpu_flops", 2968949070779577112ull},
                      OracleCase{"gpu_flops", 2177653066860650729ull},
                      OracleCase{"branch", 595279620033505628ull},
                      OracleCase{"dcache", 12881180487604992975ull},
                      OracleCase{"icache", 16073071719003410971ull},
                      OracleCase{"gpu_dcache", 14426319183517366746ull}),
    [](const ::testing::TestParamInfo<OracleCase>& case_info) {
      return std::string(case_info.param.category);
    });

TEST(CrossPathOracleArchives, FaultyCollectArchiveDigest) {
  // What `catalyst collect branch --faults mid` saves.
  const Rig s("branch");
  const faults::FaultPlan plan = faults::FaultPlan::mid_rate();
  CampaignOptions options;
  options.pipeline = s.setup.options;
  options.fault_plan = &plan;
  const CampaignResult out =
      run_campaign(s.machine, s.setup.benchmark, s.setup.signatures, options);
  EXPECT_EQ(pmu::fnv1a(save_archive(
                make_archive(s.machine, s.setup.benchmark, out.result))),
            4336759065032342031ull);
}

TEST(CrossPathOracleArchives, StrobedCollectArchiveDigest) {
  // What `catalyst collect branch --mode strobed` saves.
  const Rig s("branch");
  CampaignOptions options;
  options.pipeline = s.setup.options;
  options.collection_mode = vpapi::CollectionMode::strobed;
  const CampaignResult out =
      run_campaign(s.machine, s.setup.benchmark, s.setup.signatures, options);
  EXPECT_EQ(pmu::fnv1a(save_archive(
                make_archive(s.machine, s.setup.benchmark, out.result))),
            8566392646962365547ull);
}

}  // namespace
}  // namespace catalyst::core
