// Integration of catalyst::obs with the pipeline: every stage emits a span,
// retry spans appear under injected faults, stage timings ride on
// PipelineResult into the Markdown report -- and, the determinism contract,
// tracing never changes a single bit of the results.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cat/cat.hpp"
#include "core/report.hpp"
#include "core/signatures.hpp"
#include "faults/faults.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmu/pmu.hpp"
#include "vpapi/collector.hpp"

namespace catalyst {
namespace {

class ObsPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_world(); }
  void TearDown() override { reset_world(); }

  static void reset_world() {
    obs::Tracer::instance().enable(false);
    obs::Tracer::instance().set_clock(nullptr);
    obs::Tracer::instance().reset();
    obs::Metrics::instance().reset();
  }
};

core::PipelineResult run_branch() {
  return core::run_pipeline(pmu::saphira_cpu(), cat::branch_benchmark(),
                            core::branch_signatures());
}

std::set<std::string> span_names() {
  std::set<std::string> names;
  for (const auto& rec : obs::Tracer::instance().buffer().snapshot()) {
    names.insert(rec.name);
  }
  return names;
}

TEST_F(ObsPipelineTest, TracingNeverPerturbsResults) {
  const core::PipelineResult plain = run_branch();

  faults::FakeClock clock;
  obs::Tracer::instance().set_clock(&clock);
  obs::Tracer::instance().enable(true);
  const core::PipelineResult traced = run_branch();
  obs::Tracer::instance().enable(false);

  // Bit-identical, not approximately equal: spans touch no RNG and no data.
  ASSERT_EQ(plain.all_event_names, traced.all_event_names);
  ASSERT_EQ(plain.measurements, traced.measurements);
  ASSERT_EQ(plain.xhat_events, traced.xhat_events);
  ASSERT_EQ(plain.metrics.size(), traced.metrics.size());
  for (std::size_t m = 0; m < plain.metrics.size(); ++m) {
    ASSERT_EQ(plain.metrics[m].terms.size(), traced.metrics[m].terms.size());
    for (std::size_t t = 0; t < plain.metrics[m].terms.size(); ++t) {
      EXPECT_EQ(plain.metrics[m].terms[t].coefficient,
                traced.metrics[m].terms[t].coefficient);
    }
    EXPECT_EQ(plain.metrics[m].backward_error, traced.metrics[m].backward_error);
  }
  // Untraced runs carry no timings (the Markdown timing section only
  // appears when tracing was on).
  EXPECT_TRUE(plain.stage_timings.empty());
}

TEST_F(ObsPipelineTest, EveryPipelineStageEmitsASpan) {
  faults::FakeClock clock;
  obs::Tracer::instance().set_clock(&clock);
  obs::Tracer::instance().enable(true);
  const core::PipelineResult result = run_branch();
  obs::Tracer::instance().enable(false);

  const auto names = span_names();
  for (const char* expected :
       {"stage.collect", "stage.median_normalize", "stage.noise_filter",
        "stage.projection", "stage.qrcp", "stage.metrics", "pipeline.analyze",
        "qrcp.pivot", "vpapi.collect", "collect.unit"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }

  // The same measurement rides on the result as per-stage wall time, in
  // pipeline order under deterministic virtual time.
  ASSERT_GE(result.stage_timings.size(), 5u);
  EXPECT_EQ(result.stage_timings[0].name, "collect");
  EXPECT_EQ(result.stage_timings[1].name, "median_normalize");
  for (const auto& st : result.stage_timings) {
    EXPECT_GT(st.wall_ns, 0) << st.name;
  }

  // Funnel counters registered (exact counts are pipeline-dependent; the
  // ordering invariant is what the manifest schema checks).
  const auto snap = obs::Metrics::instance().snapshot();
  EXPECT_GT(snap.counter("pipeline.events_measured"), 0u);
  EXPECT_GE(snap.counter("pipeline.events_measured"),
            snap.counter("pipeline.events_noise_kept"));
  EXPECT_GE(snap.counter("pipeline.events_noise_kept"),
            snap.counter("pipeline.events_selected"));
  ASSERT_NE(snap.histogram("qrcp.pivot_score"), nullptr);
  EXPECT_EQ(snap.histogram("qrcp.pivot_score")->total_count,
            result.qr.pivot_scores.size());
}

TEST_F(ObsPipelineTest, RetryAndBackoffSpansAppearUnderFaults) {
  // Same tiny faulty machine as collector_resilient_test: high fault rates
  // on few events guarantee retries.
  pmu::Machine m("faulty-tiny", 2, 7);
  m.add_event({"A", "x", {{"x", 1.0}}, {}});
  m.add_event({"B", "2x", {{"x", 2.0}}, {}});
  m.add_event({"C", "y", {{"y", 1.0}}, {}});
  m.add_event({"D", "x+y", {{"x", 1.0}, {"y", 1.0}}, {}});
  m.add_event({"N", "noisy x", {{"x", 1.0}, {"y", 0.5}},
               pmu::NoiseModel::relative(0.05)});
  m.add_event({"Z", "dead", {}, {}});
  const std::vector<std::string> events = {"A", "B", "C", "D", "N", "Z"};
  const std::vector<pmu::Activity> acts{{{"x", 1e6}, {"y", 3e5}},
                                        {{"x", 5e5}},
                                        {{"y", 9e5}}};

  faults::FakeClock clock;
  obs::Tracer::instance().set_clock(&clock);
  obs::Tracer::instance().enable(true);
  // Boosted transient rate: the canonical mid-rate plan on this tiny
  // machine (few readings) can draw zero faults, and the point here is
  // that retries DO produce spans.
  faults::FaultPlan plan = faults::FaultPlan::mid_rate();
  plan.rates.dropped_reading = 0.2;
  plan.rates.wrap = 0.05;
  vpapi::CollectionPlan faulty;
  faulty.repetitions = 3;
  faulty.faults = &plan;
  // Pacing through the injectable clock -> backoff spans.
  faulty.resilience.clock = &clock;
  const auto out = vpapi::collect(m, events, acts, faulty);
  obs::Tracer::instance().enable(false);

  ASSERT_GT(out.report.total_retries, 0u) << "plan injected no faults";
  const auto names = span_names();
  EXPECT_TRUE(names.count("vpapi.collect"));
  EXPECT_TRUE(names.count("collect.unit"));
  EXPECT_TRUE(names.count("collect.retry"));
  EXPECT_TRUE(names.count("collect.backoff"));

  // The campaign-level rollup mirrors the report.
  const auto snap = obs::Metrics::instance().snapshot();
  EXPECT_EQ(snap.counter("collect.retries"), out.report.total_retries);

  // Happy-path attempts are span-quiet (the inert-span idiom): only actual
  // retries produce spans, so there can never be more retry spans than
  // retries tallied in the report.
  std::size_t retry_spans = 0;
  for (const auto& rec : obs::Tracer::instance().buffer().snapshot()) {
    const std::string name(rec.name);
    if (name == "collect.retry" || name == "collect.add_retry") ++retry_spans;
  }
  EXPECT_GT(retry_spans, 0u);
  EXPECT_LE(retry_spans, out.report.total_retries);
}

TEST_F(ObsPipelineTest, MarkdownReportRendersStageTimingsWhenPresent) {
  core::PipelineResult result = run_branch();
  const auto without = core::format_markdown_report("r", result);
  EXPECT_EQ(without.find("## Stage timings"), std::string::npos)
      << "timing section must be absent when tracing was off";

  result.stage_timings = {{"collect", 3'000'000},
                          {"noise_filter", 1'000'000}};
  const auto with = core::format_markdown_report("r", result);
  EXPECT_NE(with.find("## Stage timings"), std::string::npos);
  EXPECT_NE(with.find("| collect |"), std::string::npos);
  EXPECT_NE(with.find("| noise_filter |"), std::string::npos);
  EXPECT_NE(with.find("75.0"), std::string::npos);  // 3ms of 4ms total
}

}  // namespace
}  // namespace catalyst
