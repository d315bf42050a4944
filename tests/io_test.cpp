// Tests for measurement archives: roundtrip fidelity and the key property
// that OFFLINE analysis of an archive equals the ONLINE pipeline run.
#include "core/io.hpp"

#include "json/json.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "cat/cat.hpp"
#include "core/signatures.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

class ArchiveFixture : public ::testing::Test {
 protected:
  static const pmu::Machine& machine() {
    static const pmu::Machine m = pmu::saphira_cpu();
    return m;
  }
  static const cat::Benchmark& bench() {
    static const cat::Benchmark b = cat::branch_benchmark();
    return b;
  }
  static const PipelineResult& online() {
    static const PipelineResult r =
        run_pipeline(machine(), bench(), branch_signatures());
    return r;
  }
};

TEST_F(ArchiveFixture, RoundTripPreservesEverything) {
  const auto archive = make_archive(machine(), bench(), online());
  const auto text = save_archive(archive);
  const auto loaded = load_archive(text);

  EXPECT_EQ(loaded.format_version, archive.format_version);
  EXPECT_EQ(loaded.machine_name, "saphira-cpu");
  EXPECT_EQ(loaded.benchmark_name, "cat-branch");
  EXPECT_EQ(loaded.slot_names, archive.slot_names);
  EXPECT_EQ(loaded.basis_labels, archive.basis_labels);
  EXPECT_EQ(loaded.event_names, archive.event_names);
  EXPECT_LT(linalg::Matrix::max_abs_diff(loaded.expectation,
                                         archive.expectation),
            1e-15);
  ASSERT_EQ(loaded.measurements.size(), archive.measurements.size());
  EXPECT_EQ(loaded.measurements, archive.measurements);
}

TEST_F(ArchiveFixture, PrettyPrintedArchiveLoadsToo) {
  const auto archive = make_archive(machine(), bench(), online());
  const auto loaded = load_archive(save_archive(archive, 2));
  EXPECT_EQ(loaded.measurements, archive.measurements);
}

TEST_F(ArchiveFixture, OfflineAnalysisEqualsOnlinePipeline) {
  const auto archive = make_archive(machine(), bench(), online());
  const auto offline =
      analyze_archive(load_archive(save_archive(archive)),
                      branch_signatures());
  EXPECT_EQ(offline.xhat_events, online().xhat_events);
  ASSERT_EQ(offline.metrics.size(), online().metrics.size());
  for (std::size_t i = 0; i < offline.metrics.size(); ++i) {
    EXPECT_EQ(offline.metrics[i].composable, online().metrics[i].composable);
    EXPECT_NEAR(offline.metrics[i].backward_error,
                online().metrics[i].backward_error, 1e-12);
    for (std::size_t t = 0; t < offline.metrics[i].terms.size(); ++t) {
      EXPECT_NEAR(offline.metrics[i].terms[t].coefficient,
                  online().metrics[i].terms[t].coefficient, 1e-9);
    }
  }
}

TEST_F(ArchiveFixture, LoadRejectsCorruptedArchives) {
  const auto archive = make_archive(machine(), bench(), online());
  auto text = save_archive(archive);

  // Wrong version.
  auto bad = text;
  bad.replace(bad.find("catalyst-measurements-v1"), 24,
              "catalyst-measurements-v9");
  EXPECT_THROW(load_archive(bad), std::invalid_argument);

  // Not JSON at all.
  EXPECT_THROW(load_archive("not json"), json::JsonError);

  // Missing key.
  EXPECT_THROW(load_archive(R"({"format": "catalyst-measurements-v1"})"),
               json::JsonError);
}

TEST_F(ArchiveFixture, LoadRejectsShapeMismatches) {
  // Hand-build a tiny structurally-broken archive: 2 slots but a
  // measurement vector of length 1.
  const std::string bad = R"({
    "format": "catalyst-measurements-v1",
    "machine": "m", "benchmark": "b",
    "slots": ["s1", "s2"],
    "basis": {"labels": ["X"], "e": [[1], [2]]},
    "events": ["E"],
    "measurements": [[[1.0]]]
  })";
  EXPECT_THROW(load_archive(bad), std::invalid_argument);
}

TEST_F(ArchiveFixture, TruncatedArchivesThrowArchiveErrorWithByteOffset) {
  // A crash mid-write can leave ANY prefix of an archive on disk.  Every
  // truncation must surface as a typed ArchiveError naming the byte offset
  // where the input stopped making sense -- never a crash, never a
  // silently-accepted partial archive.
  const auto archive = make_archive(machine(), bench(), online());
  const auto text = save_archive(archive);
  // Sampling prefixes keeps this fast (the archive is ~1 MB); the stride is
  // prime so cut points land in every syntactic context.
  for (std::size_t cut = 1; cut < text.size(); cut += 7919) {
    try {
      (void)load_archive(text.substr(0, cut));
      FAIL() << "truncation at byte " << cut << " was accepted";
    } catch (const ArchiveError& e) {
      EXPECT_NE(e.offset(), std::string::npos) << "cut at " << cut;
      EXPECT_LE(e.offset(), cut) << "cut at " << cut;
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos);
    } catch (const std::invalid_argument&) {
      // Truncation that still parses as JSON (e.g. cut inside a trailing
      // close brace sequence) surfaces as a shape error -- also typed.
    }
  }
}

TEST_F(ArchiveFixture, TruncatedRoundTripNeverTearsSilently) {
  // Complement of the prefix sweep: removing the LAST byte (the most likely
  // torn write) must be rejected, and the full text must still load.
  const auto archive = make_archive(machine(), bench(), online());
  const auto text = save_archive(archive);
  EXPECT_THROW(load_archive(text.substr(0, text.size() - 1)),
               json::JsonError);
  EXPECT_NO_THROW(load_archive(text));
}

TEST(ArchiveV2, QuarantineAndReportRoundTrip) {
  // Hand-build a v2 archive and check the robustness payload survives the
  // trip; the loader must also keep accepting v1 files (no payload).
  MeasurementArchive a;
  a.machine_name = "m";
  a.benchmark_name = "b";
  a.slot_names = {"s1", "s2"};
  a.basis_labels = {"X"};
  a.expectation = linalg::Matrix(2, 1);
  a.expectation(0, 0) = 1.0;
  a.expectation(1, 0) = 2.0;
  a.event_names = {"E"};
  a.measurements = {{{1.0, 2.0}, {1.0, 2.0}}};
  a.quarantined = {"CURSED"};
  vpapi::CollectionReport report;
  report.total_retries = 7;
  report.start_retries = 2;
  report.quarantined = {"CURSED"};
  vpapi::EventReport er;
  er.name = "CURSED";
  er.read_attempts = 9;
  er.retries = 8;
  er.faults[static_cast<std::size_t>(faults::FaultKind::dropped_reading)] = 8;
  er.disposition = vpapi::EventDisposition::quarantined;
  report.events.push_back(er);
  a.collection_report = report;

  const auto text = save_archive(a);
  EXPECT_NE(text.find("catalyst-measurements-v2"), std::string::npos);
  const auto loaded = load_archive(text);
  EXPECT_EQ(loaded.quarantined, a.quarantined);
  ASSERT_TRUE(loaded.collection_report.has_value());
  EXPECT_EQ(loaded.collection_report->total_retries, 7u);
  EXPECT_EQ(loaded.collection_report->start_retries, 2u);
  const auto* e = loaded.collection_report->find("CURSED");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->retries, 8u);
  EXPECT_EQ(e->disposition, vpapi::EventDisposition::quarantined);
  EXPECT_EQ(e->faults[static_cast<std::size_t>(
                faults::FaultKind::dropped_reading)],
            8u);

  // v1 stays v1: no payload -> original format marker and no v2 keys.
  a.quarantined.clear();
  a.collection_report.reset();
  a.format_version.clear();
  const auto v1_text = save_archive(a);
  EXPECT_NE(v1_text.find("catalyst-measurements-v1"), std::string::npos);
  EXPECT_EQ(v1_text.find("collection_report"), std::string::npos);
}

TEST(ArchiveV2, ReportCountsMustBeExactUnsignedIntegers) {
  // Report counts are u64: a negative, fractional or out-of-range number in
  // an edited archive fails typed instead of reaching a float->int cast.
  MeasurementArchive a;
  a.machine_name = "m";
  a.benchmark_name = "b";
  a.slot_names = {"s1"};
  a.basis_labels = {"X"};
  a.expectation = linalg::Matrix(1, 1);
  a.expectation(0, 0) = 1.0;
  a.event_names = {"E"};
  a.measurements = {{{1.0}, {1.0}}};
  a.collection_report = vpapi::CollectionReport{};
  json::Value doc = json::parse(save_archive(a));
  ASSERT_NO_THROW(load_archive(json::dump(doc)));
  for (const json::Value& bad :
       {json::Value(-1), json::Value(2.5), json::Value(1e300)}) {
    doc["collection_report"]["total_retries"] = bad;
    EXPECT_THROW(load_archive(json::dump(doc)), ArchiveError)
        << json::dump(bad);
  }
}

TEST(ArchiveV2, SampleTraceRoundTripIsByteStable) {
  // A sampled archive carries the collection mode and the per-run sample
  // trace; save -> load -> save must reproduce the text byte for byte (the
  // strobed determinism guarantee extends to the serialized form).
  MeasurementArchive a;
  a.machine_name = "m";
  a.benchmark_name = "b";
  a.slot_names = {"s1", "s2"};
  a.basis_labels = {"X"};
  a.expectation = linalg::Matrix(2, 1);
  a.expectation(0, 0) = 1.0;
  a.expectation(1, 0) = 2.0;
  a.event_names = {"E"};
  a.measurements = {{{1.0, 2.0}, {1.0, 2.0}}};
  a.collection_mode = vpapi::CollectionMode::strobed;
  vpapi::SampleTrace trace;
  trace.mode = vpapi::CollectionMode::strobed;
  trace.schedule.kernel_span_ns = 1000;
  trace.schedule.period_ns = 300;
  trace.schedule.short_period_ns = 100;
  trace.schedule.dither = false;
  trace.kernels = 2;
  vpapi::RunTrace run;
  run.repetition = 1;
  run.run_id = 3;
  run.events = {"E"};
  run.samples = {{300, {5.0}}, {400, {7.0}}, {2000, {42.0}}};
  trace.runs.push_back(run);
  a.sample_trace = trace;

  const auto text = save_archive(a);
  EXPECT_NE(text.find("catalyst-measurements-v2"), std::string::npos);
  EXPECT_NE(text.find("collection_mode"), std::string::npos);
  EXPECT_NE(text.find("sample_trace"), std::string::npos);
  const auto loaded = load_archive(text);
  EXPECT_EQ(loaded.collection_mode, vpapi::CollectionMode::strobed);
  ASSERT_TRUE(loaded.sample_trace.has_value());
  EXPECT_EQ(loaded.sample_trace->mode, vpapi::CollectionMode::strobed);
  EXPECT_EQ(loaded.sample_trace->schedule.period_ns, 300u);
  EXPECT_EQ(loaded.sample_trace->schedule.short_period_ns, 100u);
  EXPECT_FALSE(loaded.sample_trace->schedule.dither);
  EXPECT_EQ(loaded.sample_trace->kernels, 2u);
  ASSERT_EQ(loaded.sample_trace->runs.size(), 1u);
  const vpapi::RunTrace& lr = loaded.sample_trace->runs[0];
  EXPECT_EQ(lr.repetition, 1u);
  EXPECT_EQ(lr.run_id, 3u);
  EXPECT_EQ(lr.events, run.events);
  ASSERT_EQ(lr.samples.size(), 3u);
  EXPECT_EQ(lr.samples[1].t_ns, 400u);
  EXPECT_EQ(lr.samples[2].values, std::vector<double>{42.0});
  EXPECT_EQ(save_archive(loaded), text);

  // Counting-mode archives never grow the new keys: byte-compatible v1.
  a.collection_mode = vpapi::CollectionMode::counting;
  a.sample_trace.reset();
  a.format_version.clear();
  const auto v1_text = save_archive(a);
  EXPECT_NE(v1_text.find("catalyst-measurements-v1"), std::string::npos);
  EXPECT_EQ(v1_text.find("collection_mode"), std::string::npos);
  EXPECT_EQ(v1_text.find("sample_trace"), std::string::npos);
}

TEST(ArchiveV2, SampleTraceCodecRejectsInconsistentShapes) {
  vpapi::SampleTrace trace;
  trace.mode = vpapi::CollectionMode::sampling;
  trace.kernels = 1;
  vpapi::RunTrace run;
  run.events = {"E1", "E2"};
  run.samples = {{1000, {1.0}}};  // width 1 != 2 run events
  trace.runs.push_back(run);
  EXPECT_THROW(sample_trace_from_json(sample_trace_to_json(trace)),
               std::invalid_argument);
}

TEST(ArchiveFiles, AtomicWriteReplacesAndNeverTears) {
  const std::string path = "/tmp/catalyst_io_atomic_test.json";
  write_text_file_atomic(path, "first");
  EXPECT_EQ(read_text_file(path), "first");
  write_text_file_atomic(path, "second");
  EXPECT_EQ(read_text_file(path), "second");
  // The temp file must not linger after the rename.
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file(path + ".tmp"), std::runtime_error);
  EXPECT_THROW(write_text_file_atomic("/nonexistent/dir/f.json", "x"),
               std::runtime_error);
}

TEST(ArchiveFiles, WriteAndReadBack) {
  const std::string path = "/tmp/catalyst_io_test.json";
  write_text_file(path, "{\"x\": 1}");
  EXPECT_EQ(read_text_file(path), "{\"x\": 1}");
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file("/nonexistent/dir/file.json"),
               std::runtime_error);
  EXPECT_THROW(write_text_file("/nonexistent/dir/file.json", "x"),
               std::runtime_error);
}

}  // namespace
}  // namespace catalyst::core
