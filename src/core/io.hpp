// catalyst/core -- measurement archives (the offline-analysis workflow).
//
// Real CAT runs happen on a supercomputer's compute nodes; the analysis
// happens wherever is convenient.  This module serializes everything the
// analysis stages need -- event names, per-repetition normalized
// measurement vectors, the expectation basis -- into a versioned JSON
// archive, and re-runs the analysis from a loaded archive via
// analyze_measurements().  In memory an archive holds the pipeline's
// (event, repetition, slot) vpapi::Measurements tensor; the JSON nests it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cat/benchmark.hpp"
#include "json/json.hpp"
#include "core/pipeline.hpp"
#include "pmu/machine.hpp"
#include "vpapi/collector.hpp"
#include "vpapi/sampling.hpp"

namespace catalyst::core {

/// Hard ceiling on the length of any ArchiveError message.  Archive load
/// errors quote fragments of the (attacker-supplied, possibly multi-GB)
/// input; in a long-running daemon an unbounded quote would balloon error
/// strings, wire ERROR frames, and logs.  256 bytes keeps the quoted
/// context useful while bounding every error to a log line.
inline constexpr std::size_t kMaxArchiveErrorBytes = 256;

/// Truncates `text` to at most `max_bytes` bytes for embedding in an error
/// message; longer inputs end with "...(<total> bytes)" so the true size is
/// still visible.  Control bytes are replaced with '.' (error strings end
/// up in logs and wire frames, never re-parsed).
std::string bounded_excerpt(const std::string& text,
                            std::size_t max_bytes = 96);

/// Typed archive rejection.  For truncated or otherwise malformed JSON,
/// `offset()` is the byte offset at which the input stopped making sense
/// (std::string::npos for structural problems in well-formed JSON).
/// Derives from json::JsonError so callers catching low-level JSON errors
/// keep working.  The stored message is capped at kMaxArchiveErrorBytes no
/// matter what the throw site concatenated -- a malformed multi-GB
/// submission can never echo itself back through what().
class ArchiveError : public json::JsonError {
 public:
  explicit ArchiveError(const std::string& what,
                        std::size_t offset = std::string::npos)
      : json::JsonError(bounded_excerpt(what, kMaxArchiveErrorBytes),
                        offset) {}
};

/// Everything needed to analyze a collection offline.
///
/// Format versions: "catalyst-measurements-v1" is the original archive;
/// "catalyst-measurements-v2" adds the optional payloads -- robustness
/// (quarantined events + the resilient driver's CollectionReport) and
/// collection mode (the mode knob + the sampling/strobed sample trace).
/// The loader accepts both; the writer emits v2 exactly when any optional
/// payload is present, so default counting-mode archives stay
/// byte-identical to v1.
struct MeasurementArchive {
  std::string format_version;  ///< "catalyst-measurements-v{1,2}".
  std::string machine_name;
  std::string benchmark_name;
  std::vector<std::string> slot_names;
  std::vector<std::string> basis_labels;
  linalg::Matrix expectation;  ///< slots x basis dims.
  std::vector<std::string> event_names;
  /// measurements.row(e, r)[k]: normalized reading (event, repetition,
  /// slot).
  vpapi::Measurements measurements;
  /// v2: events the resilient driver quarantined (their rows are absent
  /// from `measurements`), and the full per-event collection report.
  std::vector<std::string> quarantined;
  std::optional<vpapi::CollectionReport> collection_report;
  /// v2: how the measurements were collected.  counting (the default) is
  /// never serialized; sampling/strobed archives carry the mode and the
  /// per-run sample trace the measurements were reconstructed from.
  vpapi::CollectionMode collection_mode = vpapi::CollectionMode::counting;
  std::optional<vpapi::SampleTrace> sample_trace;
};

/// Builds an archive from a pipeline run -- the one archive builder for
/// every collection path.  Uses the result's stage-1..3 artifacts plus its
/// collection payloads (quarantine list, collection report, mode and sample
/// trace); the archive is v2 exactly when one of them is present.  The
/// analysis stages are NOT stored -- they are recomputed on load, which is
/// the point.
MeasurementArchive make_archive(const pmu::Machine& machine,
                                const cat::Benchmark& benchmark,
                                const PipelineResult& result);

/// Serializes an archive to JSON (pretty-printed when `indent` > 0).
std::string save_archive(const MeasurementArchive& archive, int indent = 0);

/// Parses an archive; throws ArchiveError (naming the byte offset) on
/// truncated/malformed input and std::invalid_argument on version/shape
/// problems in otherwise well-formed JSON.
MeasurementArchive load_archive(const std::string& json_text);

/// Runs the analysis stages on an archive, taking over its event names and
/// measurements (pass an rvalue to avoid copying them).
PipelineResult analyze_archive(MeasurementArchive archive,
                               const std::vector<MetricSignature>& signatures,
                               const PipelineOptions& options = {});

/// Small file helpers used by the CLI (throw std::runtime_error on I/O
/// failure).
std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& contents);

/// Crash-safe file replacement: writes to `path + ".tmp"` and renames over
/// `path`, so readers only ever observe a missing file or a complete one.
/// The checkpointing campaign driver writes every batch this way.
void write_text_file_atomic(const std::string& path,
                            const std::string& contents);

// --- JSON (de)serialization of the collection report ------------------------
// Shared by v2 archives and campaign checkpoints.

json::Value collection_report_to_json(const vpapi::CollectionReport& report);
vpapi::CollectionReport collection_report_from_json(const json::Value& v);

// --- JSON (de)serialization of sample traces --------------------------------
// Carried by v2 archives of sampling/strobed campaigns.

json::Value sample_trace_to_json(const vpapi::SampleTrace& trace);
vpapi::SampleTrace sample_trace_from_json(const json::Value& v);

}  // namespace catalyst::core
