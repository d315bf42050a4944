// catalyst/obs -- exporters: Chrome trace_event JSON and the run manifest.
//
// Two artifact formats leave this layer:
//
//   * Chrome trace JSON ("trace_event" format): load in chrome://tracing or
//     https://ui.perfetto.dev.  One complete ("ph":"X") event per span,
//     timestamps normalized so the earliest span starts at 0, counters
//     attached under "otherData".
//
//   * Run manifest ("catalyst-run-manifest-v1"): compact provenance record
//     of one pipeline run -- git SHA, config hash, tau/alpha, per-stage wall
//     times, stage funnel counts, counters -- the metadata the per-PR
//     BENCH_*.json trajectory embeds so results stay comparable across
//     commits (scripts/run_bench.sh).
//
// Every JSON document here (trace, manifest, metrics, flight dump) is built
// as a json::Value and written by json::dump, so objects come out with
// sorted keys, integers (counters, *_ns stamps, trace ids) are exact, and a
// non-finite double is written as null.  Consumers compare parsed values,
// not bytes.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace catalyst::obs {

/// Everything the run manifest records about one pipeline invocation.
struct RunManifest {
  std::string tool;      ///< e.g. "catalyst analyze".
  std::string category;  ///< e.g. "branch".
  std::string machine;   ///< e.g. "saphira-cpu".
  std::string git_sha;   ///< From CATALYST_GIT_SHA; "unknown" when unset.
  std::string config;       ///< Human-readable config string.
  std::string config_hash;  ///< hex fnv1a of `config`.
  double tau = 0.0;
  double alpha = 0.0;
  std::uint64_t repetitions = 0;
  std::vector<StageTiming> stages;
  /// Stage funnel: ("measured", n), ("noise_kept", n), ... in funnel order.
  std::vector<std::pair<std::string, std::uint64_t>> funnel;
  MetricsSnapshot metrics;
  std::uint64_t spans_published = 0;
  std::uint64_t spans_dropped = 0;
};

/// The manifest's "format" field.
inline constexpr const char* kRunManifestFormat = "catalyst-run-manifest-v1";

/// The metrics exposition's "format" field (JSON form).
inline constexpr const char* kMetricsFormat = "catalyst-metrics-v1";

/// What a CATALYST_OBS=OFF daemon answers to a STATS scrape: still a valid
/// catalyst-metrics-v1 document (schema checkers and `catalyst_client top`
/// parse it like any other), but explicitly flagged so a scraper can tell
/// "no load" apart from "observability compiled out".
std::string metrics_compiled_out_json();

/// Hex fnv1a-64 of a configuration string (the manifest's config_hash).
std::string config_hash(const std::string& config);

/// Chrome trace_event JSON of a span snapshot (plus counters as otherData).
std::string to_chrome_trace(const std::vector<SpanRecord>& spans,
                            const MetricsSnapshot& metrics);

/// Run-manifest JSON (pretty-printed, 2-space indent).
std::string to_run_manifest(const RunManifest& manifest);

/// JSON metrics exposition ("catalyst-metrics-v1"): counters, gauges, and
/// histograms with their non-empty buckets as [index, count] pairs plus the
/// bucket geometry (num_buckets/bucket_bias), so a scraper on the far end
/// of a STATS frame can recompute percentiles without sharing this header.
std::string to_metrics_json(const MetricsSnapshot& metrics);

/// Chrome trace JSON of just the spans stamped with `trace_id` (a packed
/// "trace=<id>" arg) -- one request's end-to-end fragment.  Returns the
/// number of matching spans through `matched` when non-null.
std::string trace_fragment_json(const std::vector<SpanRecord>& spans,
                                std::uint64_t trace_id,
                                std::size_t* matched = nullptr);

/// Sums span wall time per name over spans named "stage.*", ordered by each
/// stage's first start time; the "stage." prefix is stripped.
std::vector<StageTiming> aggregate_stage_timings(
    const std::vector<SpanRecord>& spans);

/// Human-readable --stats block: stage timings, counters, histograms, span
/// accounting.
std::string format_stats(const MetricsSnapshot& metrics,
                         const std::vector<StageTiming>& stages,
                         std::uint64_t spans_published,
                         std::uint64_t spans_dropped);

}  // namespace catalyst::obs
