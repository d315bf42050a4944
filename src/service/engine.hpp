// catalyst/service -- request execution: one SUBMIT in, one rendered
// report (or a typed failure) out.
//
// The engine is where a decoded wire::SubmitBody meets the analysis
// library.  It resolves the category through the SharedCatalog, builds
// the measurement tensor (a packed value block is already in its (event,
// repetition, slot) order; JSON submissions go through the archive
// loader), runs core::analyze_measurements with the caller's
// CancelToken threaded through, and renders the result with the SAME
// report helpers the CLI uses -- format_selected_events plus
// format_metric_table -- so a RESULT payload is byte-identical to the
// corresponding `catalyst analyze` output.
//
// Failures never escape as raw exceptions: every outcome is an
// EngineOutcome carrying a wire::ErrorCode, because the caller is a worker
// thread whose job is to park a typed verdict in the request table.
#pragma once

#include <string>

#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "service/catalog.hpp"
#include "service/wire.hpp"

namespace catalyst::service {

struct EngineOutcome {
  bool ok = false;
  std::string text;          ///< ok: the rendered report.
  wire::ErrorCode code = wire::ErrorCode::analysis_failed;
  std::string message;       ///< !ok: bounded human-readable reason.
};

/// Runs one analysis.  A packed submission's value block is moved into the
/// analysis, so `submit.values` is left empty; every other field keeps its
/// value.  `cancel` may be null; when set, the pipeline stages poll it and a
/// cancel/deadline surfaces as ErrorCode::cancelled / deadline_exceeded.
/// Thread-safe: catalog entries are immutable shared state and everything
/// else is request-local.
EngineOutcome run_analysis(SharedCatalog& catalog, wire::SubmitBody& submit,
                           const core::CancelToken* cancel);

/// The CLI-identical rendering of a finished pipeline run (exposed so the
/// byte-identity test can compare against it directly).
std::string render_result(const core::PipelineResult& result);

/// Flattens a measurement archive into a packed SUBMIT body (the client's
/// and bench's fast path: the daemon decodes it without parsing JSON).
/// A non-zero `trace_id` stamps the submission for end-to-end tracing.
wire::SubmitBody packed_submit_from_archive(
    const core::MeasurementArchive& archive, const std::string& category,
    std::uint64_t deadline_ns = 0, std::uint64_t trace_id = 0);

}  // namespace catalyst::service
