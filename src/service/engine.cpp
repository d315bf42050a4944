#include "service/engine.hpp"

#include <stdexcept>
#include <utility>

#include "core/io.hpp"
#include "core/report.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace catalyst::service {

std::string render_result(const core::PipelineResult& result) {
  return core::format_selected_events(result) + "\n" +
         core::format_metric_table("metrics", result.metrics);
}

wire::SubmitBody packed_submit_from_archive(
    const core::MeasurementArchive& archive, const std::string& category,
    std::uint64_t deadline_ns, std::uint64_t trace_id) {
  wire::SubmitBody body;
  body.kind = wire::SubmitKind::packed;
  body.category = category;
  body.deadline_ns = deadline_ns;
  body.trace_id = trace_id;
  body.collection_mode =
      static_cast<std::uint8_t>(archive.collection_mode);
  body.event_names = archive.event_names;
  body.repetitions =
      static_cast<std::uint32_t>(archive.measurements.repetitions());
  body.slots = static_cast<std::uint32_t>(archive.slot_names.size());
  body.values = archive.measurements.values();
  return body;
}

namespace {

EngineOutcome fail(wire::ErrorCode code, const std::string& message) {
  EngineOutcome out;
  out.ok = false;
  out.code = code;
  out.message = core::bounded_excerpt(message, wire::kMaxErrorMessageBytes);
  return out;
}

}  // namespace

EngineOutcome run_analysis(SharedCatalog& catalog, wire::SubmitBody& submit,
                           const core::CancelToken* cancel) {
  obs::Span span("service.analyze");
  span.arg("category", submit.category);
  if (submit.trace_id != 0) span.arg("trace", submit.trace_id);
  const CategorySetup* setup = catalog.category(submit.category);
  if (setup == nullptr) {
    return fail(wire::ErrorCode::bad_request,
                "unknown category '" + submit.category + "'");
  }
  core::PipelineOptions options = setup->options;
  options.cancel = cancel;
  // catalystd already runs one analysis per worker across requests, so an
  // analysis stays on its worker's thread.
  options.threads = 1;

  const linalg::Matrix& basis = setup->benchmark.basis.e;
  try {
    core::MeasurementArchive archive;  // a JSON SUBMIT's decoded payload
    const std::vector<std::string>* event_names = &submit.event_names;
    vpapi::Measurements measurements;
    if (submit.kind == wire::SubmitKind::json) {
      // The archive carries its own expectation matrix; the analysis runs
      // against the catalog's, so an archive whose basis differs is refused
      // rather than analyzed against a basis it was not collected under.
      archive = core::load_archive(submit.archive_json);
      if (archive.expectation != basis) {
        return fail(wire::ErrorCode::bad_request,
                    "JSON SUBMIT slots or basis do not match category '" +
                        submit.category + "'");
      }
      event_names = &archive.event_names;
      measurements = std::move(archive.measurements);
    } else {
      if (submit.repetitions < 2) {
        return fail(wire::ErrorCode::bad_request,
                    "packed SUBMIT needs >= 2 repetitions");
      }
      if (submit.slots != static_cast<std::size_t>(basis.rows())) {
        return fail(wire::ErrorCode::bad_request,
                    "packed SUBMIT slot count does not match category '" +
                        submit.category + "'");
      }
      // The packed block is in the tensor's order; decode_submit sized it.
      measurements =
          vpapi::Measurements(submit.event_names.size(), submit.repetitions,
                              submit.slots, std::move(submit.values));
    }
    const core::PipelineResult result = core::analyze_measurements(
        basis, *event_names, std::move(measurements), setup->signatures,
        options);
    EngineOutcome out;
    out.ok = true;
    out.text = render_result(result);
    obs::count(obs::names::kServiceAnalysesOk);
    return out;
  } catch (const core::PipelineCancelled& e) {
    obs::count(obs::names::kServiceAnalysesCancelled);
    return fail(e.reason() == core::PipelineCancelled::Reason::deadline
                    ? wire::ErrorCode::deadline_exceeded
                    : wire::ErrorCode::cancelled,
                e.what());
  } catch (const std::exception& e) {
    // load_archive / analyze_measurements rejections (ArchiveError, shape
    // and finiteness contracts): data problems, typed as analysis_failed.
    obs::count(obs::names::kServiceAnalysesFailed);
    return fail(wire::ErrorCode::analysis_failed, e.what());
  }
}

}  // namespace catalyst::service
