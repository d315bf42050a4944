#include "core/pipeline.hpp"

#include "core/noise_classify.hpp"

#include <stdexcept>

#include "core/campaign.hpp"
#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "obs/names.hpp"

namespace catalyst::core {

std::optional<std::vector<double>> PipelineResult::averaged_measurement(
    const std::string& event_name) const {
  for (std::size_t i = 0; i < noise.kept.size(); ++i) {
    if (noise.variabilities[noise.kept[i]].event_name == event_name) {
      return noise.averaged.col_copy(static_cast<linalg::index_t>(i));
    }
  }
  return std::nullopt;
}

const std::string& PipelineResult::x_event(linalg::index_t j) const {
  const linalg::index_t kept_index =
      projection.representable.at(static_cast<std::size_t>(j));
  return all_event_names[noise.kept[static_cast<std::size_t>(kept_index)]];
}

PipelineResult run_pipeline(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const PipelineOptions& options) {
  CampaignOptions campaign;
  campaign.pipeline = options;
  return run_campaign(machine, benchmark, signatures, campaign).result;
}

PipelineResult analyze_measurements(
    const linalg::Matrix& expectation,
    const std::vector<std::string>& event_names,
    vpapi::Measurements measurements,
    const std::vector<MetricSignature>& signatures,
    const PipelineOptions& options) {
  PipelineResult result;
  result.all_event_names = event_names;
  result.measurements = std::move(measurements);
  const int threads = resolve_threads(options.threads);

  // --- Stage 0: measurement sanity -------------------------------------------
  // Degradation floor: a resilient collection may quarantine events, and the
  // analysis proceeds without them -- but an EMPTY event set means the basis
  // has nothing left to select from, so the run aborts with a typed error
  // instead of producing a vacuous result.
  CATALYST_REQUIRE_AS(!result.all_event_names.empty(), std::runtime_error,
                      "analyze_measurements: event set is empty (every event "
                      "quarantined or filtered) -- nothing to analyze");
  // A NaN/Inf reading must be rejected here, at the pipeline boundary; past
  // this point it would flow silently through the RNMSE filter (NaN
  // comparisons are false, so the event is *kept*) and poison the QR stage.
  CATALYST_REQUIRE_AS(result.measurements.size() ==
                          result.all_event_names.size(),
                      std::invalid_argument,
                      "analyze_measurements: one measurement block per event "
                      "name required");
  for (std::size_t e = 0; e < result.measurements.size(); ++e) {
    CATALYST_ASSUME_FINITE(result.measurements.event(e),
                           "analyze_measurements: event '" +
                               result.all_event_names[e] +
                               "' has a non-finite measurement");
  }

  // Cooperative cancellation: polled once per stage boundary.  The stages
  // themselves are short (sub-millisecond on paper-sized inputs), so a
  // deadline or cancel request is honored within one stage's latency
  // without any per-element polling cost.
  const auto check_cancel = [&options] {
    if (options.cancel != nullptr) options.cancel->check();
  };
  check_cancel();

  obs::Span analyze_span("pipeline.analyze");
  analyze_span.arg("events", result.all_event_names.size());
  analyze_span.arg("tau", options.tau);
  analyze_span.arg("alpha", options.alpha);
  const auto record_stage = [&result](obs::Span& span, const char* name) {
    span.end();
    if (span.duration_ns() > 0) {
      result.stage_timings.push_back({name, span.duration_ns()});
    }
  };

  // --- Stage 3b (optional): detrend drifting events --------------------------
  if (options.detrend_drifting) {
    obs::Span span("stage.detrend");
    std::uint64_t detrended = 0;
    for (std::size_t e = 0; e < result.measurements.size(); ++e) {
      if (classify_noise(result.measurements, e).cls == NoiseClass::drifting) {
        detrend_repetitions(result.measurements, e);
        ++detrended;
      }
    }
    span.arg("detrended", detrended);
    record_stage(span, "detrend");
    obs::count(obs::names::kPipelineEventsDetrended, detrended);
  }

  // --- Stage 4: noise filter ------------------------------------------------
  check_cancel();
  {
    obs::Span span("stage.noise_filter");
    span.arg("tau", options.tau);
    result.noise =
        filter_noise(result.all_event_names, result.measurements, options.tau);
    span.arg("kept", result.noise.kept.size());
    record_stage(span, "noise_filter");
  }
  obs::count(obs::names::kPipelineEventsNoiseKept, result.noise.kept.size());
  obs::count(obs::names::kPipelineEventsNoiseDropped,
             result.all_event_names.size() - result.noise.kept.size());

  // --- Stage 5: expectation-basis projection --------------------------------
  check_cancel();
  {
    obs::Span span("stage.projection");
    result.projection =
        normalize_events(expectation, result.noise.averaged,
                         options.projection_max_error,
                         threads);
    span.arg("expressible", result.projection.representable.size());
    record_stage(span, "projection");
  }
  obs::count(obs::names::kPipelineEventsProjected,
             result.projection.representable.size());

  // --- Stage 6: specialized QRCP ---------------------------------------------
  check_cancel();
  obs::Span qrcp_span("stage.qrcp");
  qrcp_span.arg("alpha", options.alpha);
  result.qr =
      specialized_qrcp(result.projection.x, options.alpha, options.pivot_rule);
  qrcp_span.arg("selected", result.qr.selected.size());
  record_stage(qrcp_span, "qrcp");
  CATALYST_ENSURE(static_cast<linalg::index_t>(result.qr.selected.size()) <=
                      result.projection.x.cols(),
                  "analyze_measurements: QRCP selected more columns than X "
                  "has");
  result.xhat = result.projection.x.select_columns(result.qr.selected);
  result.xhat_events.reserve(result.qr.selected.size());
  for (linalg::index_t j : result.qr.selected) {
    CATALYST_ENSURE(j >= 0 && j < result.projection.x.cols(),
                    "analyze_measurements: QRCP selected column out of "
                    "range");
    result.xhat_events.push_back(result.x_event(j));
  }

  obs::count(obs::names::kPipelineEventsSelected, result.xhat_events.size());

  // --- Stage 7: metric synthesis ----------------------------------------------
  check_cancel();
  if (!result.xhat_events.empty()) {
    obs::Span span("stage.metrics");
    span.arg("signatures", signatures.size());
    result.metrics = solve_metrics(result.xhat, result.xhat_events, signatures,
                                   options.fitness_threshold);
    span.arg("solved", result.metrics.size());
    record_stage(span, "metrics");
  }
  obs::count(obs::names::kPipelineMetricsSolved, result.metrics.size());
  analyze_span.end();
  return result;
}

}  // namespace catalyst::core
