// catalyst/core -- the end-to-end analysis pipeline.
//
// Chains every stage of the paper on one benchmark + machine pair:
//
//   1. COLLECT   all raw events over the benchmark's kernel slots via the
//                grouped vpapi driver, several repetitions, one
//                collection per concurrent benchmark thread;
//   2. MEDIAN    across threads per (event, slot, repetition) reading
//                (Section IV's cache-noise suppressor; a no-op for
//                single-threaded benchmarks);
//   3. NORMALIZE readings per slot (per-iteration / per-access units);
//   4. FILTER    noisy events by max RNMSE against tau (Section IV) and
//                discard all-zero events;
//   5. PROJECT   survivors onto the expectation basis, E*xe = me, dropping
//                events that the basis cannot express (Section III-B);
//   6. SELECT    independent events with the specialized QRCP, alpha
//                (Section V), giving X-hat;
//   7. SOLVE     X-hat * y = s for every requested metric signature
//                (Section VI) with Eq. 5 fitness.
//
// Every stage's artifacts are kept in the result for reporting -- the bench
// harness regenerates each paper table/figure from them.
//
// Stages 1-3 are the collection front half, core::run_campaign()
// (core/campaign.hpp): run_pipeline() is run_campaign() with default
// campaign options.  Stages 4-7 are analyze_measurements(), which the
// offline (archive) path calls directly.
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cat/benchmark.hpp"
#include "core/metrics.hpp"
#include "core/noise.hpp"
#include "core/normalize.hpp"
#include "core/qrcp_special.hpp"
#include "faults/faults.hpp"
#include "obs/trace.hpp"
#include "pmu/machine.hpp"
#include "vpapi/collector.hpp"

namespace catalyst::core {

/// Thrown by the pipeline stages when a run is abandoned cooperatively --
/// either because the caller cancelled it or because its deadline passed
/// (reason() distinguishes the two).  Deriving from std::runtime_error keeps
/// legacy catch sites working; new callers (the service worker pool) catch
/// the type to map it onto a typed wire error.
class PipelineCancelled : public std::runtime_error {
 public:
  enum class Reason { cancelled, deadline };
  explicit PipelineCancelled(Reason reason)
      : std::runtime_error(reason == Reason::deadline
                               ? "pipeline aborted: request deadline exceeded"
                               : "pipeline aborted: cancelled by caller"),
        reason_(reason) {}
  Reason reason() const noexcept { return reason_; }

 private:
  Reason reason_;
};

/// Cooperative cancellation handle threaded through the pipeline stages.
///
/// Two independent triggers combine into one stop signal:
///   * request_cancel() -- any thread may flip the flag (a client CANCEL
///     frame, a server draining for shutdown);
///   * arm_deadline(clock, t) -- stop once the injectable clock passes t
///     (per-request analysis timeouts; tests drive it with FakeClock).
/// The stages poll stop_requested() at stage boundaries and inside the
/// per-signature solve loop, then raise PipelineCancelled.  Polling costs
/// one relaxed load (plus a clock read when a deadline is armed), so a
/// null/never-armed token never perturbs results or timing contracts.
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Any thread; sticky.
  void request_cancel() noexcept {
    cancelled_.store(true, std::memory_order_relaxed);
  }

  /// Owner thread, before the run starts.  `clock` must outlive the run.
  void arm_deadline(faults::Clock* clock,
                    std::chrono::nanoseconds deadline) noexcept {
    clock_ = clock;
    deadline_ = deadline;
  }

  bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// True once either trigger has fired.
  bool stop_requested() const {
    if (cancel_requested()) return true;
    return clock_ != nullptr && clock_->now() > deadline_;
  }

  /// Raises PipelineCancelled (with the precise reason) if stopped.
  void check() const {
    if (cancel_requested()) {
      throw PipelineCancelled(PipelineCancelled::Reason::cancelled);
    }
    if (clock_ != nullptr && clock_->now() > deadline_) {
      throw PipelineCancelled(PipelineCancelled::Reason::deadline);
    }
  }

 private:
  std::atomic<bool> cancelled_{false};
  faults::Clock* clock_ = nullptr;  ///< Not owned; null = no deadline.
  std::chrono::nanoseconds deadline_{0};
};

/// Tuning knobs of the pipeline; defaults match the paper's choices for the
/// compute benchmarks (tau = 1e-10, alpha = 5e-4).  The data-cache runs use
/// tau = 1e-1 and alpha = 5e-2 (Sections IV and V-E).
struct PipelineOptions {
  std::size_t repetitions = 3;          ///< Benchmark repetitions (>= 2).
  double tau = 1e-10;                   ///< Noise threshold (Section IV).
  double projection_max_error = 1e-2;   ///< E*xe=me fitness cutoff.
  double alpha = 5e-4;                  ///< QR noise tolerance (Section V).
  double fitness_threshold = 1e-6;      ///< "Composable" verdict cutoff.
  /// Pivot rule for the event-selection QR (ablation hook; the default is
  /// the paper-faithful specialized scheme).
  PivotRule pivot_rule = PivotRule::original_score;
  /// OS threads for the collection stage (results are bit-identical for
  /// any value; see vpapi::Collector).
  int collection_threads = 1;
  /// Worker threads for the analysis stages (RNMSE filter, projection
  /// solves, and the specialized QRCP pivot search).  Every stage follows
  /// the shared worker-pool determinism contract, so results are
  /// bit-identical for any value.
  int analysis_threads = 1;
  /// When true, events classified as drifting (systematic per-repetition
  /// trend, see core/noise_classify.hpp) are detrended BEFORE the tau
  /// filter instead of being discarded by it -- the remedy the noise
  /// classification suggests.  Off by default (the paper discards them).
  bool detrend_drifting = false;
  /// Cooperative cancellation / per-request deadline (not owned; may be
  /// null).  Stages poll it at their boundaries and raise
  /// PipelineCancelled; a null or never-fired token changes nothing.
  const CancelToken* cancel = nullptr;
};

/// Everything the pipeline produced, stage by stage.
struct PipelineResult {
  // Stage 1-3 artifacts.
  std::vector<std::string> all_event_names;
  /// measurements[e][r][k]: normalized (and thread-median) reading of event
  /// e, repetition r, slot k.
  std::vector<std::vector<std::vector<double>>> measurements;

  // Stage 4.
  NoiseFilterResult noise;

  // Stage 5 (input events are noise.kept, in that order).
  NormalizationResult projection;

  // Stage 6.
  SpecialQrcpResult qr;
  linalg::Matrix xhat;                    ///< basis-dims x selected events.
  std::vector<std::string> xhat_events;   ///< Column labels of xhat.

  // Stage 7.
  std::vector<MetricDefinition> metrics;

  // Collection artifacts beyond the measurements.  The report is attached
  // when a fault plan, a checkpoint directory or a non-counting mode was
  // given (see core/campaign.hpp).  Quarantined events were excluded
  // BEFORE the RNMSE filter: they appear in neither all_event_names nor
  // measurements.  Sampled campaigns carry the per-run sample traces the
  // measurements were reconstructed from.
  std::vector<std::string> quarantined_events;
  std::optional<vpapi::CollectionReport> collection;
  vpapi::CollectionMode collection_mode = vpapi::CollectionMode::counting;
  std::optional<vpapi::SampleTrace> sample_trace;

  /// Per-stage wall time in pipeline order, recorded from the stages' own
  /// obs::Spans.  Empty when tracing is disabled (compile- or run-time);
  /// timings describe the run but never influence any numeric result.
  std::vector<obs::StageTiming> stage_timings;

  /// Averaged normalized measurement vector of an event that survived the
  /// noise filter (nullopt otherwise).  Used by the Fig. 3 benches.
  std::optional<std::vector<double>> averaged_measurement(
      const std::string& event_name) const;
};

/// Runs the full pipeline: run_campaign() with default campaign options.
PipelineResult run_pipeline(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const PipelineOptions& options = {});

/// Runs stages 4-7 (noise filter -> projection -> QRCP -> metrics) on
/// already-collected, normalized measurement data: measurements[e][r][k]
/// keyed by `event_names`, over the expectation basis `expectation`.
/// This is the offline-analysis entry point (see core/io.hpp): data
/// collected on one system can be analyzed anywhere.  The returned result
/// has the collection-stage fields (`all_event_names`, `measurements`)
/// populated from the arguments.
PipelineResult analyze_measurements(
    const linalg::Matrix& expectation,
    const std::vector<std::string>& event_names,
    std::vector<std::vector<std::vector<double>>> measurements,
    const std::vector<MetricSignature>& signatures,
    const PipelineOptions& options = {});

}  // namespace catalyst::core
