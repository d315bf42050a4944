// catalyst/service -- the request broker: bounded queue, worker pool,
// per-session quotas, cooperative cancellation, and shutdown drain.
//
// ServiceCore is the daemon with the sockets cut away.  Sessions talk to it
// through the RequestBroker interface (submit / poll / cancel keyed by an
// opaque session id); workers pull from its bounded queue; shutdown drains
// in-flight work and checkpoints queued-unstarted requests through the PR 3
// checkpoint machinery (write_text_file_atomic under a CheckpointDirLease)
// so a restarted daemon resumes exactly where the SIGTERM landed.
//
// Everything is driven by an injectable faults::Clock and is fully
// exercisable without threads: tests construct a core with zero workers and
// call run_one() to execute queued requests synchronously in queue order,
// which is what makes the shutdown-drain test deterministic.
//
// Robustness decisions, each load-bearing:
//   * the queue is BOUNDED: when full, submit() answers retry_after with a
//     backoff hint instead of queueing unboundedly (load shedding beats
//     collapse);
//   * per-session inflight and byte quotas are enforced here (the session
//     enforces frame-level ones): a greedy client gets quota_exceeded, the
//     daemon keeps serving everyone else;
//   * a request's CancelToken is owned by its table entry, so CANCEL and
//     per-request deadlines reach a *running* analysis mid-stage;
//   * results are kept until polled once (then freed) or their session
//     closes -- a client that never polls cannot leak daemon memory
//     forever.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "faults/faults.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/catalog.hpp"
#include "service/engine.hpp"
#include "service/wire.hpp"
#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

namespace catalyst::service {

using SessionId = std::uint64_t;

/// What a session learns from submit().
struct SubmitOutcome {
  enum class Kind {
    accepted,     ///< Queued; `request_id` is live.
    retry_after,  ///< Queue full; come back after `retry_after`.
    rejected,     ///< Quota / shutdown; `code` + `message` say why.
  };
  Kind kind = Kind::rejected;
  std::uint64_t request_id = 0;
  std::chrono::nanoseconds retry_after{0};
  wire::ErrorCode code = wire::ErrorCode::quota_exceeded;
  std::string message;
};

/// What a session learns from poll().
struct PollOutcome {
  enum class Kind {
    unknown,    ///< Not this session's id (or already collected).
    queued,     ///< Still waiting for a worker.
    analyzing,  ///< A worker is on it.
    result,     ///< Done; `text` is the rendered report (entry freed).
    failed,     ///< Done; `code` + `message` (entry freed).
    cancelled,  ///< Cancelled before completion (entry freed).
  };
  Kind kind = Kind::unknown;
  std::string text;
  /// Echo of the SUBMIT's trace id (0 = untraced); rides the RESULT frame
  /// so the client can fetch the request's trace fragment afterwards.
  std::uint64_t trace_id = 0;
  wire::ErrorCode code = wire::ErrorCode::analysis_failed;
  std::string message;
};

/// The STATS answer: the process's catalyst-metrics-v1 exposition.
inline std::string render_stats_exposition() {
  return obs::to_metrics_json(obs::Metrics::instance().snapshot());
}

/// One request's Chrome trace fragment by trace id (the spans the request
/// stamped on its way through session -> queue -> execute -> pipeline).
/// `matched` (optional) reports how many spans carried the id.
inline std::string render_trace_fragment(std::uint64_t trace_id,
                                         std::size_t* matched = nullptr) {
  return obs::trace_fragment_json(obs::Tracer::instance().buffer().snapshot(),
                                  trace_id, matched);
}

/// The session-facing face of the core.  Sessions hold a RequestBroker*,
/// never a ServiceCore*, so protocol tests drive them with a scripted fake.
class RequestBroker {
 public:
  virtual ~RequestBroker() = default;
  virtual SubmitOutcome submit(SessionId session, wire::SubmitBody body) = 0;
  virtual PollOutcome poll(SessionId session, std::uint64_t request_id) = 0;
  /// True if the id was live (queued request dropped / running analysis
  /// signalled); false for unknown ids.
  virtual bool cancel(SessionId session, std::uint64_t request_id) = 0;

  // Live-telemetry hooks behind the v2 STATS/TRACE frames.  Non-pure with
  // working defaults (defined once in servicecore.cpp, under the library's
  // obs mode) so brokers that only script submit/poll/cancel -- the
  // protocol-test fakes -- stay source-compatible.
  /// Metrics exposition JSON ("catalyst-metrics-v1") for a STATS frame.
  virtual std::string stats_json();
  /// Chrome trace fragment for one trace id, for a TRACE frame.
  virtual std::string trace_json(std::uint64_t trace_id);
};

/// The service-checkpoint format marker.
extern const char* const kServiceCheckpointFormat;

class ServiceCore final : public RequestBroker {
 public:
  struct Options {
    int workers = 1;                     ///< Worker-loop count (may be 0).
    std::size_t queue_capacity = 64;     ///< Global bounded-queue depth.
    std::size_t max_inflight_per_session = 8;
    std::uint64_t max_bytes_per_session = 256ull * 1024 * 1024;
    /// Default per-request analysis timeout; a SUBMIT's deadline_ns (if
    /// non-zero and tighter) overrides it.  Zero disables.
    std::chrono::nanoseconds default_analysis_timeout{0};
    /// Backoff hint attached to retry_after answers.
    std::chrono::nanoseconds retry_after_hint = std::chrono::milliseconds(50);
    /// Queued-unstarted requests are checkpointed here on shutdown and
    /// restored (re-enqueued in id order) on construction.  Empty disables.
    std::string checkpoint_dir;
    faults::Clock* clock = nullptr;  ///< Required for deadlines; not owned.
  };

  explicit ServiceCore(Options options);
  ~ServiceCore() override;

  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;

  // --- RequestBroker --------------------------------------------------------
  SubmitOutcome submit(SessionId session, wire::SubmitBody body) override
      CATALYST_EXCLUDES(mutex_);
  PollOutcome poll(SessionId session, std::uint64_t request_id) override
      CATALYST_EXCLUDES(mutex_);
  bool cancel(SessionId session, std::uint64_t request_id) override
      CATALYST_EXCLUDES(mutex_);
  std::string stats_json() override;
  std::string trace_json(std::uint64_t trace_id) override;

  /// Drops every finished entry of a closed session and cancels its live
  /// ones: a vanished client must not pin queue slots or result memory.
  void forget_session(SessionId session) CATALYST_EXCLUDES(mutex_);

  // --- execution ------------------------------------------------------------
  /// Blocking worker loop; returns when shutdown drains the queue.  The
  /// daemon runs Options::workers of these on core::parallel_for units.
  void worker_loop() CATALYST_EXCLUDES(mutex_);

  /// Synchronously executes the oldest queued request on the calling
  /// thread; false when the queue is empty.  The deterministic test/drain
  /// driver (equivalent to one worker_loop iteration).
  bool run_one() CATALYST_EXCLUDES(mutex_);

  /// Begins shutdown: refuse new submits (shutting_down), wake workers.
  /// Running analyses finish normally (drain) -- they are NOT cancelled --
  /// and queued-unstarted requests are checkpointed to checkpoint_dir and
  /// marked failed(shutting_down) so pollers learn the truth.  Idempotent.
  void begin_shutdown() CATALYST_EXCLUDES(mutex_);

  /// True once shutdown began and no request is queued or running.
  bool drained() const CATALYST_EXCLUDES(mutex_);

  bool shutting_down() const CATALYST_EXCLUDES(mutex_);

  /// Requests restored from checkpoints at construction (observability +
  /// the restart test).  Restored requests belong to session 0 -- any
  /// session may poll/cancel them after handshake via their stable ids.
  std::size_t restored_requests() const noexcept { return restored_; }

  std::size_t queued_count() const CATALYST_EXCLUDES(mutex_);
  std::size_t running_count() const CATALYST_EXCLUDES(mutex_);

  SharedCatalog& catalog() noexcept { return catalog_; }
  const Options& options() const noexcept { return options_; }

 private:
  enum class State { queued, running, done, failed, cancelled };

  struct Request {
    std::uint64_t id = 0;
    SessionId session = 0;
    wire::SubmitBody body;
    std::uint64_t body_bytes = 0;  ///< Encoded size (session byte quota).
    State state = State::queued;
    /// Owner session closed while this ran; finish() reaps the entry.
    bool orphaned = false;
    core::CancelToken cancel;  ///< Live for the entry's whole lifetime.
    EngineOutcome outcome;     ///< Valid in done/failed.
    /// Flight-recorder timestamps (obs::Tracer time base, matching spans).
    std::int64_t enqueued_ns = 0;
    std::int64_t started_ns = 0;
  };

  /// Claims the oldest queued request (marks it running) or returns
  /// nullptr.  Pointer stays valid: entries live in `requests_` and are
  /// only erased by poll/forget, never while running.
  Request* claim_next_locked() CATALYST_REQUIRES(mutex_);
  void finish(Request* request, EngineOutcome outcome)
      CATALYST_EXCLUDES(mutex_);
  void execute(Request* request);

  void checkpoint_queued_locked() CATALYST_REQUIRES(mutex_);
  void restore_checkpoints();

  /// Publishes the live-pressure gauges (queue depth, inflight entries,
  /// busy workers); called at every queue/table mutation point.
  void update_gauges_locked() CATALYST_REQUIRES(mutex_);

  Options options_;
  SharedCatalog catalog_;
  std::optional<core::CheckpointDirLease> lease_;
  std::size_t restored_ = 0;

  mutable sync::Mutex mutex_{"service.core"};
  sync::CondVar work_cv_;  ///< Signalled on enqueue and on shutdown.
  std::uint64_t next_id_ CATALYST_GUARDED_BY(mutex_) = 1;
  bool shutting_down_ CATALYST_GUARDED_BY(mutex_) = false;
  /// Queued ids in arrival order; entries themselves live in requests_.
  std::deque<std::uint64_t> queue_ CATALYST_GUARDED_BY(mutex_);
  std::unordered_map<std::uint64_t, std::unique_ptr<Request>> requests_
      CATALYST_GUARDED_BY(mutex_);
  std::size_t running_ CATALYST_GUARDED_BY(mutex_) = 0;
  struct SessionUsage {
    std::size_t inflight = 0;     ///< queued + running + unpolled results.
    std::uint64_t bytes = 0;      ///< Cumulative submitted payload bytes.
  };
  std::unordered_map<SessionId, SessionUsage> usage_
      CATALYST_GUARDED_BY(mutex_);
};

}  // namespace catalyst::service
