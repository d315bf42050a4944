#include "service/servicecore.hpp"

#include <algorithm>
#include <filesystem>

#include "core/io.hpp"
#include "json/json.hpp"
#include "obs/flight.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "service/engine.hpp"

namespace catalyst::service {

std::string RequestBroker::stats_json() { return render_stats_exposition(); }

std::string RequestBroker::trace_json(std::uint64_t trace_id) {
  return render_trace_fragment(trace_id);
}

const char* const kServiceCheckpointFormat = "catalyst-service-checkpoint-v1";

namespace {

/// Bytes a submission charges against its session's quota: the dominant
/// blocks only (values / archive text); bookkeeping fields are noise.
std::uint64_t body_cost_bytes(const wire::SubmitBody& body) {
  std::uint64_t cost = body.archive_json.size() +
                       body.values.size() * sizeof(double);
  for (const auto& name : body.event_names) cost += name.size();
  return cost;
}

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

std::string from_hex(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("checkpoint payload: odd hex length");
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    throw std::invalid_argument("checkpoint payload: bad hex digit");
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<char>((nibble(hex[i]) << 4) |
                                    nibble(hex[i + 1])));
  }
  return out;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t id) {
  return dir + "/request-" + std::to_string(id) + ".json";
}

}  // namespace

ServiceCore::ServiceCore(Options options) : options_(std::move(options)) {
  if (!options_.checkpoint_dir.empty()) {
    // The lease outlives every checkpoint write AND blocks a second daemon
    // (or a CLI campaign) from sharing the directory -- cross-process via
    // the flock layer.
    lease_.emplace(options_.checkpoint_dir);
    restore_checkpoints();
  }
}

ServiceCore::~ServiceCore() { begin_shutdown(); }

void ServiceCore::restore_checkpoints() {
  namespace fs = std::filesystem;
  struct Restored {
    std::uint64_t id;
    wire::SubmitBody body;
  };
  std::vector<Restored> found;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(options_.checkpoint_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("request-", 0) != 0 ||
        name.find(".json") == std::string::npos) {
      continue;
    }
    try {
      const json::Value root =
          json::parse(core::read_text_file(entry.path().string()));
      if (root.at("format").as_string() != kServiceCheckpointFormat) {
        continue;  // Foreign file; leave it alone.
      }
      Restored r;
      r.id = root.at("id").as_u64();
      r.body = wire::decode_submit(from_hex(root.at("payload").as_string()));
      found.push_back(std::move(r));
      fs::remove(entry.path(), ec);
    } catch (const std::exception&) {
      // Torn / corrupt checkpoint: the request is lost, the daemon is not.
      obs::count(obs::names::kServiceCheckpointRestoreFailed);
    }
  }
  // Id order IS arrival order (ids are assigned monotonically), so the
  // restored queue replays the pre-shutdown queue exactly.
  std::sort(found.begin(), found.end(),
            [](const Restored& a, const Restored& b) { return a.id < b.id; });
  const sync::LockGuard lock(mutex_);
  for (auto& r : found) {
    auto request = std::make_unique<Request>();
    request->id = r.id;
    request->session = 0;  // Orphaned by the old daemon; any session may poll.
    request->body_bytes = body_cost_bytes(r.body);
    request->body = std::move(r.body);
    next_id_ = std::max(next_id_, r.id + 1);
    queue_.push_back(r.id);
    requests_.emplace(r.id, std::move(request));
    ++restored_;
  }
  obs::count(obs::names::kServiceRequestsRestored, restored_);
  update_gauges_locked();
}

std::string ServiceCore::stats_json() {
  obs::count(obs::names::kServiceStatsServed);
  return render_stats_exposition();
}

std::string ServiceCore::trace_json(std::uint64_t trace_id) {
  obs::count(obs::names::kServiceTracesServed);
  return render_trace_fragment(trace_id);
}

void ServiceCore::update_gauges_locked() {
  obs::gauge(obs::names::kServiceQueueDepth,
             static_cast<std::int64_t>(queue_.size()));
  obs::gauge(obs::names::kServiceWorkersBusy,
             static_cast<std::int64_t>(running_));
  obs::gauge(obs::names::kServiceInflightRequests,
             static_cast<std::int64_t>(requests_.size()));
}

SubmitOutcome ServiceCore::submit(SessionId session, wire::SubmitBody body) {
  SubmitOutcome out;
  const std::uint64_t cost = body_cost_bytes(body);
  const sync::LockGuard lock(mutex_);
  if (shutting_down_) {
    out.kind = SubmitOutcome::Kind::rejected;
    out.code = wire::ErrorCode::shutting_down;
    out.message = "daemon is draining; resubmit later";
    return out;
  }
  SessionUsage& usage = usage_[session];
  if (usage.inflight >= options_.max_inflight_per_session) {
    obs::count(obs::names::kServiceQuotaRejections);
    out.kind = SubmitOutcome::Kind::rejected;
    out.code = wire::ErrorCode::quota_exceeded;
    out.message = "session has " + std::to_string(usage.inflight) +
                  " requests inflight (limit " +
                  std::to_string(options_.max_inflight_per_session) + ")";
    return out;
  }
  if (usage.bytes + cost > options_.max_bytes_per_session) {
    obs::count(obs::names::kServiceQuotaRejections);
    out.kind = SubmitOutcome::Kind::rejected;
    out.code = wire::ErrorCode::quota_exceeded;
    out.message = "session byte quota exhausted (limit " +
                  std::to_string(options_.max_bytes_per_session) + " bytes)";
    return out;
  }
  if (queue_.size() >= options_.queue_capacity) {
    obs::count(obs::names::kServiceLoadShed);
    out.kind = SubmitOutcome::Kind::retry_after;
    out.retry_after = options_.retry_after_hint;
    return out;
  }
  auto request = std::make_unique<Request>();
  request->id = next_id_++;
  request->session = session;
  request->body = std::move(body);
  request->body_bytes = cost;
  if (obs::enabled()) {
    request->enqueued_ns = obs::Tracer::instance().now_ns();
  }
  out.kind = SubmitOutcome::Kind::accepted;
  out.request_id = request->id;
  usage.inflight += 1;
  usage.bytes += cost;
  queue_.push_back(request->id);
  requests_.emplace(request->id, std::move(request));
  obs::count(obs::names::kServiceRequestsAccepted);
  update_gauges_locked();
  work_cv_.notify_one();
  return out;
}

PollOutcome ServiceCore::poll(SessionId session, std::uint64_t request_id) {
  PollOutcome out;
  const sync::LockGuard lock(mutex_);
  const auto it = requests_.find(request_id);
  // Session isolation: polling someone else's id is indistinguishable from
  // polling a nonexistent one (ids must not leak cross-tenant state).
  // Session 0 marks requests orphaned by a previous daemon's shutdown.
  if (it == requests_.end() ||
      (it->second->session != session && it->second->session != 0)) {
    out.kind = PollOutcome::Kind::unknown;
    return out;
  }
  Request& request = *it->second;
  switch (request.state) {
    case State::queued:
      out.kind = PollOutcome::Kind::queued;
      return out;
    case State::running:
      out.kind = PollOutcome::Kind::analyzing;
      return out;
    case State::done:
      out.kind = PollOutcome::Kind::result;
      out.text = std::move(request.outcome.text);
      out.trace_id = request.body.trace_id;
      break;
    case State::failed:
      out.kind = PollOutcome::Kind::failed;
      out.code = request.outcome.code;
      out.message = std::move(request.outcome.message);
      break;
    case State::cancelled:
      out.kind = PollOutcome::Kind::cancelled;
      break;
  }
  // Terminal answers are collect-once: the entry is freed now, so a client
  // that polls forever cannot pin daemon memory and a finished request's
  // quota slot is returned at the moment its owner learns the outcome.
  auto usage_it = usage_.find(request.session);
  if (usage_it != usage_.end() && usage_it->second.inflight > 0) {
    usage_it->second.inflight -= 1;
  }
  requests_.erase(it);
  update_gauges_locked();
  return out;
}

bool ServiceCore::cancel(SessionId session, std::uint64_t request_id) {
  const sync::LockGuard lock(mutex_);
  const auto it = requests_.find(request_id);
  if (it == requests_.end() ||
      (it->second->session != session && it->second->session != 0)) {
    return false;
  }
  Request& request = *it->second;
  switch (request.state) {
    case State::queued: {
      const auto pos = std::find(queue_.begin(), queue_.end(), request_id);
      if (pos != queue_.end()) queue_.erase(pos);
      request.state = State::cancelled;
      obs::count(obs::names::kServiceRequestsCancelled);
      update_gauges_locked();
      return true;
    }
    case State::running:
      // Cooperative: the worker's pipeline raises PipelineCancelled at the
      // next stage boundary and the entry lands in `cancelled` via finish().
      request.cancel.request_cancel();
      return true;
    case State::done:
    case State::failed:
    case State::cancelled:
      return true;  // Already terminal; cancel is a no-op, not an error.
  }
  return false;
}

void ServiceCore::forget_session(SessionId session) {
  const sync::LockGuard lock(mutex_);
  usage_.erase(session);
  for (auto it = requests_.begin(); it != requests_.end();) {
    Request& request = *it->second;
    if (request.session != session) {
      ++it;
      continue;
    }
    if (request.state == State::running) {
      // The worker holds a pointer to this entry: signal it and let
      // finish() reap the orphan instead of pulling the entry out from
      // under the analysis.
      request.cancel.request_cancel();
      request.orphaned = true;
      ++it;
      continue;
    }
    if (request.state == State::queued) {
      const auto pos = std::find(queue_.begin(), queue_.end(), request.id);
      if (pos != queue_.end()) queue_.erase(pos);
    }
    it = requests_.erase(it);
  }
  update_gauges_locked();
}

ServiceCore::Request* ServiceCore::claim_next_locked() {
  if (queue_.empty()) return nullptr;
  const std::uint64_t id = queue_.front();
  queue_.pop_front();
  const auto it = requests_.find(id);
  if (it == requests_.end()) return nullptr;  // Cancelled out of the queue.
  it->second->state = State::running;
  running_ += 1;
  if (obs::enabled()) {
    it->second->started_ns = obs::Tracer::instance().now_ns();
  }
  update_gauges_locked();
  return it->second.get();
}

void ServiceCore::execute(Request* request) {
  obs::Span span("service.request");
  span.arg("id", request->id);
  if (request->body.trace_id != 0) span.arg("trace", request->body.trace_id);
  // Arm the per-request deadline at execution start: the budget covers the
  // ANALYSIS, not the queue wait (queue pressure is the client's signal via
  // retry_after, not a reason to fail work already accepted).
  std::chrono::nanoseconds timeout = options_.default_analysis_timeout;
  if (request->body.deadline_ns != 0) {
    const std::chrono::nanoseconds requested{
        static_cast<std::int64_t>(request->body.deadline_ns)};
    if (timeout.count() == 0 || requested < timeout) timeout = requested;
  }
  if (timeout.count() > 0 && options_.clock != nullptr) {
    request->cancel.arm_deadline(options_.clock,
                                 options_.clock->now() + timeout);
  }
  // The value block moves into the analysis: a running request is never
  // re-encoded (checkpoint_queued_locked walks queue_ only), and finish()
  // and poll() read only the body's trace id and category.
  EngineOutcome outcome =
      run_analysis(catalog_, request->body, &request->cancel);
  span.end();
  // Latency histogram behind the span: bench/service_load scrapes its
  // percentiles over the wire, and --stats exports it without trace
  // post-processing.
  obs::observe(obs::names::kServiceRequestNs,
               static_cast<double>(span.duration_ns()));
  finish(request, std::move(outcome));
}

void ServiceCore::finish(Request* request, EngineOutcome outcome) {
  if (obs::enabled()) {
    // Flight recorder: one bounded summary per request, whatever its fate
    // -- the ring is what a SIGUSR1 dump (or the crash path) shows.
    obs::FlightRecord rec;
    rec.request_id = request->id;
    rec.session_id = request->session;
    rec.trace_id = request->body.trace_id;
    rec.bytes = request->body_bytes;
    rec.category = request->body.category;
    if (outcome.ok) {
      rec.verdict = "ok";
    } else if (outcome.code == wire::ErrorCode::cancelled) {
      rec.verdict = "cancelled";
    } else if (outcome.code == wire::ErrorCode::deadline_exceeded) {
      rec.verdict = "deadline";
    } else {
      rec.verdict = "failed";
    }
    rec.enqueued_ns = request->enqueued_ns;
    rec.started_ns = request->started_ns;
    rec.finished_ns = obs::Tracer::instance().now_ns();
    obs::FlightRecorder::instance().record(std::move(rec));
  }
  const sync::LockGuard lock(mutex_);
  running_ -= 1;
  if (request->orphaned) {
    // Owner session is gone; nobody will ever poll this.
    requests_.erase(request->id);
    update_gauges_locked();
    return;
  }
  if (outcome.ok) {
    request->state = State::done;
  } else if (outcome.code == wire::ErrorCode::cancelled) {
    request->state = State::cancelled;
    obs::count(obs::names::kServiceRequestsCancelled);
  } else {
    request->state = State::failed;
  }
  request->outcome = std::move(outcome);
  update_gauges_locked();
}

void ServiceCore::worker_loop() {
  for (;;) {
    Request* request = nullptr;
    {
      sync::UniqueLock lock(mutex_);
      // Manual wait loop (not the predicate overload): the predicate would
      // read guarded fields from a lambda TSA cannot see through.
      while (queue_.empty() && !shutting_down_) {
        work_cv_.wait(lock);
      }
      if (queue_.empty()) return;  // Shutting down, nothing left to claim.
      request = claim_next_locked();
    }
    if (request != nullptr) execute(request);
  }
}

bool ServiceCore::run_one() {
  Request* request = nullptr;
  {
    const sync::LockGuard lock(mutex_);
    request = claim_next_locked();
  }
  if (request == nullptr) return false;
  execute(request);
  return true;
}

void ServiceCore::begin_shutdown() {
  const sync::LockGuard lock(mutex_);
  if (shutting_down_) return;
  shutting_down_ = true;
  checkpoint_queued_locked();
  // Queued-unstarted work will NOT run in this process: dequeue it and give
  // pollers the typed truth.  (The checkpoint above preserves it for the
  // next daemon; running analyses keep going -- that is the drain.)
  while (!queue_.empty()) {
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    const auto it = requests_.find(id);
    if (it == requests_.end()) continue;
    it->second->state = State::failed;
    it->second->outcome.ok = false;
    it->second->outcome.code = wire::ErrorCode::shutting_down;
    it->second->outcome.message =
        options_.checkpoint_dir.empty()
            ? "daemon shut down before this request started"
            : "daemon shut down; request checkpointed for restart";
  }
  update_gauges_locked();
  work_cv_.notify_all();
}

void ServiceCore::checkpoint_queued_locked() {
  if (options_.checkpoint_dir.empty() || queue_.empty()) return;
  std::size_t written = 0;
  for (const std::uint64_t id : queue_) {
    const auto it = requests_.find(id);
    if (it == requests_.end()) continue;
    try {
      json::Value root = json::Value::object();
      root["format"] = kServiceCheckpointFormat;
      root["id"] = id;
      root["category"] = it->second->body.category;
      root["payload"] = to_hex(wire::encode_submit(it->second->body));
      core::write_text_file_atomic(
          checkpoint_path(options_.checkpoint_dir, id),
          json::dump(root));
      ++written;
    } catch (const std::exception&) {
      obs::count(obs::names::kServiceCheckpointWriteFailed);
    }
  }
  obs::count(obs::names::kServiceRequestsCheckpointed, written);
}

bool ServiceCore::drained() const {
  const sync::LockGuard lock(mutex_);
  return shutting_down_ && queue_.empty() && running_ == 0;
}

bool ServiceCore::shutting_down() const {
  const sync::LockGuard lock(mutex_);
  return shutting_down_;
}

std::size_t ServiceCore::queued_count() const {
  const sync::LockGuard lock(mutex_);
  return queue_.size();
}

std::size_t ServiceCore::running_count() const {
  const sync::LockGuard lock(mutex_);
  return running_;
}

}  // namespace catalyst::service
