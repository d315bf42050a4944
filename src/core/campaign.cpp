#include "core/campaign.hpp"

#include <filesystem>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/contract.hpp"
#include "core/io.hpp"
#include "json/json.hpp"
#include "core/noise.hpp"
#include "core/parallel.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CATALYST_HAVE_FLOCK 1
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace catalyst::core {

const char* const kCheckpointFormat = "catalyst-checkpoint-v1";

namespace {

/// The set of checkpoint directories currently held by live leases.
struct LeaseRegistry {
  sync::Mutex mutex{"core.campaign.checkpoint_dirs"};
  std::unordered_set<std::string> active CATALYST_GUARDED_BY(mutex);
};

LeaseRegistry& lease_registry() noexcept {
  // Leaked: a lease may be released during static destruction.
  static LeaseRegistry* registry = new LeaseRegistry;
  return *registry;
}

std::string lease_file_path(const std::string& directory) {
  return directory + "/.catalyst-lease";
}

#if CATALYST_HAVE_FLOCK
/// Opens the lease file and takes the non-blocking exclusive flock.
/// Returns the locked fd, -1 if another process holds the lock, or throws
/// if the lease file cannot even be opened (unwritable directory).
int acquire_lease_lock(const std::string& directory) {
  std::error_code ec;  // Best effort; open() below reports the real error.
  std::filesystem::create_directories(directory, ec);
  const std::string path = lease_file_path(directory);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw std::runtime_error("checkpoint lease: cannot open '" + path + "'");
  }
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}
#endif

}  // namespace

CheckpointDirLease::CheckpointDirLease(std::string directory)
    : directory_(std::move(directory)) {
  LeaseRegistry& reg = lease_registry();
  {
    const sync::LockGuard lock(reg.mutex);
    if (!reg.active.insert(directory_).second) {
      throw std::runtime_error(
          "checkpoint directory '" + directory_ +
          "' is already in use by another campaign in this process");
    }
  }
#if CATALYST_HAVE_FLOCK
  try {
    lock_fd_ = acquire_lease_lock(directory_);
  } catch (...) {
    const sync::LockGuard lock(reg.mutex);
    reg.active.erase(directory_);
    throw;
  }
  if (lock_fd_ < 0) {
    {
      const sync::LockGuard lock(reg.mutex);
      reg.active.erase(directory_);
    }
    throw std::runtime_error(
        "checkpoint directory '" + directory_ +
        "' is already in use by another process (lease file '" +
        lease_file_path(directory_) + "' is locked)");
  }
#endif
}

CheckpointDirLease::~CheckpointDirLease() {
#if CATALYST_HAVE_FLOCK
  if (lock_fd_ >= 0) {
    // close() drops the flock with it; no explicit LOCK_UN needed.
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
#endif
  LeaseRegistry& reg = lease_registry();
  const sync::LockGuard lock(reg.mutex);
  reg.active.erase(directory_);
}

bool checkpoint_dir_locked(const std::string& directory) {
#if CATALYST_HAVE_FLOCK
  const std::string path = lease_file_path(directory);
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return false;  // No lease file => nobody can hold its lock.
  const bool locked = ::flock(fd, LOCK_EX | LOCK_NB) != 0;
  ::close(fd);  // Releases the probe lock if we won it.
  return locked;
#else
  (void)directory;
  return false;
#endif
}

std::string campaign_config_key(const pmu::Machine& machine,
                                const cat::Benchmark& benchmark,
                                const CampaignOptions& options) {
  std::ostringstream os;
  os << machine.name() << '|' << benchmark.name
     << "|reps=" << options.pipeline.repetitions
     << "|bthreads=" << benchmark.slots.front().thread_activities.size()
     << "|slots=" << benchmark.slots.size()
     << "|events=" << machine.events().size() << "|plan="
     << (options.fault_plan != nullptr ? faults::describe(*options.fault_plan)
                                       : std::string("off"))
     << "|max_retries=" << options.resilience.max_retries;
  if (options.collection_mode != vpapi::CollectionMode::counting) {
    // Counting campaigns keep the historical key byte-for-byte; sampling
    // knobs only appear when they actually shape the data.
    os << "|mode=" << vpapi::to_string(options.collection_mode)
       << "|span=" << options.sample_schedule.kernel_span_ns
       << "|period=" << options.sample_schedule.period_ns
       << "|short=" << options.sample_schedule.short_period_ns
       << "|dither=" << (options.sample_schedule.dither ? 1 : 0);
  }
  return os.str();
}

namespace {

std::string checkpoint_path(const std::string& directory, std::size_t batch) {
  std::ostringstream os;
  os << directory << "/batch-" << batch << ".json";
  return os.str();
}

/// Position in `all` of each of `names`, which must list a subsequence of
/// `all` in order -- the order every collection, report and checkpoint
/// keeps.  Throws std::invalid_argument otherwise.
std::vector<std::size_t> positions_in(const std::vector<std::string>& all,
                                      const std::vector<std::string>& names) {
  std::vector<std::size_t> positions;
  positions.reserve(names.size());
  std::size_t i = 0;
  for (const auto& name : names) {
    while (i < all.size() && all[i] != name) ++i;
    if (i == all.size()) {
      throw std::invalid_argument("event '" + name +
                                  "' is out of the machine's event order");
    }
    positions.push_back(i++);
  }
  return positions;
}

/// Checkpoint of batch `index`: its report and, for every event it did not
/// quarantine, repetition `index` of `m`.
json::Value batch_to_json(const vpapi::CollectionReport& report,
                          const vpapi::Measurements& m, std::size_t index,
                          const std::string& config_key) {
  json::Value root = json::Value::object();
  root["format"] = kCheckpointFormat;
  root["config"] = config_key;
  root["batch"] = index;
  json::Value events = json::Value::array();
  json::Value meas = json::Value::array();
  for (std::size_t e = 0; e < m.size(); ++e) {
    if (report.events[e].is_quarantined()) continue;
    events.push_back(report.events[e].name);
    json::Value row = json::Value::array();
    for (const double v : m.row(e, index)) row.push_back(v);
    meas.push_back(std::move(row));
  }
  root["events"] = std::move(events);
  root["measurements"] = std::move(meas);
  json::Value q = json::Value::array();
  for (const auto& n : report.quarantined) q.push_back(n);
  root["quarantined"] = std::move(q);
  root["report"] = collection_report_to_json(report);
  return root;
}

/// Parses and validates one checkpoint, loads its rows into repetition
/// `index` of `m` and returns the batch's report.  Throws (JsonError or
/// std::invalid_argument) on anything suspicious; the caller treats every
/// throw as "batch not done" and re-collects, rewriting any loaded rows.
vpapi::CollectionReport batch_from_json(
    const std::string& text, const std::string& config_key, std::size_t index,
    const std::vector<std::string>& all_events, vpapi::Measurements& m) {
  const json::Value root = json::parse(text);
  if (root.at("format").as_string() != kCheckpointFormat) {
    throw std::invalid_argument("checkpoint: unsupported format");
  }
  if (root.at("config").as_string() != config_key) {
    throw std::invalid_argument("checkpoint: campaign config mismatch");
  }
  if (root.at("batch").as_u64() != index) {
    throw std::invalid_argument("checkpoint: batch index mismatch");
  }
  std::vector<std::string> names;
  for (const auto& n : root.at("events").as_array()) {
    names.push_back(n.as_string());
  }
  const std::vector<std::size_t> kept = positions_in(all_events, names);
  const auto& meas = root.at("measurements").as_array();
  if (meas.size() != kept.size()) {
    throw std::invalid_argument("checkpoint: measurements/events mismatch");
  }
  // The stored report lists only eventful events; spread it back out to one
  // entry per machine event.
  const vpapi::CollectionReport stored =
      collection_report_from_json(root.at("report"));
  std::vector<std::string> stored_names;
  for (const auto& e : stored.events) stored_names.push_back(e.name);
  const std::vector<std::size_t> at = positions_in(all_events, stored_names);
  auto report = vpapi::CollectionReport::for_events(all_events);
  for (std::size_t i = 0; i < at.size(); ++i) {
    report.events[at[i]] = stored.events[i];
  }
  report.total_retries = stored.total_retries;
  report.start_retries = stored.start_retries;
  // The rows decide quarantine: an event without one was quarantined.
  for (auto& er : report.events) {
    er.disposition = vpapi::EventDisposition::quarantined;
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto& row = meas[i].as_array();
    if (row.size() != m.slots()) {
      throw std::invalid_argument("checkpoint: measurement row width");
    }
    const std::span<double> out = m.row(kept[i], index);
    for (std::size_t k = 0; k < row.size(); ++k) out[k] = row[k].as_number();
    report.events[kept[i]].disposition = vpapi::EventDisposition::clean;
  }
  report.resolve_dispositions();
  return report;
}

/// Stages 2-3 of live batch r: the median across benchmark threads of each
/// (event, slot) reading, normalized per slot, into repetition r of `m`.
/// Thread t's readings are per_thread[t], or already in `m` when there is
/// one thread.  Returns the threads' reports merged.
vpapi::CollectionReport median_normalize(
    std::vector<vpapi::CollectionResult>& data,
    const std::vector<vpapi::Measurements>& per_thread, vpapi::Measurements& m,
    std::size_t r, const std::vector<double>& inv_normalizer) {
  const std::size_t n_threads = data.size();
  vpapi::CollectionReport report = std::move(data[0].report);
  for (std::size_t t = 1; t < n_threads; ++t) report.add(data[t].report);
  report.resolve_dispositions();
  std::vector<double> thread_vals(n_threads);
  for (std::size_t e = 0; e < m.size(); ++e) {
    if (report.events[e].is_quarantined()) continue;
    const std::span<double> out = m.row(e, r);
    if (n_threads == 1) {
      for (std::size_t k = 0; k < out.size(); ++k) out[k] *= inv_normalizer[k];
      continue;
    }
    for (std::size_t k = 0; k < out.size(); ++k) {
      for (std::size_t t = 0; t < n_threads; ++t) {
        thread_vals[t] = per_thread[t].row(e, 0)[k];
      }
      out[k] = median(thread_vals) * inv_normalizer[k];
    }
  }
  return report;
}

}  // namespace

void validate(const CampaignOptions& options) {
  if (options.pipeline.repetitions < 2) {
    throw std::invalid_argument(
        "run_campaign: need >= 2 repetitions for the RNMSE filter");
  }
  if (options.collection_mode == vpapi::CollectionMode::counting) return;
  options.sample_schedule.validate();
  if (options.fault_plan != nullptr && options.fault_plan->enabled()) {
    throw std::invalid_argument(
        "run_campaign: fault injection is counting-mode only (the sampling "
        "collector has no per-kernel retry point)");
  }
  if (!options.checkpoint.directory.empty()) {
    throw std::invalid_argument(
        "run_campaign: checkpointing is counting-mode only (sample traces "
        "do not fit the checkpoint format)");
  }
}

CampaignResult run_campaign(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const CampaignOptions& options) {
  validate(options);
  const int threads = resolve_threads(options.pipeline.threads);
  CATALYST_REQUIRE_AS(!benchmark.slots.empty(), std::invalid_argument,
                      "run_campaign: benchmark has no slots");
  benchmark.validate();
  CATALYST_REQUIRE_AS(!machine.events().empty(), std::invalid_argument,
                      "run_campaign: machine publishes no events");
  const bool sampled =
      options.collection_mode != vpapi::CollectionMode::counting;
  const std::size_t n_threads =
      benchmark.slots.front().thread_activities.size();
  for (const auto& slot : benchmark.slots) {
    CATALYST_REQUIRE_AS(slot.thread_activities.size() == n_threads,
                        std::invalid_argument,
                        "run_campaign: inconsistent thread counts across "
                        "slots");
  }
  const bool checkpointing = !options.checkpoint.directory.empty();
  const bool reporting =
      options.fault_plan != nullptr || checkpointing || sampled;

  const std::vector<std::string> all_events = machine.event_names();
  const std::size_t n_events = all_events.size();
  const std::size_t n_slots = benchmark.slots.size();
  // One prepared collector per benchmark thread: events, schedule and dense
  // kernel activities are built once and reused by every batch.
  obs::Span prepare_span("stage.collect");
  prepare_span.arg("prepare", n_threads);
  std::vector<vpapi::Collector> collectors;
  collectors.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    std::vector<pmu::Activity> acts;
    acts.reserve(n_slots);
    for (const auto& slot : benchmark.slots) {
      acts.push_back(slot.thread_activities[t]);
    }
    collectors.emplace_back(machine, all_events, acts);
  }
  prepare_span.end();
  // Per-slot normalization is a multiply in the hot loop, not a divide.
  std::vector<double> inv_normalizer(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k) {
    inv_normalizer[k] = 1.0 / benchmark.slots[k].normalizer;
  }
  vpapi::CollectionPlan plan;
  plan.threads = threads;
  plan.mode = options.collection_mode;
  plan.schedule = options.sample_schedule;
  plan.faults = options.fault_plan;
  plan.resilience = options.resilience;

  const std::string config_key =
      campaign_config_key(machine, benchmark, options);
  std::optional<CheckpointDirLease> lease;
  if (checkpointing) {
    lease.emplace(options.checkpoint.directory);
    std::filesystem::create_directories(options.checkpoint.directory);
  }

  CampaignResult out;
  out.batches_total = options.pipeline.repetitions;
  // Batch r collects, normalizes or loads straight into repetition r of the
  // campaign tensor; several benchmark threads collect into one-repetition
  // scratch tensors for the median.
  vpapi::Measurements measurements(n_events, out.batches_total, n_slots);
  std::vector<vpapi::Measurements> per_thread(
      n_threads > 1 ? n_threads : 0, vpapi::Measurements(n_events, 1, n_slots));
  auto merged = vpapi::CollectionReport::for_events(all_events);
  vpapi::SampleTrace trace;
  // Stage wall times, summed over batches: collection (with the collectors'
  // preparation and checkpoint I/O) versus thread-median/normalize plus the
  // final merge.
  std::int64_t collect_ns = prepare_span.duration_ns();
  std::int64_t median_ns = 0;
  for (std::size_t r = 0; r < out.batches_total; ++r) {
    if (options.pipeline.cancel != nullptr) options.pipeline.cancel->check();
    obs::Span batch_span("campaign.batch");
    batch_span.arg("batch", r);
    obs::Span collect_span("stage.collect");
    std::optional<vpapi::CollectionReport> batch;
    if (checkpointing && options.checkpoint.resume) {
      obs::Span load_span("campaign.checkpoint.load");
      load_span.arg("batch", r);
      try {
        batch = batch_from_json(
            read_text_file(checkpoint_path(options.checkpoint.directory, r)),
            config_key, r, all_events, measurements);
      } catch (const std::exception&) {
        // Missing, truncated, corrupt, or mismatched checkpoint: the batch
        // is simply not done yet.  Re-collecting it is always safe because
        // readings are pure functions of their coordinates.
      }
      load_span.arg("hit", batch.has_value());
    }
    batch_span.arg("resumed", batch.has_value());
    if (batch) {
      collect_span.end();
      collect_ns += collect_span.duration_ns();
      ++out.batches_resumed;
      merged.add(*batch);
      continue;
    }
    // Batch r on benchmark thread t reads the run ids of repetition
    // r*n_threads + t, so every thread sees independent noise, as separate
    // hardware threads would.
    std::vector<vpapi::CollectionResult> data;
    data.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      plan.repetition_offset = r * n_threads + t;
      data.push_back(n_threads == 1
                         ? collectors[t].collect_into(plan, measurements, r)
                         : collectors[t].collect_into(plan, per_thread[t], 0));
    }
    collect_span.end();
    collect_ns += collect_span.duration_ns();

    obs::Span median_span("stage.median_normalize");
    batch = median_normalize(data, per_thread, measurements, r, inv_normalizer);
    median_span.end();
    median_ns += median_span.duration_ns();
    for (vpapi::CollectionResult& d : data) {
      for (auto& run : d.trace.runs) trace.runs.push_back(std::move(run));
    }

    if (checkpointing) {
      obs::Span write_span("campaign.checkpoint.write");
      write_span.arg("batch", r);
      write_text_file_atomic(
          checkpoint_path(options.checkpoint.directory, r),
          json::dump(batch_to_json(*batch, measurements, r, config_key)));
      write_span.end();
      collect_ns += write_span.duration_ns();
    }
    merged.add(*batch);
  }
  // The analysis needs none of the collectors' state; their schedules and
  // event lists are freed before its peak instead of after it.
  collectors.clear();
  per_thread.clear();
  obs::count(obs::names::kCampaignBatches, out.batches_total);
  obs::count(obs::names::kCampaignBatchesResumed, out.batches_resumed);
  obs::count(obs::names::kPipelineEventsMeasured, n_events);

  // --- merge: quarantine union, surviving events, report ---------------------
  obs::Span merge_span("stage.median_normalize");
  merged.resolve_dispositions();
  std::vector<char> keep(n_events);
  std::vector<std::string> final_events;
  for (std::size_t e = 0; e < n_events; ++e) {
    keep[e] = !merged.events[e].is_quarantined();
    if (keep[e] != 0) final_events.push_back(all_events[e]);
  }
  measurements.keep_events(keep);
  merge_span.end();
  median_ns += merge_span.duration_ns();
  if (final_events.empty()) {
    throw AllEventsQuarantined(
        "run_campaign: all " + std::to_string(n_events) +
        " events were quarantined, nothing is left to analyze (collection "
        "report: " + merged.summary() + ")");
  }

  out.result = analyze_measurements(benchmark.basis.e, final_events,
                                    std::move(measurements), signatures,
                                    options.pipeline);
  // Collection happened before analyze_measurements built its timing list;
  // the two collection-side stages go in front, in pipeline order.
  if (collect_ns > 0 || median_ns > 0) {
    std::vector<obs::StageTiming> timings{{"collect", collect_ns},
                                          {"median_normalize", median_ns}};
    timings.insert(timings.end(), out.result.stage_timings.begin(),
                   out.result.stage_timings.end());
    out.result.stage_timings = std::move(timings);
  }
  if (reporting) {
    out.result.quarantined_events = merged.quarantined;
    out.result.collection = std::move(merged);
  }
  if (sampled) {
    trace.mode = options.collection_mode;
    trace.schedule = options.sample_schedule;
    trace.kernels = n_slots;
    out.result.collection_mode = options.collection_mode;
    out.result.sample_trace = std::move(trace);
  }
  return out;
}

}  // namespace catalyst::core
