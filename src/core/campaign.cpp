#include "core/campaign.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/contract.hpp"
#include "core/io.hpp"
#include "core/json.hpp"
#include "core/noise.hpp"
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

/// One completed batch: repetition r's thread-median, normalized readings.
struct Batch {
  /// Machine-order positions of the events every benchmark thread kept,
  /// ascending; the others were quarantined in this batch.
  std::vector<std::size_t> kept;
  /// measurements[i][k]: thread-median, normalized reading of kept[i].
  std::vector<std::vector<double>> measurements;
  /// One entry per machine event, merged across benchmark threads; empty
  /// unless the campaign reports.
  vpapi::CollectionReport report;
  /// Sampling/strobed modes only: the per-run sample traces behind this
  /// batch's measurements, benchmark-thread order.  Never checkpointed
  /// (checkpointing is counting-only).
  std::vector<vpapi::RunTrace> traces;
};

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

/// dropped[e] != 0 for every position 0..n-1 missing from ascending `kept`.
std::vector<char> dropped_mask(const std::vector<std::size_t>& kept,
                               std::size_t n) {
  std::vector<char> dropped(n, 1);
  for (const std::size_t e : kept) dropped[e] = 0;
  return dropped;
}

/// Adds `src`'s tallies into `acc`; both hold one entry per machine event.
void add_report(vpapi::CollectionReport& acc,
                const vpapi::CollectionReport& src) {
  for (std::size_t e = 0; e < acc.events.size(); ++e) {
    vpapi::EventReport& a = acc.events[e];
    const vpapi::EventReport& b = src.events[e];
    a.read_attempts += b.read_attempts;
    a.retries += b.retries;
    a.wraps_corrected += b.wraps_corrected;
    for (std::size_t f = 0; f < a.faults.size(); ++f) {
      a.faults[f] += b.faults[f];
    }
  }
  acc.total_retries += src.total_retries;
  acc.start_retries += src.start_retries;
}

/// Sets every event's disposition and the quarantined list from `dropped`.
void resolve_dispositions(vpapi::CollectionReport& report,
                          const std::vector<char>& dropped) {
  report.quarantined.clear();
  for (std::size_t e = 0; e < report.events.size(); ++e) {
    vpapi::EventReport& er = report.events[e];
    if (dropped[e] != 0) {
      er.disposition = vpapi::EventDisposition::quarantined;
      report.quarantined.push_back(er.name);
    } else if (er.total_faults() != 0 || er.retries != 0 ||
               er.wraps_corrected != 0) {
      er.disposition = vpapi::EventDisposition::recovered;
    } else {
      er.disposition = vpapi::EventDisposition::clean;
    }
  }
}

/// An all-clean report with one entry per event of `all`.
vpapi::CollectionReport empty_report(const std::vector<std::string>& all) {
  vpapi::CollectionReport report;
  report.events.resize(all.size());
  for (std::size_t e = 0; e < all.size(); ++e) report.events[e].name = all[e];
  return report;
}

json::Value batch_to_json(const Batch& batch,
                          const std::vector<std::string>& all_events,
                          const std::string& config_key, std::size_t index) {
  json::Value root = json::Value::object();
  root["format"] = kCheckpointFormat;
  root["config"] = config_key;
  root["batch"] = static_cast<double>(index);
  json::Value events = json::Value::array();
  for (const std::size_t e : batch.kept) events.push_back(all_events[e]);
  root["events"] = std::move(events);
  json::Value meas = json::Value::array();
  for (const auto& per_event : batch.measurements) {
    json::Value row = json::Value::array();
    for (double v : per_event) row.push_back(v);
    meas.push_back(std::move(row));
  }
  root["measurements"] = std::move(meas);
  json::Value q = json::Value::array();
  for (const auto& n : batch.report.quarantined) q.push_back(n);
  root["quarantined"] = std::move(q);
  root["report"] = collection_report_to_json(batch.report);
  return root;
}

/// Parses and validates one checkpoint file's text.  Throws (JsonError or
/// std::invalid_argument) on anything suspicious; the caller treats every
/// throw as "batch not done" and re-collects.
Batch batch_from_json(const std::string& text, const std::string& config_key,
                      std::size_t index,
                      const std::vector<std::string>& all_events,
                      std::size_t n_slots) {
  const json::Value root = json::parse(text);
  if (root.at("format").as_string() != kCheckpointFormat) {
    throw std::invalid_argument("checkpoint: unsupported format");
  }
  if (root.at("config").as_string() != config_key) {
    throw std::invalid_argument("checkpoint: campaign config mismatch");
  }
  if (static_cast<std::size_t>(root.at("batch").as_number()) != index) {
    throw std::invalid_argument("checkpoint: batch index mismatch");
  }
  Batch b;
  std::vector<std::string> names;
  for (const auto& n : root.at("events").as_array()) {
    names.push_back(n.as_string());
  }
  b.kept = positions_in(all_events, names);
  const auto& meas = root.at("measurements").as_array();
  if (meas.size() != b.kept.size()) {
    throw std::invalid_argument("checkpoint: measurements/events mismatch");
  }
  for (const auto& row : meas) {
    std::vector<double> vec;
    for (const auto& v : row.as_array()) vec.push_back(v.as_number());
    if (vec.size() != n_slots) {
      throw std::invalid_argument("checkpoint: measurement row width");
    }
    b.measurements.push_back(std::move(vec));
  }
  // The stored report lists only eventful events; spread it back out to one
  // entry per machine event.
  const vpapi::CollectionReport stored =
      collection_report_from_json(root.at("report"));
  std::vector<std::string> stored_names;
  for (const auto& e : stored.events) stored_names.push_back(e.name);
  const std::vector<std::size_t> at = positions_in(all_events, stored_names);
  b.report = empty_report(all_events);
  for (std::size_t i = 0; i < at.size(); ++i) {
    b.report.events[at[i]] = stored.events[i];
  }
  b.report.total_retries = stored.total_retries;
  b.report.start_retries = stored.start_retries;
  resolve_dispositions(b.report, dropped_mask(b.kept, all_events.size()));
  return b;
}

/// Stages 2-3 of one live batch: the median across benchmark threads of
/// each (event, slot) reading, normalized per slot.  `data[t]` is thread t's
/// one-repetition collection; rows are addressed by position and moved,
/// never looked up by name or copied.
Batch thread_median(std::vector<vpapi::CollectionResult> data,
                    const std::vector<std::string>& all_events,
                    const std::vector<double>& inv_normalizer,
                    bool reporting) {
  const std::size_t n_threads = data.size();
  const std::size_t n_events = all_events.size();
  const std::size_t n_slots = inv_normalizer.size();

  // Row of each machine event in each thread's data; a thread that
  // quarantined nothing holds every event in machine order.
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::vector<std::size_t>> row_of(n_threads);
  std::vector<char> dropped(n_events, 0);
  for (std::size_t t = 0; t < n_threads; ++t) {
    if (data[t].event_names.size() == n_events) continue;
    row_of[t].assign(n_events, kAbsent);
    const std::vector<std::size_t> at =
        positions_in(all_events, data[t].event_names);
    for (std::size_t row = 0; row < at.size(); ++row) row_of[t][at[row]] = row;
    for (std::size_t e = 0; e < n_events; ++e) {
      if (row_of[t][e] == kAbsent) dropped[e] = 1;
    }
  }
  const auto row = [&row_of](std::size_t t, std::size_t e) {
    return row_of[t].empty() ? e : row_of[t][e];
  };

  Batch batch;
  for (std::size_t e = 0; e < n_events; ++e) {
    if (dropped[e] == 0) batch.kept.push_back(e);
  }
  batch.measurements.resize(batch.kept.size());
  std::vector<double> thread_vals(n_threads);
  for (std::size_t i = 0; i < batch.kept.size(); ++i) {
    const std::size_t e = batch.kept[i];
    std::vector<double>& out = batch.measurements[i];
    if (n_threads == 1) {
      out = std::move(data[0].repetitions[0].values[row(0, e)]);
      for (std::size_t k = 0; k < n_slots; ++k) out[k] *= inv_normalizer[k];
      continue;
    }
    out.resize(n_slots);
    for (std::size_t k = 0; k < n_slots; ++k) {
      for (std::size_t t = 0; t < n_threads; ++t) {
        thread_vals[t] = data[t].repetitions[0].values[row(t, e)][k];
      }
      out[k] = median(thread_vals) * inv_normalizer[k];
    }
  }

  if (reporting) {
    batch.report = empty_report(all_events);
    for (const auto& d : data) add_report(batch.report, d.report);
    resolve_dispositions(batch.report, dropped);
  }
  for (auto& d : data) {
    for (auto& run : d.trace.runs) batch.traces.push_back(std::move(run));
  }
  return batch;
}

}  // namespace

CampaignResult run_campaign(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const CampaignOptions& options) {
  CATALYST_REQUIRE_AS(options.pipeline.repetitions >= 2, std::invalid_argument,
                      "run_campaign: need >= 2 repetitions for the RNMSE "
                      "filter");
  CATALYST_REQUIRE_AS(!benchmark.slots.empty(), std::invalid_argument,
                      "run_campaign: benchmark has no slots");
  benchmark.validate();
  CATALYST_REQUIRE_AS(!machine.events().empty(), std::invalid_argument,
                      "run_campaign: machine publishes no events");
  const bool sampled =
      options.collection_mode != vpapi::CollectionMode::counting;
  if (sampled) {
    options.sample_schedule.validate();
    CATALYST_REQUIRE_AS(
        options.fault_plan == nullptr || !options.fault_plan->enabled(),
        std::invalid_argument,
        "run_campaign: fault injection is counting-mode only (the sampling "
        "collector has no per-kernel retry point)");
    CATALYST_REQUIRE_AS(
        options.checkpoint.directory.empty(), std::invalid_argument,
        "run_campaign: checkpointing is counting-mode only (sample traces "
        "do not fit the checkpoint format)");
  }
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
  // One prepared collector per benchmark thread: events, schedule and ideal
  // table are built once and reused by every batch.
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
    collectors.emplace_back(machine, all_events, std::move(acts));
  }
  prepare_span.end();
  // Per-slot normalization is a multiply in the hot loop, not a divide.
  std::vector<double> inv_normalizer(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k) {
    inv_normalizer[k] = 1.0 / benchmark.slots[k].normalizer;
  }
  vpapi::CollectionPlan plan;
  plan.threads = options.pipeline.collection_threads;
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
  // Stage wall times, summed over batches: collection (with the collectors'
  // preparation and checkpoint I/O) versus thread-median/normalize plus the
  // final merge.
  std::int64_t collect_ns = prepare_span.duration_ns();
  std::int64_t median_ns = 0;
  std::vector<Batch> batches;
  batches.reserve(out.batches_total);
  for (std::size_t r = 0; r < out.batches_total; ++r) {
    if (options.pipeline.cancel != nullptr) options.pipeline.cancel->check();
    obs::Span batch_span("campaign.batch");
    batch_span.arg("batch", r);
    obs::Span collect_span("stage.collect");
    std::optional<Batch> loaded;
    if (checkpointing && options.checkpoint.resume) {
      obs::Span load_span("campaign.checkpoint.load");
      load_span.arg("batch", r);
      try {
        loaded = batch_from_json(
            read_text_file(checkpoint_path(options.checkpoint.directory, r)),
            config_key, r, all_events, n_slots);
      } catch (const std::exception&) {
        // Missing, truncated, corrupt, or mismatched checkpoint: the batch
        // is simply not done yet.  Re-collecting it is always safe because
        // readings are pure functions of their coordinates.
      }
      load_span.arg("hit", loaded.has_value());
    }
    batch_span.arg("resumed", loaded.has_value());
    if (loaded) {
      collect_span.end();
      collect_ns += collect_span.duration_ns();
      batches.push_back(std::move(*loaded));
      ++out.batches_resumed;
      continue;
    }
    // Batch r on benchmark thread t reads the run ids of repetition
    // r*n_threads + t, so every thread sees independent noise, as separate
    // hardware threads would.
    std::vector<vpapi::CollectionResult> data;
    data.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      plan.repetition_offset = r * n_threads + t;
      data.push_back(collectors[t].collect(plan));
    }
    collect_span.end();
    collect_ns += collect_span.duration_ns();

    obs::Span median_span("stage.median_normalize");
    batches.push_back(
        thread_median(std::move(data), all_events, inv_normalizer, reporting));
    median_span.end();
    median_ns += median_span.duration_ns();

    if (checkpointing) {
      obs::Span write_span("campaign.checkpoint.write");
      write_span.arg("batch", r);
      write_text_file_atomic(
          checkpoint_path(options.checkpoint.directory, r),
          json::dump(batch_to_json(batches.back(), all_events, config_key, r)));
      write_span.end();
      collect_ns += write_span.duration_ns();
    }
  }
  obs::count(obs::names::kCampaignBatches, out.batches_total);
  obs::count(obs::names::kCampaignBatchesResumed, out.batches_resumed);
  obs::count(obs::names::kPipelineEventsMeasured, n_events);

  // --- merge: quarantine union, surviving events, report ---------------------
  obs::Span merge_span("stage.median_normalize");
  std::vector<char> dropped(n_events, 0);
  for (const Batch& b : batches) {
    const std::vector<char> lost = dropped_mask(b.kept, n_events);
    for (std::size_t e = 0; e < n_events; ++e) dropped[e] |= lost[e];
  }
  std::vector<std::string> final_events;
  for (std::size_t e = 0; e < n_events; ++e) {
    if (dropped[e] == 0) final_events.push_back(all_events[e]);
  }
  std::vector<std::vector<std::vector<double>>> measurements(
      final_events.size(),
      std::vector<std::vector<double>>(out.batches_total));
  for (std::size_t r = 0; r < batches.size(); ++r) {
    Batch& b = batches[r];
    std::size_t f = 0;
    for (std::size_t i = 0; i < b.kept.size(); ++i) {
      if (dropped[b.kept[i]] == 0) {
        measurements[f++][r] = std::move(b.measurements[i]);
      }
    }
    CATALYST_ENSURE(f == final_events.size(),
                    "run_campaign: surviving event missing from a batch");
  }
  std::optional<vpapi::CollectionReport> merged;
  if (reporting) {
    merged = empty_report(all_events);
    for (const Batch& b : batches) add_report(*merged, b.report);
    resolve_dispositions(*merged, dropped);
  }
  merge_span.end();
  median_ns += merge_span.duration_ns();

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
  if (merged) {
    out.result.quarantined_events = merged->quarantined;
    out.result.collection = std::move(merged);
  }
  if (sampled) {
    vpapi::SampleTrace trace;
    trace.mode = options.collection_mode;
    trace.schedule = options.sample_schedule;
    trace.kernels = n_slots;
    for (Batch& b : batches) {
      for (auto& run : b.traces) trace.runs.push_back(std::move(run));
    }
    out.result.collection_mode = options.collection_mode;
    out.result.sample_trace = std::move(trace);
  }
  return out;
}

}  // namespace catalyst::core
