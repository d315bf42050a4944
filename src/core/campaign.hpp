// catalyst/core -- the collection front half of the pipeline.
//
// run_campaign() is the only way measurements get collected for analysis;
// run_pipeline() is a thin call of it.  The collection stage runs in
// per-repetition BATCHES over one (event, repetition, slot) tensor
// (vpapi/measurements.hpp).  Batch r collects every benchmark thread with
// the grouped vpapi driver (vpapi/collector.hpp; counting, fault-injected
// or sampled per the options), takes the thread-median, normalizes per
// slot into repetition r of the tensor, and is optionally persisted as an
// atomic JSON checkpoint, so an interrupted campaign can `--resume` from
// the last completed batch without re-executing finished work.  The
// batches are then merged -- events any batch quarantined are dropped with
// one keep_events() -- and analyzed by analyze_measurements().
//
// Bit-identity guarantees (all consequences of counter-keyed noise/faults):
//   * counting mode: with or without faults (short of quarantine) and
//     checkpoints, the measurements are run_pipeline()'s -- batch b,
//     benchmark-thread t collects with repetition_offset b*n_threads + t,
//     so every path reads the same run ids;
//   * interrupted + resumed: identical to the uninterrupted campaign;
//   * any worker thread count: per-unit decisions are pure functions of
//     coordinates and the cross-batch merge is additive/set-union.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cat/benchmark.hpp"
#include "core/pipeline.hpp"
#include "faults/faults.hpp"
#include "pmu/machine.hpp"
#include "vpapi/collector.hpp"

namespace catalyst::core {

/// Exclusive claim on a checkpoint directory.  Two campaigns checkpointing
/// into the same directory would interleave batch-NNN.json files from
/// different configurations; the second writer's files win the rename race
/// and the first campaign resumes from foreign batches.  The lease makes
/// that a loud error instead: acquiring a directory another live lease
/// holds throws std::runtime_error.  run_campaign() takes one for the
/// duration of the collection loop whenever checkpointing is on; catalystd
/// holds one for its service checkpoint directory for its whole lifetime.
///
/// Two layers, so the guarantee spans processes:
///   * in-process registry (fast path, precise error message) -- catches
///     two campaigns inside one process;
///   * OS-level flock(2) on `<directory>/.catalyst-lease` -- catches a
///     daemon and a concurrent CLI run, or two daemons, sharing the
///     directory.  flock conflicts between distinct open file
///     descriptions, so even same-process double-acquisition would fail at
///     this layer if the registry were bypassed.  The lock dies with the
///     process (kill -9 included), so no stale-lease recovery is needed.
class CheckpointDirLease {
 public:
  /// Claims `directory` (keyed verbatim -- callers pass the same string
  /// they pass CheckpointOptions; the directory is created if missing so
  /// the lease file has somewhere to live).  Throws std::runtime_error if
  /// any other live lease -- in this process or any other -- holds it.
  explicit CheckpointDirLease(std::string directory);
  ~CheckpointDirLease();

  CheckpointDirLease(const CheckpointDirLease&) = delete;
  CheckpointDirLease& operator=(const CheckpointDirLease&) = delete;

  const std::string& directory() const noexcept { return directory_; }

 private:
  std::string directory_;
  int lock_fd_ = -1;  ///< flock'd lease-file fd; -1 when flock unavailable.
};

/// True when some live lease (any process) holds `directory`'s OS-level
/// lock.  Probes with a fresh open + flock(LOCK_NB) and releases
/// immediately; never blocks.  The cross-process death test calls this from
/// a forked child to prove the lock is visible outside the owning process.
/// Always false on platforms without flock.
bool checkpoint_dir_locked(const std::string& directory);

/// Where (and whether) to persist per-batch checkpoints.
struct CheckpointOptions {
  /// Directory for batch-NNN.json files; empty disables checkpointing.
  /// Created if missing.  Every file is written atomically
  /// (write-temp-then-rename), so a crash never leaves a torn checkpoint.
  std::string directory;
  /// Reuse completed, matching checkpoints instead of re-collecting.
  /// Corrupt / truncated / mismatched files are treated as not-done.
  bool resume = false;
};

/// Everything a campaign needs beyond the machine + benchmark pair.
/// `pipeline.threads` sets the worker threads of collection and projection.
struct CampaignOptions {
  PipelineOptions pipeline;
  /// Fault injection; nullptr (or a disabled plan) runs clean.  Only the
  /// counting mode supports fault injection: the sampling collector reads
  /// running counters on a timer and has no per-kernel retry point.
  const faults::FaultPlan* fault_plan = nullptr;
  /// Retry tuning and the one pacing clock (backoff sleeps, and one sleep
  /// per kernel span in the sampled modes).
  vpapi::ResilienceOptions resilience;
  /// Checkpointing is counting-only for now: a sampling batch's trace does
  /// not fit the catalyst-checkpoint-v1 row format, and silently dropping
  /// it on resume would desynchronize the archive from the measurements.
  /// validate() refuses a non-counting mode with a checkpoint directory (or
  /// an enabled fault plan).
  CheckpointOptions checkpoint;
  /// How the collection stage reads the counters (vpapi/sampling.hpp).
  vpapi::CollectionMode collection_mode = vpapi::CollectionMode::counting;
  /// Virtual-time schedule for the sampling/strobed modes (ignored when
  /// counting).
  vpapi::SampleSchedule sample_schedule;
};

struct CampaignResult {
  /// Full analysis over the surviving (non-quarantined) events.  Its
  /// `collection` report (and `quarantined_events`) is attached when a
  /// fault plan, a checkpoint directory or a non-counting mode was given;
  /// sampled campaigns also carry `collection_mode` and `sample_trace`.
  /// make_archive() turns it into the archive to save.
  PipelineResult result;
  std::size_t batches_total = 0;
  std::size_t batches_resumed = 0;  ///< Batches satisfied from checkpoints.
};

/// The one owner of the rules on how campaign options combine: at least 2
/// repetitions (the RNMSE filter needs them), and in a sampled mode a valid
/// sample schedule, no armed fault plan and no checkpoint directory.
/// Throws std::invalid_argument under every contract policy, so a front end
/// can refuse the combination before it runs anything.
void validate(const CampaignOptions& options);

/// The checkpoint format marker ("catalyst-checkpoint-v1").
extern const char* const kCheckpointFormat;

/// Identity of a campaign's configuration; resume refuses checkpoints whose
/// stored key differs (different machine, benchmark, repetition count,
/// fault plan, ... would make the cached batch silently wrong).
std::string campaign_config_key(const pmu::Machine& machine,
                                const cat::Benchmark& benchmark,
                                const CampaignOptions& options);

/// Thrown by run_campaign when every event was quarantined, so nothing is
/// left to analyze; the message gives the count and the report summary.
class AllEventsQuarantined : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs the collection in per-repetition batches (checkpointing + resuming
/// per CampaignOptions::checkpoint), merges them, and runs the analysis
/// stages on the surviving events.  Throws std::invalid_argument on option
/// combinations it cannot honour (validate() first) and
/// AllEventsQuarantined if every event ends up quarantined.
CampaignResult run_campaign(const pmu::Machine& machine,
                            const cat::Benchmark& benchmark,
                            const std::vector<MetricSignature>& signatures,
                            const CampaignOptions& options = {});

}  // namespace catalyst::core
