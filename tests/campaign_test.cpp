// Checkpoint/resume campaigns: bit-identity of resumed vs uninterrupted
// runs, tolerance of corrupt/mismatched checkpoints, and graceful
// degradation when events are quarantined.
#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "cat/cat.hpp"
#include "core/contract.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

namespace fs = std::filesystem;

struct Rig {
  pmu::Machine machine = pmu::saphira_cpu();
  cat::Benchmark bench = cat::branch_benchmark();
  std::vector<MetricSignature> signatures = branch_signatures();

  /// The archive bytes `catalyst collect` would save for this campaign.
  std::string archive(const CampaignResult& out) const {
    return save_archive(make_archive(machine, bench, out.result));
  }
};

/// A campaign with `plan` armed and `max_retries` per reading.
CampaignOptions faulty(const faults::FaultPlan& plan,
                       std::size_t max_retries = 8) {
  CampaignOptions options;
  options.fault_plan = &plan;
  options.resilience.max_retries = max_retries;
  return options;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

void truncate_file(const std::string& path) {
  const std::string text = read_text_file(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text.substr(0, text.size() / 2);
}

TEST(ResilientPipeline, CleanRunMatchesRunPipeline) {
  const Rig s;
  const auto plain = run_pipeline(s.machine, s.bench, s.signatures);
  const auto resilient =
      run_campaign(s.machine, s.bench, s.signatures).result;
  EXPECT_EQ(plain.all_event_names, resilient.all_event_names);
  EXPECT_EQ(plain.measurements, resilient.measurements);
  EXPECT_EQ(plain.xhat_events, resilient.xhat_events);
  EXPECT_TRUE(resilient.quarantined_events.empty());
  // No fault plan, checkpoint or sampling: nothing to report.
  EXPECT_FALSE(resilient.collection.has_value());
}

TEST(ResilientPipeline, MidRateFaultsReproduceTheCleanPipeline) {
  const Rig s;
  const auto plan = faults::FaultPlan::mid_rate();
  const auto plain = run_pipeline(s.machine, s.bench, s.signatures);
  const auto resilient =
      run_campaign(s.machine, s.bench, s.signatures, faulty(plan)).result;
  ASSERT_TRUE(resilient.quarantined_events.empty());
  EXPECT_EQ(plain.measurements, resilient.measurements);
  EXPECT_EQ(plain.xhat_events, resilient.xhat_events);
  ASSERT_TRUE(resilient.collection.has_value());
  EXPECT_GT(resilient.collection->total_retries, 0u);
}

TEST(ResilientPipeline, WorkerThreadsWriteTheSameTensor) {
  // Collection units write disjoint rows of one campaign tensor in place;
  // four workers (the TSan build runs this) must give the serial bytes.
  const Rig s;
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions one = faulty(plan);
  one.pipeline.threads = 1;
  CampaignOptions threaded = faulty(plan);
  threaded.pipeline.threads = 4;
  const auto serial = run_campaign(s.machine, s.bench, s.signatures, one);
  const auto parallel =
      run_campaign(s.machine, s.bench, s.signatures, threaded);
  EXPECT_EQ(serial.result.measurements, parallel.result.measurements);
  EXPECT_EQ(s.archive(serial), s.archive(parallel));
}

TEST(Campaign, CheckpointDirLeaseExcludesConcurrentUse) {
  const std::string dir = fresh_dir("lease_dir");
  {
    const CheckpointDirLease lease(dir);
    EXPECT_EQ(lease.directory(), dir);
    // A second campaign in the same process must be refused: interleaved
    // batch-NNN.json writers would corrupt each other's checkpoints.
    EXPECT_THROW(CheckpointDirLease{dir}, std::runtime_error);
    // Distinct directories do not contend.
    const CheckpointDirLease other(fresh_dir("lease_dir_other"));
  }
  // The destructor released the lease: the directory is usable again.
  const CheckpointDirLease reacquired(dir);
}

#if defined(__unix__) || defined(__APPLE__)
TEST(Campaign, CheckpointDirLeaseExcludesOtherProcesses) {
  const std::string dir = fresh_dir("lease_dir_xproc");
  const CheckpointDirLease lease(dir);
  // The probe opens a FRESH file description, so it observes the flock
  // rather than the in-process registry.
  EXPECT_TRUE(checkpoint_dir_locked(dir));
  // EXPECT_EXIT forks: the probe below runs in a genuinely different
  // process.  (A forked child inherits the in-process registry by memory
  // copy, so constructing a lease there would test the wrong layer; the
  // flock probe is the honest cross-process question.)
  EXPECT_EXIT(std::_Exit(checkpoint_dir_locked(dir) ? 42 : 1),
              ::testing::ExitedWithCode(42), "");
}

TEST(Campaign, CheckpointDirLockProbeSeesRelease) {
  const std::string dir = fresh_dir("lease_dir_probe");
  {
    const CheckpointDirLease lease(dir);
    EXPECT_TRUE(checkpoint_dir_locked(dir));
  }
  // Destroying the lease closed the lock fd, dropping the OS-level lock.
  EXPECT_FALSE(checkpoint_dir_locked(dir));
}
#endif

TEST(Campaign, ResumeReusesEveryBatchAndYieldsIdenticalArchive) {
  const Rig s;
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions options;
  options.fault_plan = &plan;
  options.checkpoint.directory = fresh_dir("campaign_full");

  const auto first = run_campaign(s.machine, s.bench, s.signatures, options);
  EXPECT_EQ(first.batches_resumed, 0u);
  EXPECT_EQ(first.batches_total, options.pipeline.repetitions);
  for (std::size_t r = 0; r < first.batches_total; ++r) {
    EXPECT_TRUE(fs::exists(fs::path(options.checkpoint.directory) /
                           ("batch-" + std::to_string(r) + ".json")));
  }

  options.checkpoint.resume = true;
  const auto second = run_campaign(s.machine, s.bench, s.signatures, options);
  EXPECT_EQ(second.batches_resumed, second.batches_total);
  EXPECT_EQ(s.archive(first), s.archive(second));
  EXPECT_EQ(first.result.xhat_events, second.result.xhat_events);
}

TEST(Campaign, InterruptedCampaignResumesWithoutReexecutingDoneBatches) {
  const Rig s;
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions options;
  options.fault_plan = &plan;
  options.checkpoint.directory = fresh_dir("campaign_interrupted");

  // The "uninterrupted" reference run, which also populates checkpoints.
  const auto reference =
      run_campaign(s.machine, s.bench, s.signatures, options);

  // Simulate a kill after batch 1: the last batch's checkpoint never
  // happened.
  const std::size_t last = options.pipeline.repetitions - 1;
  fs::remove(fs::path(options.checkpoint.directory) /
             ("batch-" + std::to_string(last) + ".json"));

  options.checkpoint.resume = true;
  const auto resumed = run_campaign(s.machine, s.bench, s.signatures, options);
  EXPECT_EQ(resumed.batches_resumed, resumed.batches_total - 1);
  EXPECT_EQ(s.archive(reference), s.archive(resumed));
}

TEST(Campaign, CorruptCheckpointIsTreatedAsNotDone) {
  const Rig s;
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions options;
  options.fault_plan = &plan;
  options.checkpoint.directory = fresh_dir("campaign_corrupt");

  const auto reference =
      run_campaign(s.machine, s.bench, s.signatures, options);
  truncate_file((fs::path(options.checkpoint.directory) / "batch-0.json")
                    .string());

  options.checkpoint.resume = true;
  const auto resumed = run_campaign(s.machine, s.bench, s.signatures, options);
  EXPECT_EQ(resumed.batches_resumed, resumed.batches_total - 1);
  EXPECT_EQ(s.archive(reference), s.archive(resumed));
}

TEST(Campaign, ConfigMismatchInvalidatesCheckpoints) {
  const Rig s;
  CampaignOptions clean;
  clean.checkpoint.directory = fresh_dir("campaign_mismatch");
  run_campaign(s.machine, s.bench, s.signatures, clean);

  // Same directory, different fault plan: the stored batches describe a
  // DIFFERENT campaign and must not be reused.
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions faulty = clean;
  faulty.fault_plan = &plan;
  faulty.checkpoint.resume = true;
  const auto result = run_campaign(s.machine, s.bench, s.signatures, faulty);
  EXPECT_EQ(result.batches_resumed, 0u);
}

TEST(Campaign, ArchiveCarriesTheRobustnessPayload) {
  const Rig s;
  const auto plan = faults::FaultPlan::mid_rate();
  CampaignOptions options;
  options.fault_plan = &plan;
  const auto out = run_campaign(s.machine, s.bench, s.signatures, options);
  const auto archive = make_archive(s.machine, s.bench, out.result);
  ASSERT_TRUE(archive.collection_report.has_value());
  // Round trip: save -> load preserves the v2 payload.
  const auto loaded = load_archive(save_archive(archive));
  EXPECT_EQ(loaded.format_version, "catalyst-measurements-v2");
  ASSERT_TRUE(loaded.collection_report.has_value());
  EXPECT_EQ(loaded.collection_report->total_retries,
            archive.collection_report->total_retries);
  EXPECT_EQ(loaded.quarantined, archive.quarantined);
}

TEST(SampledCampaign, CountingModeIsBitIdenticalToPlainCampaign) {
  // An explicit counting mode (with a schedule, which it ignores) is the
  // plain campaign exactly -- same measurements, same v1 archive bytes, no
  // trace.
  const Rig s;
  const auto plain = run_campaign(s.machine, s.bench, s.signatures);
  CampaignOptions counting;
  counting.collection_mode = vpapi::CollectionMode::counting;
  counting.sample_schedule.period_ns = 7;
  const auto sampled =
      run_campaign(s.machine, s.bench, s.signatures, counting);
  EXPECT_EQ(sampled.result.measurements, plain.result.measurements);
  EXPECT_EQ(sampled.result.xhat_events, plain.result.xhat_events);
  const auto archive = make_archive(s.machine, s.bench, sampled.result);
  EXPECT_EQ(archive.collection_mode, vpapi::CollectionMode::counting);
  EXPECT_FALSE(archive.sample_trace.has_value());
  EXPECT_EQ(archive.format_version, "catalyst-measurements-v1");
  EXPECT_EQ(save_archive(archive), s.archive(plain));
}

TEST(SampledCampaign, ArchiveCarriesTheTraceAndRoundTripsByteStably) {
  const Rig s;
  CampaignOptions options;
  options.collection_mode = vpapi::CollectionMode::strobed;
  const auto out = run_campaign(s.machine, s.bench, s.signatures, options);
  const auto archive = make_archive(s.machine, s.bench, out.result);
  EXPECT_EQ(archive.collection_mode, vpapi::CollectionMode::strobed);
  ASSERT_TRUE(archive.sample_trace.has_value());
  EXPECT_EQ(archive.sample_trace->mode, vpapi::CollectionMode::strobed);
  EXPECT_FALSE(archive.sample_trace->runs.empty());
  EXPECT_EQ(archive.sample_trace->kernels, s.bench.slots.size());
  const auto text = save_archive(archive);
  EXPECT_NE(text.find("catalyst-measurements-v2"), std::string::npos);
  const auto loaded = load_archive(text);
  EXPECT_EQ(loaded.collection_mode, vpapi::CollectionMode::strobed);
  ASSERT_TRUE(loaded.sample_trace.has_value());
  EXPECT_EQ(loaded.sample_trace->runs.size(),
            archive.sample_trace->runs.size());
  EXPECT_EQ(save_archive(loaded), text);
}

TEST(SampledCampaign, RefusesCountingOnlyFeatures) {
  const Rig s;
  CampaignOptions options;
  options.collection_mode = vpapi::CollectionMode::sampling;
  options.checkpoint.directory = fresh_dir("sampled_ckpt");
  EXPECT_THROW(run_campaign(s.machine, s.bench, s.signatures, options),
               std::invalid_argument);
  options.checkpoint.directory.clear();
  const auto plan = faults::FaultPlan::mid_rate();
  options.fault_plan = &plan;
  EXPECT_THROW(run_campaign(s.machine, s.bench, s.signatures, options),
               std::invalid_argument);
  // A present-but-disabled plan is fine: nothing to inject.
  const faults::FaultPlan idle;
  options.fault_plan = &idle;
  EXPECT_NO_THROW(run_campaign(s.machine, s.bench, s.signatures, options));
  // An invalid schedule is refused up front, not deep in a worker.
  options.fault_plan = nullptr;
  options.sample_schedule.period_ns = 0;
  EXPECT_THROW(run_campaign(s.machine, s.bench, s.signatures, options),
               std::invalid_argument);
}

// validate() is the boundary check front ends call before they run
// anything, so it refuses with std::invalid_argument whatever the contract
// policy -- never an abort, never a logged-and-ignored violation.
TEST(CampaignValidate, RefusesUnderEveryContractPolicy) {
  const faults::FaultPlan plan = faults::FaultPlan::mid_rate();
  for (const auto policy : {contract::ViolationPolicy::throw_exception,
                            contract::ViolationPolicy::abort_with_trace,
                            contract::ViolationPolicy::log_and_continue}) {
    const contract::PolicyGuard guard(policy);
    CampaignOptions options;
    EXPECT_NO_THROW(validate(options));
    options.pipeline.repetitions = 1;
    EXPECT_THROW(validate(options), std::invalid_argument);
    options.pipeline.repetitions = 2;
    // Counting mode ignores the schedule and owns faults and checkpoints.
    options.sample_schedule.period_ns = 0;
    options.fault_plan = &plan;
    options.checkpoint.directory = "ckpt";
    EXPECT_NO_THROW(validate(options));
    options.collection_mode = vpapi::CollectionMode::strobed;
    EXPECT_THROW(validate(options), std::invalid_argument);
    options.sample_schedule = vpapi::SampleSchedule{};
    EXPECT_THROW(validate(options), std::invalid_argument);
    options.fault_plan = nullptr;
    EXPECT_THROW(validate(options), std::invalid_argument);
    options.checkpoint.directory.clear();
    EXPECT_NO_THROW(validate(options));
  }
}

TEST(SampledCampaign, ConfigKeyGrowsModeKnobsOnlyWhenSampled) {
  // Counting campaigns must keep their pre-sampling config keys (resume
  // compatibility with existing checkpoint directories); sampled campaigns
  // must be distinguishable per mode and schedule.
  const Rig s;
  CampaignOptions counting;
  const auto counting_key =
      campaign_config_key(s.machine, s.bench, counting);
  EXPECT_EQ(counting_key.find("mode="), std::string::npos);

  CampaignOptions sampled;
  sampled.collection_mode = vpapi::CollectionMode::sampling;
  const auto sampled_key = campaign_config_key(s.machine, s.bench, sampled);
  EXPECT_NE(sampled_key.find("mode=sampling"), std::string::npos);
  EXPECT_NE(sampled_key, counting_key);

  CampaignOptions strobed = sampled;
  strobed.collection_mode = vpapi::CollectionMode::strobed;
  EXPECT_NE(campaign_config_key(s.machine, s.bench, strobed), sampled_key);
  CampaignOptions other_period = sampled;
  other_period.sample_schedule.period_ns *= 2;
  EXPECT_NE(campaign_config_key(s.machine, s.bench, other_period),
            sampled_key);
}

TEST(ResilientPipeline, QuarantinedBasisEventDegradesGracefully) {
  // Make one of the events Table VII actually selects unrecoverable: the
  // pipeline must complete on the remaining events, not abort.
  const Rig s;
  const auto clean = run_pipeline(s.machine, s.bench, s.signatures);
  ASSERT_FALSE(clean.xhat_events.empty());
  const std::string victim = clean.xhat_events.front();

  faults::FaultPlan plan;
  plan.seed = 11;
  faults::FaultRates cursed;
  cursed.dropped_reading = 1.0;
  plan.per_event[victim] = cursed;

  const auto degraded =
      run_campaign(s.machine, s.bench, s.signatures, faulty(plan, 2)).result;
  ASSERT_EQ(degraded.quarantined_events,
            std::vector<std::string>({victim}));
  for (const auto& name : degraded.all_event_names) {
    EXPECT_NE(name, victim);
  }
  for (const auto& name : degraded.xhat_events) {
    EXPECT_NE(name, victim);
  }
  EXPECT_FALSE(degraded.xhat_events.empty());
}

TEST(ResilientPipeline, AllEventsQuarantinedAbortsWithTypedError) {
  const Rig s;
  faults::FaultPlan plan;
  plan.seed = 13;
  plan.rates.dropped_reading = 1.0;  // nothing is ever readable
  try {
    run_campaign(s.machine, s.bench, s.signatures, faulty(plan, 0));
    FAIL() << "a campaign with every event quarantined must not analyze";
  } catch (const AllEventsQuarantined& e) {
    const std::string what = e.what();
    const std::string n = std::to_string(s.machine.events().size());
    EXPECT_NE(what.find("all " + n + " events were quarantined"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(n + " events: 0 clean, 0 recovered, " + n +
                        " quarantined"),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace catalyst::core
