// catalyst -- command-line front end for the analysis library.
//
//   catalyst list-machines
//   catalyst list-events <machine> [--filter SUBSTR]
//   catalyst signatures <category>
//   catalyst analyze <category> [--machine M] [--tau X] [--alpha Y]
//                    [--rounded] [--presets] [--json] [collection flags]
//   catalyst analyze --from FILE <category> [...]   (offline, from archive)
//   catalyst collect <category> [--machine M] --out FILE [collection flags]
//   catalyst validate <category> [--machine M] [--workloads N]
//
// Categories: cpu_flops | gpu_flops | branch | dcache | icache.
// Machines:   saphira | tempest | vesuvio (default depends on category).
//
// The collect/analyze split mirrors real CAT usage: `collect` runs the
// benchmarks and saves a measurement archive (JSON); `analyze --from`
// re-runs only the mathematical stages on the archived data.  Both build
// their campaign from the same collection flags (campaign_from_args):
// --reps, --faults, --checkpoint-dir/--resume, --mode and the sample
// schedule.
//
// kFlags is the one table of what each subcommand reads: flags::parse
// checks the whole command line against it before any command runs, and
// usage() prints its flag lines from it.  An unknown flag, a missing value,
// a malformed or out-of-range number, and a combination core::validate
// refuses all exit 2 naming the flag; the commands read typed values that
// can no longer fail.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "flags.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmu/pmu.hpp"
#include "service/catalog.hpp"

namespace {

using namespace catalyst;
using flags::Kind;

constexpr std::string_view kCommands =
    "list-machines list-events signatures analyze collect full-report "
    "validate";

constexpr std::uint64_t kMaxCount = INT32_MAX;

constexpr flags::Flag kFlags[] = {
    {"filter", Kind::text, "SUBSTR", "list-events"},
    {"machine", Kind::text, "M", "analyze collect full-report validate"},
    {"tau", Kind::positive, "X", "analyze"},
    {"alpha", Kind::positive, "Y", "analyze"},
    {"rounded", Kind::toggle, "", "analyze"},
    {"presets", Kind::toggle, "", "analyze"},
    {"presets", Kind::text, "FILE", "full-report"},
    {"json", Kind::toggle, "", "analyze"},
    {"markdown", Kind::toggle, "", "analyze"},
    {"from", Kind::text, "ARCHIVE", "analyze"},
    {"detrend", Kind::toggle, "", "analyze"},
    {"out", Kind::text, "FILE", "collect full-report"},
    {"workloads", Kind::integer, "N", "validate", 1, kMaxCount},
    {"reps", Kind::integer, "N", "analyze collect", 2, kMaxCount},
    {"faults", Kind::optional, "SPEC", "analyze collect"},
    {"checkpoint-dir", Kind::text, "DIR", "analyze collect"},
    {"resume", Kind::toggle, "", "analyze collect"},
    {"mode", Kind::text, "MODE", "analyze collect"},
    {"kernel-span-us", Kind::positive, "N", "analyze collect"},
    {"sample-period-us", Kind::positive, "N", "analyze collect"},
    {"strobe-short-us", Kind::positive, "N", "analyze collect"},
    {"no-dither", Kind::toggle, "", "analyze collect"},
    {"trace-out", Kind::text, "FILE", "analyze collect"},
    {"manifest-out", Kind::text, "FILE", "analyze collect"},
    {"stats", Kind::toggle, "", "analyze collect"},
};

/// The flags campaign_from_args reads: `analyze --from` refuses them.
constexpr const char* kCollectionFlags[] = {
    "reps", "faults", "checkpoint-dir", "resume", "mode", "kernel-span-us",
    "sample-period-us", "strobe-short-us", "no-dither"};

/// The sample-schedule flags: counting mode takes no samples, so without a
/// sampled --mode they are refused.
constexpr const char* kScheduleFlags[] = {
    "kernel-span-us", "sample-period-us", "strobe-short-us", "no-dither"};

/// Stamped first thing in main(): --stats books the wall time up to its
/// print that no listed row covers as `untraced`.
std::chrono::nanoseconds main_start{0};

/// --faults [SPEC]: "" / flag alone means the canonical mid-rate plan;
/// otherwise the spec grammar of faults::parse_fault_plan ("off", "mid",
/// "seed=...,drop=...,...").  Returns nullopt when the flag is absent or
/// the plan parses to disabled; throws flags::Error on a bad spec.
std::optional<faults::FaultPlan> fault_plan_from_args(const flags::Args& args) {
  if (!args.has("faults")) return std::nullopt;
  const std::string spec = args.text("faults", "");
  faults::FaultPlan plan = faults::FaultPlan::mid_rate();
  try {
    if (!spec.empty()) plan = faults::parse_fault_plan(spec);
  } catch (const std::invalid_argument& e) {
    throw flags::Error(std::string("--faults: ") + e.what());
  }
  if (!plan.enabled()) return std::nullopt;
  return plan;
}

/// The campaign `analyze` and `collect` run, built from their shared flags
/// by campaign_from_args.  It owns the fault plan and pacing clock the
/// options point at, so it is built in place and never copied.
struct Campaign {
  core::CampaignOptions options;
  std::optional<faults::FaultPlan> plan;
  faults::RealClock clock;

  Campaign() = default;
  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;
};

/// --reps, --faults, --checkpoint-dir/--resume, --mode and the sample
/// schedule flags on top of the category defaults.  `out` is the archive
/// path (empty for analyze), whose OUT.ckpt is --resume's default
/// checkpoint directory.  Throws flags::Error on combinations that cannot
/// run.
void campaign_from_args(const flags::Args& args,
                        const core::PipelineOptions& base,
                        const std::string& out, Campaign& campaign) {
  core::CampaignOptions& options = campaign.options;
  options.pipeline = base;
  options.pipeline.repetitions = args.integer("reps", base.repetitions);
  campaign.plan = fault_plan_from_args(args);
  if (campaign.plan.has_value()) {
    options.fault_plan = &*campaign.plan;
    options.resilience.clock = &campaign.clock;  // real backoff pacing
  }
  options.checkpoint.directory = args.text("checkpoint-dir", "");
  options.checkpoint.resume = args.has("resume");
  if (options.checkpoint.resume && options.checkpoint.directory.empty()) {
    if (out.empty()) {
      throw flags::Error("--resume needs --checkpoint-dir DIR");
    }
    options.checkpoint.directory = out + ".ckpt";
  }

  try {
    options.collection_mode =
        vpapi::collection_mode_from_string(args.text("mode", "counting"));
  } catch (const std::invalid_argument& e) {
    throw flags::Error(std::string("--mode: ") + e.what());
  }
  if (options.collection_mode == vpapi::CollectionMode::counting) {
    for (const char* flag : kScheduleFlags) {
      if (args.has(flag)) {
        throw flags::Error(std::string("--") + flag +
                           ": sets the sample schedule, which needs "
                           "--mode sampling or --mode strobed");
      }
    }
  } else {
    vpapi::SampleSchedule& schedule = options.sample_schedule;
    // Microseconds in, whole nanoseconds out: a value below 1 ns or at
    // 2^64 ns and above has no uint64_t nanosecond count.
    const auto nanoseconds = [&args](const char* flag, std::uint64_t ns) {
      const double value = args.real(flag, double(ns) / 1000.0) * 1000.0;
      if (!(value >= 1.0 && value < 18446744073709551616.0)) {
        throw flags::Error(std::string("--") + flag +
                           ": must be between 1 ns (0.001) and 2^64 ns, "
                           "got '" + args.text(flag, "") + "'");
      }
      return static_cast<std::uint64_t>(value);
    };
    schedule.kernel_span_ns =
        nanoseconds("kernel-span-us", schedule.kernel_span_ns);
    schedule.period_ns = nanoseconds("sample-period-us", schedule.period_ns);
    // The short period only matters for strobed runs; cap the default at
    // the long period so a fine --sample-period-us alone stays valid.
    schedule.short_period_ns = nanoseconds(
        "strobe-short-us",
        std::min(schedule.short_period_ns, schedule.period_ns));
    schedule.dither = !args.has("no-dither");
  }
  try {
    core::validate(options);
  } catch (const std::invalid_argument& e) {
    throw flags::Error(e.what());
  }
}

/// Observability flags shared by analyze/collect: --trace-out FILE,
/// --manifest-out FILE, --stats.  Any of them turns the tracer on for the
/// whole run (the library also honors CATALYST_TRACE=1 without flags).
struct TraceArgs {
  std::string trace_out;
  std::string manifest_out;
  bool stats = false;
  bool any() const {
    return stats || !trace_out.empty() || !manifest_out.empty();
  }
};

TraceArgs trace_args_from(const flags::Args& args) {
  TraceArgs t;
  t.trace_out = args.text("trace-out", "");
  t.manifest_out = args.text("manifest-out", "");
  t.stats = args.has("stats");
  if (t.any()) obs::Tracer::instance().enable();
  return t;
}

/// Runs `build` and appends its wall time to `rows` as row `name`.  The
/// CLI times the two builds that run before any pipeline stage this way:
/// the category's ground-truth benchmark (benchmark_build) and the machine
/// with its interned signal ids (machine_build).
template <class Build>
auto timed(std::vector<obs::StageTiming>& rows, const char* name,
           Build&& build) {
  faults::RealClock clock;
  const auto start = clock.now();
  auto built = build();
  rows.push_back({name, (clock.now() - start).count()});
  return built;
}

/// Writes the requested trace/manifest/stats artifacts after a run.  The
/// manifest's git_sha comes from CATALYST_GIT_SHA (scripts/run_bench.sh and
/// scripts/check.sh export it) so the binary never shells out to git.
/// --stats lists `setup_rows` (the timed() builds) ahead of the pipeline
/// stages and closes with `untraced`, the wall time since main() that no
/// row covers; the manifest's stages are the pipeline's alone.
void write_trace_artifacts(const TraceArgs& t, const std::string& tool,
                           const std::string& category,
                           const std::string& machine_name,
                           const core::PipelineOptions& options,
                           const core::PipelineResult& result,
                           std::vector<obs::StageTiming> setup_rows) {
  if (!t.any()) return;
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::vector<obs::SpanRecord> spans = tracer.buffer().snapshot();
  const obs::MetricsSnapshot metrics = obs::Metrics::instance().snapshot();
  if (!t.trace_out.empty()) {
    core::write_text_file(t.trace_out, obs::to_chrome_trace(spans, metrics));
    std::cout << "wrote trace (" << spans.size() << " spans) to "
              << t.trace_out << "\n";
  }
  if (!t.manifest_out.empty()) {
    obs::RunManifest m;
    m.tool = tool;
    m.category = category;
    m.machine = machine_name;
    const char* sha = std::getenv("CATALYST_GIT_SHA");
    m.git_sha = (sha != nullptr && sha[0] != '\0') ? sha : "unknown";
    std::ostringstream cfg;
    cfg << category << "|machine=" << machine_name << "|tau=" << options.tau
        << "|alpha=" << options.alpha << "|reps=" << options.repetitions
        << "|detrend=" << (options.detrend_drifting ? 1 : 0);
    m.config = cfg.str();
    m.config_hash = obs::config_hash(m.config);
    m.tau = options.tau;
    m.alpha = options.alpha;
    m.repetitions = options.repetitions;
    m.stages = result.stage_timings;
    m.funnel = {
        {"measured", result.all_event_names.size()},
        {"noise_kept", result.noise.kept.size()},
        {"projected", result.projection.representable.size()},
        {"selected", result.xhat_events.size()},
        {"metrics", result.metrics.size()},
        {"quarantined", result.quarantined_events.size()},
    };
    m.metrics = metrics;
    m.spans_published = tracer.buffer().published();
    m.spans_dropped = tracer.buffer().dropped();
    core::write_text_file(t.manifest_out, obs::to_run_manifest(m));
    std::cout << "wrote run manifest to " << t.manifest_out << "\n";
  }
  if (t.stats) {
    std::vector<obs::StageTiming> rows = std::move(setup_rows);
    rows.insert(rows.end(), result.stage_timings.begin(),
                result.stage_timings.end());
    std::int64_t listed_ns = 0;
    for (const obs::StageTiming& row : rows) listed_ns += row.wall_ns;
    const std::int64_t wall_ns =
        (faults::RealClock().now() - main_start).count();
    rows.push_back(
        {"untraced", std::max<std::int64_t>(wall_ns - listed_ns, 0)});
    std::cout << obs::format_stats(metrics, rows,
                                   tracer.buffer().published(),
                                   tracer.buffer().dropped());
  }
}

// Machine and category resolution comes from the service catalog -- the
// single source of truth both front ends (this CLI and catalystd) share,
// which is what makes service-path and CLI-path reports byte-identical.
using service::category_setup;
using service::machine_by_name;

int usage() {
  std::cerr << "usage:\n"
               "  catalyst list-machines\n"
               "  catalyst list-events <machine> [flags]\n"
               "  catalyst signatures <category>\n"
               "  catalyst analyze <category> [flags]\n"
               "  catalyst collect <category> --out FILE [flags]\n"
               "  catalyst full-report [flags]\n"
               "  catalyst validate <category> [flags]\n"
               "flags, and the commands that read them:\n";
  flags::print_flags(std::cerr, kFlags);
  std::cerr << "--from analyzes an archive, so it takes no collection flag\n"
               "(--reps through --no-dither); collect's --resume defaults\n"
               "the checkpoint dir to OUT.ckpt; SPEC: \"mid\" or\n"
               "\"drop=0.01,...\"; MODE: counting|sampling|strobed, and the\n"
               "sampling modes exclude --faults/--checkpoint-dir; the\n"
               "schedule flags (--kernel-span-us through --no-dither) need\n"
               "a sampling mode.\n"
               "categories: cpu_flops | gpu_flops | branch | dcache |\n"
               "            icache | gpu_dcache\n"
               "machines:   saphira | tempest | vesuvio\n";
  return 2;
}

int cmd_list_machines() {
  for (const auto& name : service::machine_names()) {
    const auto m = machine_by_name(name);
    std::cout << name << ": " << m->name() << ", " << m->num_events()
              << " events, " << m->physical_counters()
              << " physical counters\n";
  }
  return 0;
}

int cmd_list_events(const flags::Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto machine = machine_by_name(args.positional[1]);
  if (!machine) {
    std::cerr << "unknown machine " << args.positional[1] << "\n";
    return 2;
  }
  const std::string filter = args.text("filter", "");
  std::size_t shown = 0;
  for (const auto& e : machine->events()) {
    if (!filter.empty() && e.name.find(filter) == std::string::npos) continue;
    std::cout << e.name << "  --  " << e.description << "\n";
    ++shown;
  }
  std::cout << "(" << shown << " events)\n";
  return 0;
}

int cmd_signatures(const flags::Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto setup = category_setup(args.positional[1]);
  if (!setup) {
    std::cerr << "unknown category " << args.positional[1] << "\n";
    return 2;
  }
  std::cout << core::format_signature_table("signatures: " + args.positional[1],
                                            setup->benchmark.basis.labels,
                                            setup->signatures);
  return 0;
}

int cmd_analyze(const flags::Args& args) {
  if (args.positional.size() < 2) return usage();
  const std::string& category = args.positional[1];
  // An archive brings its own readings and basis, so `--from` reads only
  // the category's catalog info: it builds neither the ground-truth
  // benchmark nor the machine, whose name it still checks.
  const bool from_archive = args.has("from");
  std::vector<obs::StageTiming> setup_rows;
  std::optional<service::CategorySetup> setup;
  std::optional<service::CategoryInfo> archive_info;
  if (from_archive) {
    archive_info = service::category_info(category);
  } else {
    setup = timed(setup_rows, "benchmark_build",
                  [&] { return category_setup(category); });
  }
  if (!setup && !archive_info) {
    std::cerr << "unknown category " << category << "\n";
    return 2;
  }
  service::CategoryInfo& info = setup ? *setup : *archive_info;
  const std::string machine_name = args.text("machine", info.default_machine);
  if (!service::is_machine_name(machine_name)) {
    std::cerr << "unknown machine " << machine_name << "\n";
    return 2;
  }
  std::optional<pmu::Machine> machine;
  if (!from_archive) {
    machine = timed(setup_rows, "machine_build",
                    [&] { return machine_by_name(machine_name); });
  }
  info.options.tau = args.real("tau", info.options.tau);
  info.options.alpha = args.real("alpha", info.options.alpha);
  if (args.has("detrend")) info.options.detrend_drifting = true;
  for (const char* flag : kCollectionFlags) {
    if (from_archive && args.has(flag)) {
      throw flags::Error(std::string("--") + flag +
                       " is a collection flag; --from analyzes an archive "
                       "that was already collected");
    }
  }
  Campaign campaign;
  campaign_from_args(args, info.options, "", campaign);
  const core::PipelineOptions& options = campaign.options.pipeline;
  const TraceArgs trace = trace_args_from(args);

  core::PipelineResult result;
  std::string source;
  if (from_archive) {
    auto archive =
        core::load_archive(core::read_text_file(args.text("from", "")));
    source = "archive " + args.text("from", "") + " (" +
             archive.machine_name + ")";
    std::vector<std::string> quarantined = std::move(archive.quarantined);
    std::optional<vpapi::CollectionReport> report =
        std::move(archive.collection_report);
    result = core::analyze_archive(std::move(archive), info.signatures,
                                   options);
    result.quarantined_events = std::move(quarantined);
    result.collection = std::move(report);
  } else {
    result = core::run_campaign(*machine, setup->benchmark, info.signatures,
                                campaign.options)
                 .result;
    source = "machine " + machine->name();
    if (campaign.plan.has_value()) source += " (faulty)";
    if (result.collection_mode != vpapi::CollectionMode::counting) {
      source += std::string(" (") + vpapi::to_string(result.collection_mode) +
                " mode)";
    }
  }
  if (args.has("markdown")) {
    std::cout << core::format_markdown_report(
        source + " / " + info.benchmark_name, result);
  } else {
    std::cout << source << ", benchmark " << info.benchmark_name << ": "
              << result.all_event_names.size() << " events -> "
              << result.noise.kept.size() << " after noise filter -> "
              << result.projection.representable.size()
              << " representable -> " << result.xhat_events.size()
              << " selected\n\n";
    if (result.collection.has_value()) {
      std::cout << core::format_collection_report(*result.collection) << "\n";
    }
    std::cout << core::format_selected_events(result) << "\n";
    std::cout << core::format_metric_table("metrics", result.metrics,
                                           args.has("rounded"));
  }
  if (args.has("presets")) {
    const auto presets = core::make_presets(result.metrics);
    std::cout << "\n"
              << (args.has("json") ? core::presets_to_json(presets)
                                   : core::presets_to_table(presets));
  }
  write_trace_artifacts(trace, "catalyst analyze", category,
                        machine_name, options, result, std::move(setup_rows));
  return 0;
}

int cmd_collect(const flags::Args& args) {
  if (args.positional.size() < 2 || !args.has("out")) return usage();
  std::vector<obs::StageTiming> setup_rows;
  auto setup = timed(setup_rows, "benchmark_build",
                     [&] { return category_setup(args.positional[1]); });
  if (!setup) {
    std::cerr << "unknown category " << args.positional[1] << "\n";
    return 2;
  }
  const std::string machine_name = args.text("machine", setup->default_machine);
  const auto machine = timed(setup_rows, "machine_build",
                             [&] { return machine_by_name(machine_name); });
  if (!machine) return usage();
  const std::string out_path = args.text("out", "");
  Campaign campaign;
  campaign_from_args(args, setup->options, out_path, campaign);
  const core::CampaignOptions& options = campaign.options;
  const TraceArgs trace = trace_args_from(args);

  const auto out = core::run_campaign(*machine, setup->benchmark,
                                      setup->signatures, options);
  const auto archive = core::make_archive(*machine, setup->benchmark,
                                          out.result);
  core::write_text_file(out_path, core::save_archive(archive));
  if (out.batches_resumed > 0) {
    std::cout << "resumed " << out.batches_resumed << "/" << out.batches_total
              << " batches from " << options.checkpoint.directory << "\n";
  }
  if (out.result.collection.has_value() && !archive.sample_trace) {
    std::cout << core::format_collection_report(*out.result.collection);
  }
  std::cout << "wrote " << archive.event_names.size() << " events x "
            << options.pipeline.repetitions << " repetitions x "
            << archive.slot_names.size() << " slots";
  if (archive.sample_trace.has_value()) {
    std::cout << " (" << vpapi::to_string(archive.collection_mode)
              << " mode, " << archive.sample_trace->runs.size()
              << " sample-trace runs)";
  }
  std::cout << " to " << out_path << "\n";
  write_trace_artifacts(trace, "catalyst collect", args.positional[1],
                        machine_name, options.pipeline, out.result,
                        std::move(setup_rows));
  return 0;
}

int cmd_full_report(const flags::Args& args) {
  const std::string machine_name = args.text("machine", "saphira");
  const auto machine = machine_by_name(machine_name);
  if (!machine) {
    std::cerr << "unknown machine " << machine_name << "\n";
    return 2;
  }
  // Run every category whose benchmarks this machine can host (the GPU
  // categories only make sense on the GPU model and vice versa).
  std::vector<std::string> categories;
  if (machine_name == "tempest") {
    categories = {"gpu_flops", "gpu_dcache"};
  } else {
    categories = {"cpu_flops", "branch", "dcache", "icache"};
  }

  std::ostringstream report;
  report << "# Event-to-metric report for " << machine->name() << "\n\n"
         << machine->num_events() << " raw events, "
         << machine->physical_counters() << " physical counters.\n\n";
  std::vector<core::PresetDefinition> all_presets;
  for (const auto& category : categories) {
    auto setup = category_setup(category);
    const auto result = core::run_pipeline(*machine, setup->benchmark,
                                           setup->signatures, setup->options);
    report << core::format_markdown_report(
                  "Category: " + category, result)
           << "\nBasis: "
           << core::basis_verdict(
                  core::diagnose_basis(setup->benchmark.basis))
           << "\n\n";
    auto presets = core::make_presets(result.metrics);
    all_presets.insert(all_presets.end(), presets.begin(), presets.end());
  }
  report << "# Combined preset table\n\n```\n"
         << core::presets_to_table(all_presets) << "```\n";

  if (args.has("out")) {
    core::write_text_file(args.text("out", ""), report.str());
    std::cout << "wrote report (" << all_presets.size() << " presets, "
              << categories.size() << " categories) to "
              << args.text("out", "") << "\n";
  } else {
    std::cout << report.str();
  }
  if (args.has("presets")) {
    core::write_text_file(args.text("presets", ""),
                          core::presets_to_json(all_presets));
    std::cout << "wrote " << all_presets.size() << " presets to "
              << args.text("presets", "") << "\n";
  }
  return 0;
}

int cmd_validate(const flags::Args& args) {
  if (args.positional.size() < 2) return usage();
  auto setup = category_setup(args.positional[1]);
  if (!setup) {
    std::cerr << "unknown category " << args.positional[1] << "\n";
    return 2;
  }
  const auto machine =
      machine_by_name(args.text("machine", setup->default_machine));
  if (!machine) return usage();
  const std::size_t workloads = args.integer("workloads", 10);

  const auto result = core::run_pipeline(*machine, setup->benchmark,
                                         setup->signatures, setup->options);
  const auto reports =
      core::validate_all(*machine, setup->benchmark, result.metrics,
                         setup->signatures, workloads, 0xC11);
  for (const auto& r : reports) {
    std::cout << r.metric_name << ": mean rel. error "
              << r.mean_relative_error << ", max " << r.max_relative_error
              << " over " << r.samples.size() << " workloads\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  main_start = faults::RealClock().now();
  try {
    const flags::Args args = flags::parse(kFlags, kCommands, argc, argv);
    if (args.positional.empty()) return usage();
    const std::string& cmd = args.positional[0];
    if (cmd == "list-machines") return cmd_list_machines();
    if (cmd == "list-events") return cmd_list_events(args);
    if (cmd == "signatures") return cmd_signatures(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "collect") return cmd_collect(args);
    if (cmd == "full-report") return cmd_full_report(args);
    if (cmd == "validate") return cmd_validate(args);
  } catch (const flags::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
