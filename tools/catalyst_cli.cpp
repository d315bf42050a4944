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
// schedule.  A flag value or combination that cannot run exits 2.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pmu/pmu.hpp"
#include "service/catalog.hpp"

namespace {

using namespace catalyst;

/// A flag the command cannot honour (bad value, incompatible combination):
/// main() prints it and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;  // --key[=value] or --key value
  bool has(const std::string& key) const { return options.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// Throws UsageError naming the flag unless the whole value is a number.
  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0') {
      throw UsageError("--" + key + ": expected a number, got '" +
                       it->second + "'");
    }
    return value;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const auto eq = a.find('=');
      if (eq != std::string::npos) {
        args.options[a.substr(2, eq - 2)] = a.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        args.options[a.substr(2)] = argv[++i];
      } else {
        args.options[a.substr(2)] = "";
      }
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

/// --faults [SPEC]: "" / flag alone means the canonical mid-rate plan;
/// otherwise the spec grammar of faults::parse_fault_plan ("off", "mid",
/// "seed=...,drop=...,...").  Returns nullopt when the flag is absent or
/// the plan parses to disabled.
std::optional<faults::FaultPlan> fault_plan_from_args(const Args& args) {
  if (!args.has("faults")) return std::nullopt;
  const std::string spec = args.get("faults", "");
  faults::FaultPlan plan =
      spec.empty() ? faults::FaultPlan::mid_rate()
                   : faults::parse_fault_plan(spec);
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

/// The flags campaign_from_args reads.
constexpr const char* kCollectionFlags[] = {
    "reps", "faults", "checkpoint-dir", "resume", "mode", "kernel-span-us",
    "sample-period-us", "strobe-short-us", "no-dither"};

/// --reps, --faults, --checkpoint-dir/--resume, --mode and the sample
/// schedule flags on top of the category defaults.  `out` is the archive
/// path (empty for analyze), whose OUT.ckpt is --resume's default
/// checkpoint directory.  Throws UsageError on values or combinations that
/// cannot run.
void campaign_from_args(const Args& args, const core::PipelineOptions& base,
                        const std::string& out, Campaign& campaign) {
  core::CampaignOptions& options = campaign.options;
  options.pipeline = base;
  options.pipeline.repetitions = static_cast<std::size_t>(
      args.get_double("reps", double(base.repetitions)));
  campaign.plan = fault_plan_from_args(args);
  if (campaign.plan.has_value()) {
    options.fault_plan = &*campaign.plan;
    options.resilience.clock = &campaign.clock;  // real backoff pacing
  }
  options.checkpoint.directory = args.get("checkpoint-dir", "");
  options.checkpoint.resume = args.has("resume");
  if (options.checkpoint.resume && options.checkpoint.directory.empty()) {
    if (out.empty()) {
      throw UsageError("--resume needs --checkpoint-dir DIR");
    }
    options.checkpoint.directory = out + ".ckpt";
  }

  try {
    options.collection_mode =
        vpapi::collection_mode_from_string(args.get("mode", "counting"));
  } catch (const std::invalid_argument& e) {
    throw UsageError(std::string("--mode: ") + e.what());
  }
  if (options.collection_mode == vpapi::CollectionMode::counting) return;
  if (campaign.plan.has_value() || !options.checkpoint.directory.empty()) {
    throw UsageError(
        "sampling modes do not combine with --faults or --checkpoint-dir "
        "(counting-mode features)");
  }
  vpapi::SampleSchedule& schedule = options.sample_schedule;
  const auto nanoseconds = [&args](const char* flag, std::uint64_t ns) {
    return static_cast<std::uint64_t>(
        args.get_double(flag, double(ns) / 1000.0) * 1000.0);
  };
  schedule.kernel_span_ns =
      nanoseconds("kernel-span-us", schedule.kernel_span_ns);
  schedule.period_ns = nanoseconds("sample-period-us", schedule.period_ns);
  // The short period only matters for strobed runs; cap the default at the
  // long period so a fine --sample-period-us alone stays valid.
  schedule.short_period_ns = nanoseconds(
      "strobe-short-us",
      std::min(schedule.short_period_ns, schedule.period_ns));
  schedule.dither = !args.has("no-dither");
  try {
    schedule.validate();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
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

TraceArgs trace_args_from(const Args& args) {
  TraceArgs t;
  t.trace_out = args.get("trace-out", "");
  t.manifest_out = args.get("manifest-out", "");
  t.stats = args.has("stats");
  if (t.any()) {
#if defined(CATALYST_OBS_DISABLED)
    std::cerr << "warning: catalyst was built with CATALYST_OBS=OFF; "
                 "trace/manifest/stats output will be empty\n";
#endif
    obs::Tracer::instance().enable();
  }
  return t;
}

/// Writes the requested trace/manifest/stats artifacts after a run.  The
/// manifest's git_sha comes from CATALYST_GIT_SHA (scripts/run_bench.sh and
/// scripts/check.sh export it) so the binary never shells out to git.
void write_trace_artifacts(const TraceArgs& t, const std::string& tool,
                           const std::string& category,
                           const std::string& machine_name,
                           const core::PipelineOptions& options,
                           const core::PipelineResult& result) {
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
        << "|threads=" << options.collection_threads
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
        {"projected", result.projection.x_event_names.size()},
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
    std::cout << obs::format_stats(metrics, result.stage_timings,
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
  std::cerr <<
      "usage:\n"
      "  catalyst list-machines\n"
      "  catalyst list-events <machine> [--filter SUBSTR]\n"
      "  catalyst signatures <category>\n"
      "  catalyst analyze <category> [--machine M] [--tau X] [--alpha Y]\n"
      "                   [--rounded] [--presets] [--json] [--markdown]\n"
      "                   [--from ARCHIVE] [--detrend] [COLLECTION FLAGS]\n"
      "                   [--trace-out FILE] [--manifest-out FILE] [--stats]\n"
      "  catalyst collect <category> [--machine M] --out FILE\n"
      "                   [COLLECTION FLAGS]\n"
      "                   [--trace-out FILE] [--manifest-out FILE] [--stats]\n"
      "  collection flags: [--reps N] [--faults [SPEC]]\n"
      "                   [--checkpoint-dir DIR] [--resume]\n"
      "                   [--mode counting|sampling|strobed]\n"
      "                   [--kernel-span-us N] [--sample-period-us N]\n"
      "                   [--strobe-short-us N] [--no-dither]\n"
      "                   (collect's --resume defaults the checkpoint dir to\n"
      "                    OUT.ckpt; SPEC: \"mid\" or \"drop=0.01,...\";\n"
      "                    sampling modes exclude --faults/--checkpoint-dir)\n"
      "  catalyst full-report [--machine M] [--out FILE] [--presets FILE]\n"
      "  catalyst validate <category> [--machine M] [--workloads N]\n"
      "categories: cpu_flops | gpu_flops | branch | dcache | icache |\n"
      "            gpu_dcache\n"
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

int cmd_list_events(const Args& args) {
  if (args.positional.size() < 2) return usage();
  const auto machine = machine_by_name(args.positional[1]);
  if (!machine) {
    std::cerr << "unknown machine " << args.positional[1] << "\n";
    return 2;
  }
  const std::string filter = args.get("filter", "");
  std::size_t shown = 0;
  for (const auto& e : machine->events()) {
    if (!filter.empty() && e.name.find(filter) == std::string::npos) continue;
    std::cout << e.name << "  --  " << e.description << "\n";
    ++shown;
  }
  std::cout << "(" << shown << " events)\n";
  return 0;
}

int cmd_signatures(const Args& args) {
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

int cmd_analyze(const Args& args) {
  if (args.positional.size() < 2) return usage();
  auto setup = category_setup(args.positional[1]);
  if (!setup) {
    std::cerr << "unknown category " << args.positional[1] << "\n";
    return 2;
  }
  const std::string machine_name =
      args.get("machine", setup->default_machine);
  const auto machine = machine_by_name(machine_name);
  if (!machine) {
    std::cerr << "unknown machine " << machine_name << "\n";
    return 2;
  }
  setup->options.tau = args.get_double("tau", setup->options.tau);
  setup->options.alpha = args.get_double("alpha", setup->options.alpha);
  if (args.has("detrend")) setup->options.detrend_drifting = true;
  for (const char* flag : kCollectionFlags) {
    if (args.has("from") && args.has(flag)) {
      throw UsageError(std::string("--") + flag +
                       " is a collection flag; --from analyzes an archive "
                       "that was already collected");
    }
  }
  Campaign campaign;
  campaign_from_args(args, setup->options, "", campaign);
  const core::PipelineOptions& options = campaign.options.pipeline;
  const TraceArgs trace = trace_args_from(args);

  core::PipelineResult result;
  std::string source;
  if (args.has("from")) {
    const auto archive =
        core::load_archive(core::read_text_file(args.get("from", "")));
    result = core::analyze_archive(archive, setup->signatures, options);
    result.quarantined_events = archive.quarantined;
    result.collection = archive.collection_report;
    source = "archive " + args.get("from", "") + " (" +
             archive.machine_name + ")";
  } else {
    result = core::run_campaign(*machine, setup->benchmark,
                                setup->signatures, campaign.options)
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
        source + " / " + setup->benchmark.name, result);
  } else {
    std::cout << source << ", benchmark " << setup->benchmark.name << ": "
              << result.all_event_names.size() << " events -> "
              << result.noise.kept.size() << " after noise filter -> "
              << result.projection.x_event_names.size()
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
  write_trace_artifacts(trace, "catalyst analyze", args.positional[1],
                        machine_name, options, result);
  return 0;
}

int cmd_collect(const Args& args) {
  if (args.positional.size() < 2 || !args.has("out")) return usage();
  auto setup = category_setup(args.positional[1]);
  if (!setup) {
    std::cerr << "unknown category " << args.positional[1] << "\n";
    return 2;
  }
  const std::string machine_name = args.get("machine", setup->default_machine);
  const auto machine = machine_by_name(machine_name);
  if (!machine) return usage();
  const std::string out_path = args.get("out", "");
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
                        machine_name, options.pipeline, out.result);
  return 0;
}

int cmd_full_report(const Args& args) {
  const std::string machine_name = args.get("machine", "saphira");
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
    core::write_text_file(args.get("out", ""), report.str());
    std::cout << "wrote report (" << all_presets.size() << " presets, "
              << categories.size() << " categories) to "
              << args.get("out", "") << "\n";
  } else {
    std::cout << report.str();
  }
  if (args.has("presets")) {
    core::write_text_file(args.get("presets", ""),
                          core::presets_to_json(all_presets));
    std::cout << "wrote " << all_presets.size() << " presets to "
              << args.get("presets", "") << "\n";
  }
  return 0;
}

int cmd_validate(const Args& args) {
  if (args.positional.size() < 2) return usage();
  auto setup = category_setup(args.positional[1]);
  if (!setup) {
    std::cerr << "unknown category " << args.positional[1] << "\n";
    return 2;
  }
  const auto machine =
      machine_by_name(args.get("machine", setup->default_machine));
  if (!machine) return usage();
  const auto workloads =
      static_cast<std::size_t>(args.get_double("workloads", 10));

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
  const Args args = parse_args(argc, argv);
  if (args.positional.empty()) return usage();
  const std::string& cmd = args.positional[0];
  try {
    if (cmd == "list-machines") return cmd_list_machines();
    if (cmd == "list-events") return cmd_list_events(args);
    if (cmd == "signatures") return cmd_signatures(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "collect") return cmd_collect(args);
    if (cmd == "full-report") return cmd_full_report(args);
    if (cmd == "validate") return cmd_validate(args);
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
