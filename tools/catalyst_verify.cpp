// catalyst_verify -- ground-truth recovery harness front end.
//
//   catalyst_verify one --seed N [--noise L] [--orphan [--gamma G]]
//                       [--verbose]
//   catalyst_verify sweep --seeds N [--start S] [--noise L]
//                       [--min-exact FRAC] [--orphan [--gamma G]]
//   catalyst_verify metamorphic --seed N [--noise L] [--orphan [--gamma G]]
//
// `one` generates the synthetic model for a seed, runs the full analysis
// pipeline, and judges every planted metric (exact / alternative /
// degraded / wrong).  `sweep` repeats that over a seed range and reports
// the recovery-rate census; it fails if any metric is judged WRONG or the
// exact-recovery rate falls below --min-exact.  `metamorphic` checks that
// the verdicts are invariant under event reordering, slot rescaling,
// noise reseeding, and collection thread count.
//
// Exit codes: 0 recovered (exact/alternative only), 2 detectable
// degradation, 3 silent wrongness or a broken metamorphic invariant,
// 64 usage error (a flag the command does not read or a malformed number,
// named in the message).  Every failure line carries the seed and a
// one-line reproduction command.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "flags.hpp"
#include "modelgen/modelgen.hpp"

namespace {

using namespace catalyst;
using flags::Kind;

constexpr std::string_view kCommands = "one sweep metamorphic";

constexpr flags::Flag kFlags[] = {
    {"seed", Kind::integer, "N", "one metamorphic", 0, UINT64_MAX},
    {"seeds", Kind::integer, "N", "sweep", 0, UINT64_MAX},
    {"start", Kind::integer, "S", "sweep", 0, UINT64_MAX},
    {"min-exact", Kind::real, "FRAC", "sweep"},
    {"noise", Kind::real, "L", ""},
    {"orphan", Kind::toggle, "", ""},
    {"gamma", Kind::real, "G", ""},
    {"verbose", Kind::toggle, "", "one"},
};

modelgen::GeneratorSpec spec_from_args(const flags::Args& args,
                                       std::uint64_t seed) {
  modelgen::GeneratorSpec spec;
  spec.seed = seed;
  spec.noise_level = args.real("noise", spec.noise_level);
  if (args.has("orphan")) {
    spec.orphan_dimension = true;
    spec.correlation_gamma = args.real("gamma", spec.correlation_gamma);
  }
  return spec;
}

int exit_code_for(modelgen::Verdict overall) {
  switch (overall) {
    case modelgen::Verdict::exact:
    case modelgen::Verdict::alternative: return 0;
    case modelgen::Verdict::degraded: return 2;
    case modelgen::Verdict::wrong: return 3;
  }
  return 3;
}

int cmd_one(const flags::Args& args) {
  const std::uint64_t seed = args.integer("seed", 1);
  const auto model = modelgen::generate(spec_from_args(args, seed));
  const auto outcome = modelgen::run_and_verify(model);
  std::cout << outcome.describe();
  if (args.has("verbose")) {
    std::cout << "machine: " << model.machine_spec.name << ", "
              << model.machine_spec.events.size() << " events, "
              << model.machine_spec.physical_counters << " counters, dims "
              << model.dims << ", slots " << model.benchmark.slots.size()
              << "\n";
  }
  return exit_code_for(outcome.overall);
}

int cmd_sweep(const flags::Args& args) {
  const std::uint64_t count = args.integer("seeds", 200);
  const std::uint64_t start = args.integer("start", 1);
  const double min_exact = args.real("min-exact", 0.95);
  std::size_t census[4] = {0, 0, 0, 0};
  std::size_t exact_models = 0;
  bool any_wrong = false;
  for (std::uint64_t seed = start; seed < start + count; ++seed) {
    const auto model = modelgen::generate(spec_from_args(args, seed));
    const auto outcome = modelgen::run_and_verify(model);
    census[static_cast<int>(outcome.overall)]++;
    if (outcome.all_exact()) exact_models++;
    if (outcome.any_wrong()) {
      any_wrong = true;
      std::cout << "WRONG:\n" << outcome.describe();
    } else if (outcome.overall != modelgen::Verdict::exact) {
      std::cout << "note: seed " << seed << " overall "
                << to_string(outcome.overall) << " -- " << outcome.repro()
                << "\n";
    }
  }
  const double rate =
      count == 0 ? 0.0 : static_cast<double>(exact_models) / count;
  std::cout << "sweep: " << count << " models, exact " << census[0]
            << ", alternative " << census[1] << ", degraded " << census[2]
            << ", wrong " << census[3] << " (exact rate " << rate << ")\n";
  if (any_wrong) return 3;
  return rate >= min_exact ? 0 : 2;
}

int cmd_metamorphic(const flags::Args& args) {
  const std::uint64_t seed = args.integer("seed", 1);
  // The base runs 4 workers and the threads variant 1, so that transform
  // compares two counts whatever the host's hardware thread count.
  const auto model =
      modelgen::with_threads(modelgen::generate(spec_from_args(args, seed)), 4);
  const auto base = modelgen::run_and_verify(model);
  std::cout << "base:\n" << base.describe();

  struct Variant {
    const char* name;
    modelgen::GeneratedModel model;
  };
  const std::vector<Variant> variants = {
      {"reorder", modelgen::reorder_events(model, seed ^ 0x9e3779b9)},
      {"rescale", modelgen::rescale_slots(model, 8.0)},
      {"reseed", modelgen::reseed_noise(model, seed * 2654435761u + 17)},
      {"threads", modelgen::with_threads(model, 1)},
  };
  bool ok = true;
  for (const Variant& variant : variants) {
    const auto outcome = modelgen::run_and_verify(variant.model);
    const auto eq = modelgen::equivalent_outcomes(base, outcome);
    std::cout << variant.name << ": "
              << (eq.equivalent ? "equivalent" : "BROKEN " + eq.detail)
              << "\n";
    if (!eq.equivalent) {
      ok = false;
      std::cout << outcome.describe();
    }
  }
  return ok ? exit_code_for(base.overall) : 3;
}

int usage() {
  std::cerr << "usage: catalyst_verify one|sweep|metamorphic [flags]\n"
               "flags, and the commands that read them (blank: every one):\n";
  flags::print_flags(std::cerr, kFlags);
  std::cerr << "--gamma applies with --orphan.\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const flags::Args args = flags::parse(kFlags, kCommands, argc, argv);
    if (args.positional.empty()) return usage();
    const std::string& cmd = args.positional[0];
    if (cmd != "one" && cmd != "sweep" && cmd != "metamorphic") {
      return usage();
    }
    if (args.positional.size() > 1) {
      throw flags::Error("unexpected argument '" + args.positional[1] + "'");
    }
    if (cmd == "one") return cmd_one(args);
    if (cmd == "sweep") return cmd_sweep(args);
    return cmd_metamorphic(args);
  } catch (const std::exception& e) {
    std::cerr << "catalyst_verify: " << e.what() << "\n";
    return 64;
  }
}
