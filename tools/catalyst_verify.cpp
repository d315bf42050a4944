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
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "modelgen/modelgen.hpp"

namespace {

using namespace catalyst;

/// Flags that never take a value: the token after one is the next argument.
constexpr const char* kSwitches[] = {"orphan", "verbose"};

/// The flags each command reads; any other flag is a usage error.
std::vector<std::string> flags_of(const std::string& cmd) {
  std::vector<std::string> flags = {"noise", "orphan", "gamma"};
  if (cmd == "one") {
    flags.insert(flags.end(), {"seed", "verbose"});
  } else if (cmd == "sweep") {
    flags.insert(flags.end(), {"seeds", "start", "min-exact"});
  } else {
    flags.push_back("seed");
  }
  return flags;
}

/// True when the whole of `text` is a T.  std::from_chars, not std::sto*:
/// std::stoull reads "-1" as 2^64 - 1 and "3x" as 3.
template <typename T>
bool parse_whole(const std::string& text, T& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return !text.empty() && ec == std::errc() && ptr == end;
}

/// The parsed command line.  A malformed number throws
/// std::invalid_argument naming the flag.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool has(const std::string& key) const { return options.count(key) > 0; }
  double get_double(const std::string& key, double fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    double value = 0.0;
    if (!parse_whole(it->second, value) || !std::isfinite(value)) {
      throw std::invalid_argument("--" + key + ": expected a number, got '" +
                                  it->second + "'");
    }
    return value;
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    std::uint64_t value = 0;
    if (!parse_whole(it->second, value)) {
      throw std::invalid_argument("--" + key +
                                  ": must be an integer in [0, " +
                                  std::to_string(UINT64_MAX) + "], got '" +
                                  it->second + "'");
    }
    return value;
  }
};

/// True when the whole of `token` is a number: a negative one is a flag's
/// value (refused by the flag's range), not the next flag.
bool is_number(const std::string& token) {
  double value = 0.0;
  return parse_whole(token, value);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      const auto eq = a.find('=');
      const bool is_switch =
          std::find(std::begin(kSwitches), std::end(kSwitches), a.substr(2)) !=
          std::end(kSwitches);
      if (eq != std::string::npos) {
        args.options[a.substr(2, eq - 2)] = a.substr(eq + 1);
      } else if (!is_switch && i + 1 < argc &&
                 (argv[i + 1][0] != '-' || is_number(argv[i + 1]))) {
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

/// Throws std::invalid_argument naming the first flag or argument `cmd`
/// does not read.
void check_args(const std::string& cmd, const Args& args) {
  if (args.positional.size() > 1) {
    throw std::invalid_argument("unexpected argument '" + args.positional[1] +
                                "'");
  }
  const std::vector<std::string> known = flags_of(cmd);
  for (const auto& option : args.options) {
    if (std::find(known.begin(), known.end(), option.first) == known.end()) {
      throw std::invalid_argument("--" + option.first + ": not a flag of '" +
                                  cmd + "'");
    }
  }
}

modelgen::GeneratorSpec spec_from_args(const Args& args, std::uint64_t seed) {
  modelgen::GeneratorSpec spec;
  spec.seed = seed;
  spec.noise_level = args.get_double("noise", spec.noise_level);
  if (args.has("orphan")) {
    spec.orphan_dimension = true;
    spec.correlation_gamma =
        args.get_double("gamma", spec.correlation_gamma);
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

int cmd_one(const Args& args) {
  const std::uint64_t seed = args.get_u64("seed", 1);
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

int cmd_sweep(const Args& args) {
  const std::uint64_t count = args.get_u64("seeds", 200);
  const std::uint64_t start = args.get_u64("start", 1);
  const double min_exact = args.get_double("min-exact", 0.95);
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

int cmd_metamorphic(const Args& args) {
  const std::uint64_t seed = args.get_u64("seed", 1);
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
  std::cerr << "usage: catalyst_verify one|sweep|metamorphic [options]\n"
               "  one         --seed N [--noise L] [--orphan [--gamma G]]\n"
               "  sweep       --seeds N [--start S] [--noise L] "
               "[--min-exact F]\n"
               "  metamorphic --seed N [--noise L]\n"
               "  (sweep and metamorphic take --orphan [--gamma G] too)\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.positional.empty()) return usage();
  try {
    const std::string& cmd = args.positional[0];
    if (cmd != "one" && cmd != "sweep" && cmd != "metamorphic") {
      return usage();
    }
    check_args(cmd, args);
    if (cmd == "one") return cmd_one(args);
    if (cmd == "sweep") return cmd_sweep(args);
    return cmd_metamorphic(args);
  } catch (const std::exception& e) {
    std::cerr << "catalyst_verify: " << e.what() << "\n";
    return 64;
  }
}
