// Recovery-rate sweep over the synthetic-model generator (src/modelgen):
// how does ground-truth recovery degrade as the noise profile and the
// correlated-decoy leakage ratchet up?
//
//   recovery_sweep [--seeds N]
//
// Two tables, one row per knob setting, columns = verdict census over N
// seeded models (exact / alternative / degraded / wrong).  The `wrong`
// column is the harness's core claim and must read 0 everywhere: the
// pipeline may fail detectably, never silently.  The noise table crosses
// the derived tau around noise_level ~ 35 (the documented boundary band);
// the gamma table crosses the QRCP rounding tolerance at alpha/2 = 0.025.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "flags.hpp"
#include "modelgen/modelgen.hpp"

namespace {

struct Census {
  int exact = 0;
  int alternative = 0;
  int degraded = 0;
  int wrong = 0;
};

Census sweep(const std::vector<catalyst::modelgen::GeneratorSpec>& specs) {
  using catalyst::modelgen::Verdict;
  Census census;
  for (const auto& spec : specs) {
    const auto outcome = catalyst::modelgen::run_and_verify(
        catalyst::modelgen::generate(spec));
    switch (outcome.overall) {
      case Verdict::exact: ++census.exact; break;
      case Verdict::alternative: ++census.alternative; break;
      case Verdict::degraded: ++census.degraded; break;
      case Verdict::wrong: ++census.wrong; break;
    }
  }
  return census;
}

void print_row(double knob, int seeds, const Census& c) {
  std::printf("%10.3g  %6d  %12d  %9d  %6d  %10.1f%%\n", knob, c.exact,
              c.alternative, c.degraded, c.wrong,
              100.0 * c.exact / seeds);
}

}  // namespace

constexpr catalyst::flags::Flag kFlags[] = {
    {"seeds", catalyst::flags::Kind::integer, "N", "", 1, INT32_MAX},
};

int main(int argc, char** argv) {
  catalyst::flags::Args args;
  try {
    args = catalyst::flags::parse(kFlags, "", argc, argv);
  } catch (const catalyst::flags::Error& e) {
    std::fprintf(stderr, "%s: %s\nusage: %s [--seeds N]\n", argv[0],
                 e.what(), argv[0]);
    return 64;
  }
  const int seeds = static_cast<int>(args.integer("seeds", 40));

  std::printf("Recovery-rate sweep: %d seeded models per row\n\n", seeds);

  std::printf("Noise ratchet (default geometry; tau crossing ~ level 35)\n");
  std::printf("%10s  %6s  %12s  %9s  %6s  %11s\n", "noise", "exact",
              "alternative", "degraded", "wrong", "exact rate");
  for (const double level :
       {0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0, 100.0, 1000.0}) {
    std::vector<catalyst::modelgen::GeneratorSpec> specs;
    for (int s = 0; s < seeds; ++s) {
      catalyst::modelgen::GeneratorSpec spec;
      spec.seed = static_cast<std::uint64_t>(s + 1);
      spec.noise_level = level;
      specs.push_back(spec);
    }
    print_row(level, seeds, sweep(specs));
  }

  std::printf(
      "\nCorrelated-decoy leakage on an orphaned dimension "
      "(alpha/2 crossing at 0.025)\n");
  std::printf("%10s  %6s  %12s  %9s  %6s  %11s\n", "gamma", "exact",
              "alternative", "degraded", "wrong", "exact rate");
  for (const double gamma : {0.0, 0.01, 0.05, 0.1, 0.25, 0.5}) {
    std::vector<catalyst::modelgen::GeneratorSpec> specs;
    for (int s = 0; s < seeds; ++s) {
      specs.push_back(catalyst::modelgen::GeneratorSpec::edge_orphan(
          static_cast<std::uint64_t>(s + 1), gamma));
    }
    print_row(gamma, seeds, sweep(specs));
  }
  return 0;
}
