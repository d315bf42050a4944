// Collection-mode ablation: the counting-vs-sampling recovery oracle.
//
//   ablation_collection_modes [--seeds N] [--quick] [--json FILE]
//
// Crosses the three collection modes (counting / sampling / strobed,
// vpapi/sampling.hpp) with a slice-length ratchet -- the sampling period as
// a fraction/multiple of the virtual kernel span -- over a population of
// seeded benign generated models, and classifies every run's ground-truth
// recovery with the modelgen oracle (exact / alternative / degraded /
// wrong).
//
// The claims this harness enforces (process exit code, consumed by the
// `collection_modes` stage of scripts/check.sh):
//
//   * counting mode recovers >= 95% exact with ZERO wrong verdicts on
//     benign machines -- the baseline the sampling modes are judged
//     against;
//   * sampling and strobed produce ZERO `wrong` verdicts at EVERY point of
//     the slice-length ratchet.  Fine periods converge to the counting
//     readings (exact); coarse periods smear kernel boundaries and may
//     degrade -- but degradation must stay DETECTABLE (the pipeline flags
//     the metric non-composable) because per-run dithering converts the
//     attribution error into repetition variance the RNMSE filter sees.
//     A silent lie (`wrong`) at any period is a bug.
//
// Every reading is a pure function of its coordinates, so the whole sweep
// is deterministic: the census below is a regression surface, not a
// statistical estimate.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "flags.hpp"
#include "json/json.hpp"
#include "modelgen/modelgen.hpp"
#include "vpapi/sampling.hpp"

namespace {

using catalyst::modelgen::Verdict;
using catalyst::vpapi::CollectionMode;
using catalyst::vpapi::SampleSchedule;

struct Census {
  int exact = 0;
  int alternative = 0;
  int degraded = 0;
  int wrong = 0;
  int total() const { return exact + alternative + degraded + wrong; }
};

void tally(Census& census, Verdict verdict) {
  switch (verdict) {
    case Verdict::exact: ++census.exact; break;
    case Verdict::alternative: ++census.alternative; break;
    case Verdict::degraded: ++census.degraded; break;
    case Verdict::wrong: ++census.wrong; break;
  }
}

/// The slice-length ratchet: sampling period as a multiple of the kernel
/// span.  Fine fractions reconstruct phases near-exactly; past 1.0 a
/// single period covers whole kernels and boundary smearing dominates.
SampleSchedule schedule_for(double period_ratio) {
  SampleSchedule schedule;  // kernel_span_ns = 1ms default.
  schedule.period_ns = static_cast<std::uint64_t>(
      period_ratio * static_cast<double>(schedule.kernel_span_ns));
  if (schedule.period_ns == 0) schedule.period_ns = 1;
  // Strobed alternates the long period with a 5x shorter one (the shape of
  // gator's period/alt-period pair, compressed to simulation scale).
  schedule.short_period_ns = schedule.period_ns / 5;
  if (schedule.short_period_ns == 0) schedule.short_period_ns = 1;
  return schedule;
}

Census sweep_mode(CollectionMode mode, double period_ratio, int seeds) {
  Census census;
  for (int s = 0; s < seeds; ++s) {
    catalyst::modelgen::GeneratorSpec spec;
    spec.seed = static_cast<std::uint64_t>(s + 1);
    const auto model = catalyst::modelgen::generate(spec);
    const auto outcome = catalyst::modelgen::run_and_verify_sampled(
        model, mode, schedule_for(period_ratio));
    tally(census, outcome.overall);
    if (outcome.overall == Verdict::wrong) {
      std::fprintf(stderr, "WRONG verdict (mode %s, ratio %g):\n%s",
                   catalyst::vpapi::to_string(mode), period_ratio,
                   outcome.describe().c_str());
    }
  }
  return census;
}

catalyst::json::Value census_json(const Census& c) {
  auto v = catalyst::json::Value::object();
  v["exact"] = c.exact;
  v["alternative"] = c.alternative;
  v["degraded"] = c.degraded;
  v["wrong"] = c.wrong;
  return v;
}

void print_row(const char* mode, double ratio, const Census& c) {
  std::printf("%9s  %9.4f  %6d  %12d  %9d  %6d  %10.1f%%\n", mode, ratio,
              c.exact, c.alternative, c.degraded, c.wrong,
              100.0 * c.exact / c.total());
}

}  // namespace

constexpr catalyst::flags::Flag kFlags[] = {
    {"seeds", catalyst::flags::Kind::integer, "N", "", 1, INT32_MAX},
    {"quick", catalyst::flags::Kind::toggle, "", ""},
    {"json", catalyst::flags::Kind::text, "FILE", ""},
};

int main(int argc, char** argv) {
  catalyst::flags::Args args;
  try {
    args = catalyst::flags::parse(kFlags, "", argc, argv);
  } catch (const catalyst::flags::Error& e) {
    std::fprintf(stderr, "%s: %s\nusage: %s [--seeds N] [--quick] "
                 "[--json FILE]\n", argv[0], e.what(), argv[0]);
    return 64;
  }
  int seeds = static_cast<int>(args.integer("seeds", 12));
  const bool quick = args.has("quick");
  const std::string json_path = args.text("json", "");
  if (quick) seeds = seeds < 6 ? seeds : 6;

  // Period/span ratios pinned to straddle the whole recovery transition
  // (empirically stable -- the sweep is deterministic): <= 0.008 the
  // boundary interpolation is near-lossless (exact); 0.015..0.06 the
  // attribution shift produces truthful-but-different compositions
  // (alternative); >= 0.125 the pipeline flags non-composability
  // (degraded).  Nothing may ever land in `wrong` at any point.
  const std::vector<double> ratios =
      quick ? std::vector<double>{0.001, 0.125, 4.0}
            : std::vector<double>{0.001, 0.004, 0.03125, 0.125, 1.0, 4.0};

  std::printf("Collection-mode oracle sweep: %d seeded models per cell\n\n",
              seeds);
  std::printf("%9s  %9s  %6s  %12s  %9s  %6s  %11s\n", "mode", "per/span",
              "exact", "alternative", "degraded", "wrong", "exact rate");

  auto root = catalyst::json::Value::object();
  root["seeds"] = seeds;
  root["quick"] = quick;
  auto rows = catalyst::json::Value::array();

  bool fail = false;

  // Counting baseline: one cell (the ratchet is a no-op without sampling).
  const Census counting = sweep_mode(CollectionMode::counting, 1.0, seeds);
  print_row("counting", 0.0, counting);
  {
    auto row = catalyst::json::Value::object();
    row["mode"] = std::string("counting");
    row["period_ratio"] = 0.0;
    row["census"] = census_json(counting);
    rows.push_back(std::move(row));
  }
  if (counting.wrong != 0 || counting.exact * 100 < counting.total() * 95) {
    std::fprintf(stderr,
                 "FAIL: counting baseline below 95%% exact or wrong != 0\n");
    fail = true;
  }

  for (const CollectionMode mode :
       {CollectionMode::sampling, CollectionMode::strobed}) {
    for (const double ratio : ratios) {
      const Census c = sweep_mode(mode, ratio, seeds);
      print_row(catalyst::vpapi::to_string(mode), ratio, c);
      auto row = catalyst::json::Value::object();
      row["mode"] = std::string(catalyst::vpapi::to_string(mode));
      row["period_ratio"] = ratio;
      row["census"] = census_json(c);
      rows.push_back(std::move(row));
      if (c.wrong != 0) {
        std::fprintf(stderr, "FAIL: wrong verdict in %s at ratio %g\n",
                     catalyst::vpapi::to_string(mode), ratio);
        fail = true;
      }
    }
  }

  root["rows"] = std::move(rows);
  root["pass"] = !fail;
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    const std::string text = catalyst::json::dump(root, 2);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote census JSON to %s\n", json_path.c_str());
  }

  return fail ? 1 : 0;
}
