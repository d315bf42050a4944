// Enforces the catalyst::obs overhead budget: running the full pipeline
// with tracing ENABLED must cost < 2% wall time over the same pipeline with
// tracing runtime-disabled (the production default).
//
// Method: interleaved A/B, min-of-N.  Alternating enabled/disabled runs
// cancels thermal / frequency drift; the minimum is the standard robust
// estimator for "cost without scheduler noise".  A small absolute floor
// guards against timer jitter deciding the verdict on very fast runs.
//
// scripts/run_bench.sh runs this first and aborts the bench run on failure;
// it is also a plain executable (exit 0 = within budget) for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "obs/trace.hpp"
#include "pmu/pmu.hpp"

namespace {

using namespace catalyst;

constexpr double kBudgetRatio = 1.02;      // <2% relative overhead
constexpr double kJitterFloorNs = 2.0e5;   // 200us absolute timer-noise floor
constexpr int kIterations = 201;           // per mode, min taken

double run_once_ns(const pmu::Machine& machine, const cat::Benchmark& bench,
                   const std::vector<core::MetricSignature>& sigs,
                   const core::PipelineOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = core::run_pipeline(machine, bench, sigs, options);
  const auto t1 = std::chrono::steady_clock::now();
  if (result.all_event_names.empty()) return -1.0;  // keep result observable
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

}  // namespace

int main() {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  const auto sigs = core::cpu_flops_signatures();
  core::PipelineOptions options;
  options.repetitions = 4;

  obs::Tracer& tracer = obs::Tracer::instance();

  // Warm-up: touch every code path / fault in caches once per mode.
  tracer.enable(true);
  run_once_ns(machine, bench, sigs, options);
  tracer.enable(false);
  run_once_ns(machine, bench, sigs, options);

  double min_on = -1.0;
  double min_off = -1.0;
  for (int i = 0; i < kIterations; ++i) {
    tracer.enable(true);
    const double on = run_once_ns(machine, bench, sigs, options);
    tracer.reset();  // keep the ring from wrapping across iterations
    tracer.enable(false);
    const double off = run_once_ns(machine, bench, sigs, options);
    if (min_on < 0.0 || on < min_on) min_on = on;
    if (min_off < 0.0 || off < min_off) min_off = off;
  }

  const double ratio = min_on / min_off;
  const double delta_ns = min_on - min_off;
  const bool within_budget =
      ratio <= kBudgetRatio || delta_ns <= kJitterFloorNs;
  std::printf(
      "obs_overhead: pipeline min wall time enabled=%.3f ms, "
      "disabled=%.3f ms, ratio=%.4f (budget %.2f, jitter floor %.1f us)\n",
      min_on / 1e6, min_off / 1e6, ratio, kBudgetRatio, kJitterFloorNs / 1e3);
  if (!within_budget) {
    std::fprintf(stderr,
                 "obs_overhead: FAIL -- tracing overhead %.2f%% exceeds the "
                 "2%% budget (delta %.1f us)\n",
                 (ratio - 1.0) * 100.0, delta_ns / 1e3);
    return 1;
  }
  std::printf("obs_overhead: PASS\n");
  return 0;
}
