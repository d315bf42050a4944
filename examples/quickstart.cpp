// Quickstart: automatically define a "DP FLOPs" metric from raw events.
//
// This walks the library's happy path end to end:
//   1. pick a machine model (the Sapphire-Rapids-flavoured "Saphira" CPU),
//   2. pick the CAT benchmark that stresses the hardware attribute of
//      interest (floating point),
//   3. run the analysis pipeline with the paper's default thresholds,
//   4. read off the metric definition and its fitness.
//
// Build & run:  ./examples/quickstart
#include <iostream>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

int main() {
  using namespace catalyst;

  // A simulated machine with ~350 raw events, of which only a handful are
  // relevant to floating-point analysis -- finding them by hand is the
  // problem the paper automates.
  const pmu::Machine machine = pmu::saphira_cpu();
  std::cout << "Machine: " << machine.name() << " with "
            << machine.num_events() << " raw events and "
            << machine.physical_counters() << " physical counters\n\n";

  // The CAT CPU-FLOPs benchmark: 16 microkernels x 3 loops, each stressing
  // one ideal floating-point concept in isolation.
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  std::cout << "Benchmark: " << bench.name << " with " << bench.slots.size()
            << " kernel slots over a " << bench.basis.labels.size()
            << "-dimensional expectation basis\n\n";

  // Run the full pipeline for all of Table I's metric signatures.
  const core::PipelineResult result = core::run_pipeline(
      machine, bench, core::cpu_flops_signatures(), core::PipelineOptions{});

  std::cout << result.all_event_names.size() << " events measured -> "
            << result.noise.kept.size() << " after noise filtering -> "
            << result.projection.representable.size()
            << " representable in the basis -> " << result.xhat_events.size()
            << " independent events selected by the specialized QRCP\n\n";

  std::cout << core::format_selected_events(result) << "\n";

  // The headline: DP FLOPs, composed automatically.
  for (const auto& metric : result.metrics) {
    if (metric.metric_name != "DP Ops.") continue;
    std::cout << "DP FLOPs = "
              << core::format_combination(
                     core::round_coefficients(metric.terms))
              << "\n  (backward error " << metric.backward_error << ", "
              << (metric.composable ? "composable" : "NOT composable")
              << ")\n";
  }
  return 0;
}
