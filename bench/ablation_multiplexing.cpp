// Ablation: grouped collection (CAT's method, one run per counter-sized
// event group) vs ONE time-division-multiplexed run holding every event.
//
// Multiplexing needs ceil(events/counters)x fewer benchmark runs but every
// reading becomes a duty-cycle extrapolation; on the deterministic
// FP_ARITH events the grouped method measures EXACT values while the
// multiplexed estimates err by tens of percent per kernel.  The numbers
// below justify the paper's collection methodology.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "cat/cat.hpp"
#include "pmu/pmu.hpp"
#include "vpapi/collector.hpp"

using namespace catalyst;

int main() {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  const auto acts = bench.single_thread_activities();

  // Measure the whole deterministic FP/branch/instruction family both ways
  // (~20 events over 8 physical counters: the multiplexed set must slice).
  std::vector<std::string> events;
  for (const auto& name : machine.event_names()) {
    if (name.rfind("FP_ARITH_INST_RETIRED:", 0) == 0 ||
        name.rfind("BR_INST_RETIRED:", 0) == 0 ||
        name.rfind("INST_RETIRED:", 0) == 0) {
      events.push_back(name);
    }
  }

  const auto grouped = vpapi::collect(machine, events, acts);
  const auto muxed = vpapi::collect_multiplexed(machine, events, acts, 1);

  std::cout << "Grouped runs per repetition: " << grouped.runs_per_repetition
            << "; multiplexed: " << muxed.runs_per_repetition << "\n\n";
  std::cout << "# event | max relative error of multiplexed vs grouped "
               "(grouped is exact here)\n"
            << std::fixed << std::setprecision(3);
  double worst = 0.0;
  for (std::size_t e = 0; e < events.size(); ++e) {
    double max_rel = 0.0;
    for (std::size_t k = 0; k < acts.size(); ++k) {
      const double truth = grouped.measurements.row(e, 0)[k];
      const double est = muxed.measurements.row(e, 0)[k];
      if (truth > 0.0) {
        max_rel = std::max(max_rel, std::fabs(est - truth) / truth);
      }
    }
    worst = std::max(worst, max_rel);
    std::cout << std::left << std::setw(44) << events[e] << " " << max_rel
              << "\n";
  }
  std::cout << "\nWorst-case per-kernel estimation error from multiplexing: "
            << std::setprecision(1) << worst * 100.0
            << "%\nGrouped collection pays " << grouped.runs_per_repetition
            << "x the runs to make that error zero -- CAT's choice.\n";
  return 0;
}
