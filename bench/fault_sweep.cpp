// Ablation: how much PMU misbehavior can the resilient driver absorb before
// the paper's results degrade?
//
// Sweeps a multiplier over the canonical mid-rate fault plan (drops, stuck
// counters, wraparounds, spikes, transient add/start failures -- see
// faults/faults.hpp) and runs the full Table-V pipeline at each intensity.
// The claim under test: retry + wrap correction + quarantine keep the
// SELECTED EVENTS AND METRICS bit-identical to the clean run until faults
// are frequent enough to quarantine a basis event -- at which point the
// pipeline degrades gracefully (fewer selected events) instead of aborting.
#include <iomanip>
#include <iostream>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

using namespace catalyst;

namespace {

faults::FaultPlan scaled_mid_rate(double multiplier) {
  faults::FaultPlan plan = faults::FaultPlan::mid_rate();
  plan.rates.wrap *= multiplier;
  plan.rates.stuck *= multiplier;
  plan.rates.dropped_reading *= multiplier;
  plan.rates.spike *= multiplier;
  plan.rates.add_event_busy *= multiplier;
  plan.rates.start_busy *= multiplier;
  return plan;
}

}  // namespace

int main() {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  const auto signatures = core::cpu_flops_signatures();
  core::PipelineOptions options;  // paper defaults (Table V setup)

  const auto clean =
      core::run_pipeline(machine, bench, signatures, options);

  std::cout << "Fault sweep over " << machine.name() << " / " << bench.name
            << " (multiplier x the canonical mid-rate plan)\n\n"
            << "mult   retries  quarantined  selected  identical-to-clean\n";
  for (const double mult : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0}) {
    const faults::FaultPlan plan = scaled_mid_rate(mult);
    core::PipelineResult result;
    try {
      core::CampaignOptions campaign;
      campaign.pipeline = options;
      campaign.fault_plan = plan.enabled() ? &plan : nullptr;
      result =
          core::run_campaign(machine, bench, signatures, campaign).result;
    } catch (const std::runtime_error& e) {
      // The documented floor: every event quarantined -> typed abort
      // instead of a vacuous analysis.
      std::cout << std::left << std::setw(7) << mult
                << "ABORTED: " << e.what() << "\n";
      continue;
    }
    const bool identical = result.xhat_events == clean.xhat_events;
    std::cout << std::left << std::setw(7) << mult << std::setw(9)
              << (result.collection.has_value()
                      ? result.collection->total_retries
                      : 0)
              << std::setw(13) << result.quarantined_events.size()
              << std::setw(10) << result.xhat_events.size()
              << (identical ? "yes" : "NO") << "\n";
    if (!identical) {
      std::cout << "       degraded selection:";
      for (const auto& e : result.xhat_events) std::cout << " " << e;
      std::cout << "\n";
    }
  }
  std::cout << "\nQuarantine trades coverage for survival: past the point "
               "where an event\ncannot be read reliably, the campaign "
               "completes on the remaining events\ninstead of aborting.\n";
  return 0;
}
