// PAPI presets end to end: discover metrics, export them as presets,
// register them in a measurement session, and read them while "running" a
// user application -- the full life cycle the paper automates for the PAPI
// project.
//
// Build & run:  ./examples/papi_presets
#include <iostream>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

int main() {
  using namespace catalyst;

  const pmu::Machine machine = pmu::saphira_cpu();

  // 1. Discover metric definitions from the CAT benchmarks.
  const auto flops = core::run_pipeline(
      machine, cat::cpu_flops_benchmark(), core::cpu_flops_signatures());
  const auto branches = core::run_pipeline(
      machine, cat::branch_benchmark(), core::branch_signatures());

  // 2. Turn composable metrics into presets (rounded, zero-free).
  auto presets = core::make_presets(flops.metrics);
  const auto branch_presets = core::make_presets(branches.metrics);
  presets.insert(presets.end(), branch_presets.begin(), branch_presets.end());

  std::cout << "Generated preset table for " << machine.name() << ":\n"
            << core::presets_to_table(presets) << "\n";

  // 3. Register them in a fresh session, like a tool loading papi presets.
  vpapi::Session session(machine);
  const std::size_t registered = core::register_presets(session, presets);
  std::cout << registered << " presets registered\n\n";

  // 4. "Run" a user application and read two presets around it.
  //    The app: 1000 iterations of a loop doing 4 AVX-512 DP FMAs, 2 scalar
  //    DP adds, with 1 conditional branch (taken except the exit).
  pmu::Activity app;
  app[pmu::sig::fp("512", "dp", true)] = 4000.0;
  app[pmu::sig::fp("scalar", "dp", false)] = 2000.0;
  app[pmu::sig::branch_cond_retired] = 1000.0;
  app[pmu::sig::branch_cond_taken] = 999.0;
  app[pmu::sig::branch_mispredicted] = 1.0;

  const int set = session.create_eventset();
  for (const char* preset : {"PAPI_DP_OPS", "PAPI_BR_MSP"}) {
    if (session.add_event(set, preset) != vpapi::Status::ok) {
      std::cerr << "could not add " << preset << "\n";
      return 1;
    }
  }
  std::cout << "Event set uses " << session.counters_in_use(set) << " of "
            << machine.physical_counters() << " physical counters\n";

  session.start(set);
  session.run_kernel(machine.densify(app), /*repetition=*/0,
                     /*kernel_index=*/0);
  session.stop(set);

  std::vector<double> values;
  session.read(set, values);
  std::cout << "PAPI_DP_OPS  = " << values[0]
            << "   (expected 4000*16 + 2000 = 66000)\n";
  std::cout << "PAPI_BR_MSP  = " << values[1] << "   (expected 1)\n";
  return 0;
}
