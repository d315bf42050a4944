// Diagnostic tool: runs the full pipeline for one benchmark and dumps every
// stage's artifacts (noise survivors, projection verdicts, QR selection,
// metric solutions).  Usage:
//   dump_pipeline [cpu_flops|gpu_flops|branch|dcache]
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

using namespace catalyst;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "cpu_flops";

  pmu::Machine machine = which == "gpu_flops"        ? pmu::tempest_gpu()
                         : which == "vesuvio_flops" ? pmu::vesuvio_cpu()
                                                     : pmu::saphira_cpu();
  core::PipelineOptions opt;
  cat::Benchmark bench;
  std::vector<core::MetricSignature> sigs;
  if (which == "cpu_flops" || which == "vesuvio_flops") {
    bench = cat::cpu_flops_benchmark();
    sigs = core::cpu_flops_signatures();
  } else if (which == "gpu_flops") {
    bench = cat::gpu_flops_benchmark();
    sigs = core::gpu_flops_signatures();
  } else if (which == "branch") {
    bench = cat::branch_benchmark();
    sigs = core::branch_signatures();
  } else if (which == "icache") {
    bench = cat::icache_benchmark();
    sigs = core::icache_signatures();
    opt.tau = 1e-1;
    opt.alpha = 5e-2;
    opt.projection_max_error = 1e-1;
    opt.fitness_threshold = 5e-2;
  } else if (which == "dcache") {
    cat::DcacheOptions dopt;
    dopt.threads = 3;
    bench = cat::dcache_benchmark(dopt);
    sigs = core::dcache_signatures();
    opt.tau = 1e-1;
    opt.alpha = 5e-2;
    opt.projection_max_error = 1e-1;
    opt.fitness_threshold = 5e-2;
  } else {
    std::cerr << "unknown benchmark " << which << "\n";
    return 1;
  }

  const auto res = core::run_pipeline(machine, bench, sigs, opt);

  std::cout << "== " << bench.name << " on " << machine.name() << " ==\n";
  std::cout << "basis: "
            << core::basis_verdict(core::diagnose_basis(bench.basis))
            << "\n";
  std::cout << "events total: " << res.all_event_names.size()
            << ", after noise filter: " << res.noise.kept.size()
            << ", representable: " << res.projection.representable.size()
            << ", selected: " << res.xhat_events.size() << "\n\n";

  std::cout << "-- noise survivors --\n";
  for (std::size_t i = 0; i < res.noise.kept.size(); ++i) {
    const auto& v = res.noise.variabilities[res.noise.kept[i]];
    std::cout << std::left << std::setw(46) << v.event_name << " rnmse="
              << std::scientific << std::setprecision(2) << v.max_rnmse
              << std::defaultfloat << "\n";
  }
  std::cout << "\n-- projection verdicts (survivors of noise) --\n";
  const auto& proj = res.projection;
  for (std::size_t e = 0; e < res.noise.kept.size(); ++e) {
    const auto col = static_cast<linalg::index_t>(e);
    const bool keep = std::binary_search(proj.representable.begin(),
                                         proj.representable.end(), col);
    const auto xe = proj.xe.col(col);
    std::cout << std::left << std::setw(46)
              << res.all_event_names[res.noise.kept[e]] << " be="
              << std::scientific << std::setprecision(3)
              << proj.backward_errors[e] << std::defaultfloat
              << (keep ? "  KEEP  xe=[" : "  drop  xe=[");
    for (std::size_t i = 0; i < xe.size(); ++i) {
      std::cout << std::setprecision(3) << xe[i]
                << (i + 1 < xe.size() ? "," : "");
    }
    std::cout << "]\n";
  }
  std::cout << "\n" << core::format_selected_events(res) << "\n";
  std::cout << core::format_metric_table("metrics (raw)", res.metrics);
  std::cout << "\n-- coefficient standard errors (statistical footing for "
               "the rounding step) --\n";
  for (const auto& m : res.metrics) {
    std::cout << std::left << std::setw(36) << m.metric_name << " [";
    for (std::size_t i = 0; i < m.coefficient_stderrs.size(); ++i) {
      std::cout << std::scientific << std::setprecision(1)
                << m.coefficient_stderrs[i] << std::defaultfloat
                << (i + 1 < m.coefficient_stderrs.size() ? ", " : "");
    }
    std::cout << "]\n";
  }
  std::cout << "\n"
            << core::format_metric_table("metrics (rounded)", res.metrics,
                                         /*rounded=*/true);
  return 0;
}
