// Diagnostic tool: runs the full pipeline for one benchmark and dumps every
// stage's artifacts (noise survivors, projection verdicts, QR selection,
// metric solutions).  Usage:
//   dump_pipeline [cpu_flops|gpu_flops|branch|dcache|icache|gpu_dcache|
//                  vesuvio_flops]
// vesuvio_flops is the cpu_flops benchmark on the Vesuvio machine.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>

#include "harness_common.hpp"

using namespace catalyst;

int main(int argc, char** argv) {
  const std::string which = argc > 1 ? argv[1] : "cpu_flops";

  const bool vesuvio = which == "vesuvio_flops";
  std::optional<bench::Category> category;
  try {
    category.emplace(
        bench::make_category(vesuvio ? std::string("cpu_flops") : which));
  } catch (const std::invalid_argument&) {
    std::cerr << "unknown benchmark " << which << "\n";
    return 1;
  }
  if (vesuvio) category->machine = pmu::vesuvio_cpu();
  const auto res = bench::run_category(*category);

  std::cout << "== " << category->benchmark.name << " on "
            << category->machine.name() << " ==\n";
  std::cout << "basis: "
            << core::basis_verdict(
                   core::diagnose_basis(category->benchmark.basis))
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
