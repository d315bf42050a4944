// Ablation: every threshold of the pipeline, swept per category.
//
//   * tau (noise filter): how many events survive, and whether the final
//     X-hat selection is affected (Fig. 2's "the exact value is uncritical
//     in the gap" claim, and its failure for cache events);
//   * projection_max_error: how many events are representable and whether
//     unrepresentable pollution (instruction counters) sneaks into X;
//   * repetitions: stability of the RNMSE filter with 2..6 repetitions.
//
// Usage: ablation_thresholds [category]
#include <algorithm>
#include <iomanip>
#include <iostream>

#include "harness_common.hpp"

using namespace catalyst;

namespace {

std::string selection_fingerprint(const core::PipelineResult& result) {
  std::vector<std::string> sel = result.xhat_events;
  std::sort(sel.begin(), sel.end());
  std::string fp;
  for (const auto& e : sel) {
    fp += e;
    fp += ';';
  }
  return fp;
}

void sweep_tau(const std::string& which) {
  std::cout << "-- tau sweep (" << which << ") --\n";
  auto reference = std::string();
  for (double tau : {1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1e-1}) {
    auto category = bench::make_category(which);
    category.options.tau = tau;
    const auto result = bench::run_category(category);
    const auto fp = selection_fingerprint(result);
    if (reference.empty()) reference = fp;
    std::cout << "  tau=" << std::scientific << std::setprecision(0) << tau
              << std::defaultfloat << "  survivors="
              << std::setw(4) << result.noise.kept.size() << "  selected="
              << result.xhat_events.size()
              << (fp == reference ? "  (same X-hat)" : "  (X-hat CHANGED)")
              << "\n";
  }
}

void sweep_projection(const std::string& which) {
  std::cout << "-- projection threshold sweep (" << which << ") --\n";
  for (double thr : {1e-6, 1e-4, 1e-3, 1e-2, 5e-2, 1e-1, 5e-1}) {
    auto category = bench::make_category(which);
    category.options.projection_max_error = thr;
    const auto result = bench::run_category(category);
    std::cout << "  thr=" << std::scientific << std::setprecision(0) << thr
              << std::defaultfloat << "  representable="
              << std::setw(4) << result.projection.representable.size()
              << "  selected=" << result.xhat_events.size() << "\n";
  }
}

void sweep_repetitions(const std::string& which) {
  std::cout << "-- repetition sweep (" << which << ") --\n";
  std::string reference;
  for (std::size_t reps : {2u, 3u, 4u, 6u}) {
    auto category = bench::make_category(which);
    category.options.repetitions = reps;
    const auto result = bench::run_category(category);
    const auto fp = selection_fingerprint(result);
    if (reference.empty()) reference = fp;
    std::cout << "  reps=" << reps << "  survivors="
              << result.noise.kept.size() << "  selected="
              << result.xhat_events.size()
              << (fp == reference ? "  (same X-hat)" : "  (X-hat CHANGED)")
              << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> categories{"cpu_flops", "gpu_flops", "branch", "icache", "gpu_dcache",
                                      "dcache"};
  if (argc > 1) categories = {argv[1]};
  for (const auto& which : categories) {
    std::cout << "== threshold ablation: " << which << " ==\n";
    sweep_tau(which);
    sweep_projection(which);
    sweep_repetitions(which);
    std::cout << "\n";
  }
  return 0;
}
