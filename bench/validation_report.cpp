// Validation experiment (extension of the paper's conclusion): every
// composable metric from every category, checked on held-out mixed
// workloads through a vpapi event set (counter limits + noise included),
// against ground truth from the ideal events.
//
// Usage: validation_report [category] [num_workloads]
#include <iomanip>
#include <iostream>

#include "flags.hpp"
#include "harness_common.hpp"

using namespace catalyst;

namespace {

void emit(const std::string& which, std::size_t workloads) {
  const auto category = bench::make_category(which);
  const auto result = bench::run_category(category);
  const auto reports =
      core::validate_all(category.machine, category.benchmark, result.metrics,
                         category.signatures, workloads, 0xC0FFEE + workloads);

  std::cout << "== validation: " << which << " (" << workloads
            << " mixed workloads) ==\n";
  std::cout << "# metric | mean rel. error | max rel. error\n";
  for (const auto& r : reports) {
    std::cout << std::left << std::setw(36) << r.metric_name << " | "
              << std::scientific << std::setprecision(3)
              << r.mean_relative_error << " | " << r.max_relative_error
              << std::defaultfloat << "\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t workloads = 10;
  std::string which = "all";
  if (argc > 1) which = argv[1];
  try {
    if (argc > 3) throw flags::Error("too many arguments");
    if (argc > 2) {
      workloads = flags::integer_value("num_workloads", argv[2], 1, INT32_MAX);
    }
  } catch (const flags::Error& e) {
    std::cerr << "validation_report: " << e.what()
              << "\nusage: validation_report [category] [num_workloads]\n";
    return 2;
  }
  if (which != "all") {
    emit(which, workloads);
    return 0;
  }
  for (const char* c : {"cpu_flops", "gpu_flops", "branch", "dcache", "icache", "gpu_dcache"}) {
    emit(c, workloads);
  }
  return 0;
}
