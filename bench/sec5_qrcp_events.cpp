// Section V (A-D): events selected by the specialized QRCP per category,
// with an ablation against classic max-norm pivoting (Algorithm 1).
//
// Usage: sec5_qrcp_events [category] [--pivot=maxnorm]
//   category: cpu_flops|gpu_flops|branch|dcache|icache|gpu_dcache
//   (default: all)
//   --pivot=maxnorm: additionally show what the classic rule would select,
//   demonstrating the Section II failure mode (cycle-like columns first).
// Any other flag, a second category or an unknown one prints the usage
// and exits 2.
#include <algorithm>
#include <array>
#include <iostream>

#include "harness_common.hpp"

using namespace catalyst;

namespace {

constexpr std::array<const char*, 6> kCategories = {
    "cpu_flops", "gpu_flops", "branch", "dcache", "icache", "gpu_dcache"};

void emit(const std::string& which, bool show_maxnorm) {
  const auto category = bench::make_category(which);
  const auto result = bench::run_category(category);

  std::cout << "== Section V: " << which << " (alpha = "
            << category.options.alpha << ") ==\n"
            << core::format_selected_events(result);

  if (show_maxnorm) {
    // Ablation: classic max-norm pivoting on the same X under the same
    // alpha and beta cutoff.
    const auto classic = core::specialized_qrcp(
        result.projection.x, category.options.alpha, core::PivotRule::max_norm);
    std::cout << "\nClassic max-norm QRCP (Algorithm 1) would select, in "
                 "order:\n";
    for (linalg::index_t i = 0; i < classic.rank; ++i) {
      std::cout << "  [" << i << "] "
                << result.x_event(
                       classic.selected[static_cast<std::size_t>(i)])
                << "\n";
    }
    std::cout << "(note the preference for large-norm aggregate columns over "
                 "basis-aligned events)\n";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string which = "all";
  bool maxnorm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool known_category =
        std::find(kCategories.begin(), kCategories.end(), arg) !=
        kCategories.end();
    if (arg == "--pivot=maxnorm") {
      maxnorm = true;
    } else if (known_category && which == "all") {
      which = arg;
    } else {
      std::cerr << "usage: sec5_qrcp_events [cpu_flops|gpu_flops|branch|"
                   "dcache|icache|gpu_dcache] [--pivot=maxnorm]\n";
      return 2;
    }
  }
  if (which != "all") {
    emit(which, maxnorm);
    return 0;
  }
  for (const char* c : kCategories) emit(c, maxnorm);
  return 0;
}
