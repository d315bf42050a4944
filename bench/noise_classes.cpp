// Noise-class census (future-work extension): classify every event's
// run-to-run behaviour per category, summarize the census, and list the
// non-trivial classes.  Complements Fig. 2's single max-RNMSE number.
//
// Usage: noise_classes [category]
#include <iomanip>
#include <iostream>
#include <map>

#include "core/noise_classify.hpp"
#include "harness_common.hpp"

using namespace catalyst;

namespace {

void emit(const std::string& which) {
  auto category = bench::make_category(which);
  category.options.repetitions = 6;  // more reps give the classifier teeth
  const auto result = bench::run_category(category);

  std::map<core::NoiseClass, std::size_t> census;
  std::vector<std::pair<std::string, core::NoiseProfile>> interesting;
  for (std::size_t e = 0; e < result.all_event_names.size(); ++e) {
    const auto profile = core::classify_noise(result.measurements, e);
    ++census[profile.cls];
    if (profile.cls == core::NoiseClass::drifting) {
      interesting.emplace_back(result.all_event_names[e], profile);
    }
  }

  std::cout << "== noise-class census: " << which << " ("
            << result.all_event_names.size() << " events, "
            << category.options.repetitions << " repetitions) ==\n";
  for (const auto& [cls, count] : census) {
    std::cout << "  " << std::left << std::setw(14) << core::to_string(cls)
              << count << "\n";
  }
  if (!interesting.empty()) {
    std::cout << "  drifting events (candidates for detrending instead of "
                 "discarding):\n";
    for (const auto& [name, profile] : interesting) {
      std::cout << "    " << std::left << std::setw(40) << name
                << " corr=" << std::setprecision(3)
                << profile.drift_correlation
                << " magnitude=" << profile.drift_magnitude << "\n";
    }
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    emit(argv[1]);
    return 0;
  }
  for (const char* c :
       {"cpu_flops", "gpu_flops", "branch", "dcache", "icache", "gpu_dcache"}) {
    emit(c);
  }
  return 0;
}
