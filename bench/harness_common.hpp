// Shared setup for the bench harness binaries: one canonical configuration
// per benchmark category, matching the thresholds the paper reports
// (tau = 1e-10 / alpha = 5e-4 for compute events; tau = 1e-1 / alpha = 5e-2
// for the data cache), and the one number parser their flags go through.
#pragma once

#include <charconv>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::bench {

/// Reads all of `text` as one number with std::from_chars: no leading '+'
/// or blank, no trailing junk, no "-1" wrapped into an unsigned.  Returns
/// false and leaves `out` alone when the text is not exactly one number in
/// T's range.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

struct Category {
  std::string name;
  pmu::Machine machine;
  cat::Benchmark benchmark;
  std::vector<core::MetricSignature> signatures;
  core::PipelineOptions options;
};

inline Category make_category(const std::string& which) {
  if (which == "cpu_flops") {
    return {which, pmu::saphira_cpu(), cat::cpu_flops_benchmark(),
            core::cpu_flops_signatures(), core::PipelineOptions{}};
  }
  if (which == "gpu_flops") {
    return {which, pmu::tempest_gpu(), cat::gpu_flops_benchmark(),
            core::gpu_flops_signatures(), core::PipelineOptions{}};
  }
  if (which == "gpu_dcache") {
    return {which, pmu::tempest_gpu(), cat::gpu_dcache_benchmark(),
            core::gpu_dcache_signatures(), [] {
              core::PipelineOptions opt;
              opt.tau = 1e-1;
              opt.alpha = 5e-2;
              opt.projection_max_error = 1e-1;
              opt.fitness_threshold = 5e-2;
              return opt;
            }()};
  }
  if (which == "icache") {
    return {which, pmu::saphira_cpu(), cat::icache_benchmark(),
            core::icache_signatures(), [] {
              core::PipelineOptions opt;
              opt.tau = 1e-1;
              opt.alpha = 5e-2;
              opt.projection_max_error = 1e-1;
              opt.fitness_threshold = 5e-2;
              return opt;
            }()};
  }
  if (which == "branch") {
    return {which, pmu::saphira_cpu(), cat::branch_benchmark(),
            core::branch_signatures(), core::PipelineOptions{}};
  }
  if (which == "dcache") {
    cat::DcacheOptions chase;
    chase.threads = 3;
    core::PipelineOptions opt;
    opt.tau = 1e-1;
    opt.alpha = 5e-2;
    opt.projection_max_error = 1e-1;
    opt.fitness_threshold = 5e-2;
    return {which, pmu::saphira_cpu(), cat::dcache_benchmark(chase),
            core::dcache_signatures(), opt};
  }
  throw std::invalid_argument(
      "unknown category '" + which +
      "' (expected cpu_flops|gpu_flops|branch|dcache|icache|gpu_dcache)");
}

inline core::PipelineResult run_category(const Category& cat) {
  return core::run_pipeline(cat.machine, cat.benchmark, cat.signatures,
                            cat.options);
}

}  // namespace catalyst::bench
