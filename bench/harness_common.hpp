// Shared setup for the bench harness binaries: one category -- its
// machine, benchmark, signatures and thresholds -- exactly as the service
// catalog (src/service/catalog.hpp) defines it for the CLI and catalystd.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"
#include "service/catalog.hpp"

namespace catalyst::bench {

struct Category {
  std::string name;
  pmu::Machine machine;
  cat::Benchmark benchmark;
  std::vector<core::MetricSignature> signatures;
  core::PipelineOptions options;
};

/// The catalog's setup of `which` on its default machine.
inline Category make_category(const std::string& which) {
  auto setup = service::category_setup(which);
  if (!setup) {
    throw std::invalid_argument(
        "unknown category '" + which +
        "' (expected cpu_flops|gpu_flops|branch|dcache|icache|gpu_dcache)");
  }
  return {which, *service::machine_by_name(setup->default_machine),
          std::move(setup->benchmark), std::move(setup->signatures),
          setup->options};
}

inline core::PipelineResult run_category(const Category& cat) {
  return core::run_pipeline(cat.machine, cat.benchmark, cat.signatures,
                            cat.options);
}

}  // namespace catalyst::bench
