#include "cat/gpu_dcache.hpp"

#include <cmath>
#include <stdexcept>

#include "cachesim/pointer_chase.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {

Benchmark gpu_dcache_benchmark(const GpuDcacheOptions& options) {
  namespace sig = pmu::sig;
  if (options.footprints_bytes.empty()) {
    throw std::invalid_argument("gpu_dcache_benchmark: no footprints");
  }

  Benchmark bench;
  bench.name = "cat-gpu-dcache";
  bench.basis.labels = {"TCCH", "TCCM"};
  bench.basis.ideal_events = {
      {"TCCH", "Ideal event: TCC (GPU L2) hits",
       {{sig::gpu_tcc_hit, 1.0}}, pmu::NoiseModel::none()},
      {"TCCM", "Ideal event: TCC (GPU L2) misses",
       {{sig::gpu_tcc_miss, 1.0}}, pmu::NoiseModel::none()},
  };
  const auto n_slots =
      static_cast<linalg::index_t>(options.footprints_bytes.size());
  bench.basis.e = linalg::Matrix(n_slots, 2);

  cachesim::HierarchyConfig hierarchy_config;
  hierarchy_config.levels = {options.tcc};

  for (linalg::index_t s = 0; s < n_slots; ++s) {
    const std::uint64_t footprint =
        options.footprints_bytes[static_cast<std::size_t>(s)];
    const bool fits = footprint <= options.tcc.size_bytes;
    bench.basis.e(s, 0) = fits ? 1.0 : 0.0;
    bench.basis.e(s, 1) = fits ? 0.0 : 1.0;

    cachesim::ChaseConfig chase;
    chase.num_pointers =
        std::max<std::uint64_t>(4, footprint / options.stride_bytes);
    chase.stride_bytes = options.stride_bytes;
    chase.seed = options.seed + static_cast<std::uint64_t>(s);
    chase.warmup_traversals = options.warmup_traversals;
    chase.measured_traversals = options.measured_traversals;
    const auto res = run_chase(hierarchy_config, chase);

    KernelSlot slot;
    slot.name = "gpu_dcache/fp" + std::to_string(footprint / (1024 * 1024)) +
                "M";
    slot.normalizer = static_cast<double>(res.total_accesses);
    pmu::Activity act;
    act[sig::gpu_tcc_hit] =
        static_cast<double>(res.level_stats[0].demand_hits);
    act[sig::gpu_tcc_miss] =
        static_cast<double>(res.level_stats[0].demand_misses);
    // Kernel scaffolding, as in the GPU-FLOPs benchmark.
    const double accesses = slot.normalizer;
    act[sig::gpu_vmem] = accesses;
    act[sig::gpu_waves] = 64.0;
    act[sig::gpu_salu_total] = std::round(0.3 * accesses);
    act[sig::gpu_cycles] = std::round(40.0 * act[sig::gpu_tcc_hit] +
                                      300.0 * act[sig::gpu_tcc_miss]);
    slot.thread_activities.push_back(std::move(act));
    bench.slots.push_back(std::move(slot));
  }
  return bench;
}

}  // namespace catalyst::cat
