#include "cat/dcache.hpp"

#include <cmath>
#include <stdexcept>

#include "cachesim/pointer_chase.hpp"
#include "core/parallel.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {

namespace {

struct SlotPlan {
  std::string regime;
  std::uint32_t stride = 0;
  std::uint64_t num_pointers = 0;
  // Idealized per-access expectations: L1DM, L1DH, L2DH, L3DH.
  double ideal[4] = {0, 0, 0, 0};
};

std::vector<SlotPlan> plan_slots(const DcacheOptions& opt) {
  opt.hierarchy.validate();
  if (opt.hierarchy.levels.size() != 3) {
    throw std::invalid_argument("dcache_benchmark: need a 3-level hierarchy");
  }
  if (opt.threads <= 0) {
    throw std::invalid_argument("dcache_benchmark: need >= 1 thread");
  }
  std::vector<SlotPlan> plans;
  for (std::uint32_t stride : opt.strides) {
    // Regimes L1 / L2 / L3: footprints at the given fractions of each
    // level's capacity (large enough to dominate the level below).
    for (std::size_t lvl = 0; lvl < 3; ++lvl) {
      for (double frac : opt.level_fractions) {
        SlotPlan p;
        p.regime = opt.hierarchy.levels[lvl].name;
        p.stride = stride;
        const double footprint =
            frac * static_cast<double>(opt.hierarchy.levels[lvl].size_bytes);
        p.num_pointers =
            std::max<std::uint64_t>(4, static_cast<std::uint64_t>(
                                           footprint / stride));
        p.ideal[0] = lvl == 0 ? 0.0 : 1.0;  // L1 demand misses
        p.ideal[1] = lvl == 0 ? 1.0 : 0.0;  // L1 demand hits
        p.ideal[2] = lvl == 1 ? 1.0 : 0.0;  // L2 demand hits
        p.ideal[3] = lvl == 2 ? 1.0 : 0.0;  // L3 demand hits
        plans.push_back(p);
      }
    }
    for (double mult : opt.memory_multiples) {
      SlotPlan p;
      p.regime = "M";
      p.stride = stride;
      const double footprint =
          mult * static_cast<double>(opt.hierarchy.levels[2].size_bytes);
      p.num_pointers = static_cast<std::uint64_t>(footprint / stride);
      p.ideal[0] = 1.0;
      plans.push_back(p);
    }
  }
  return plans;
}

}  // namespace

std::vector<DcacheSlotInfo> dcache_slot_info(const DcacheOptions& options) {
  std::vector<DcacheSlotInfo> info;
  for (const auto& p : plan_slots(options)) {
    info.push_back({p.regime, p.stride, p.num_pointers});
  }
  return info;
}

Benchmark dcache_benchmark(const DcacheOptions& options) {
  namespace sig = pmu::sig;
  const auto plans = plan_slots(options);

  Benchmark bench;
  bench.name = "cat-dcache";
  bench.basis.labels = {"L1DM", "L1DH", "L2DH", "L3DH"};
  bench.basis.ideal_events = {
      {"L1DM", "Ideal event: L1D demand misses",
       {{sig::l1d_demand_miss, 1.0}}, pmu::NoiseModel::none()},
      {"L1DH", "Ideal event: L1D demand hits",
       {{sig::l1d_demand_hit, 1.0}}, pmu::NoiseModel::none()},
      {"L2DH", "Ideal event: L2 demand hits",
       {{sig::l2d_demand_hit, 1.0}}, pmu::NoiseModel::none()},
      {"L3DH", "Ideal event: L3 demand hits",
       {{sig::l3d_demand_hit, 1.0}}, pmu::NoiseModel::none()},
  };
  bench.basis.e =
      linalg::Matrix(static_cast<linalg::index_t>(plans.size()), 4);

  bench.slots.resize(plans.size());
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const auto& p = plans[s];
    for (int c = 0; c < 4; ++c) {
      bench.basis.e(static_cast<linalg::index_t>(s), c) = p.ideal[c];
    }
    auto& slot = bench.slots[s];
    slot.name = "dcache/" + p.regime + "/stride" + std::to_string(p.stride) +
                "/n" + std::to_string(p.num_pointers);
    slot.thread_activities.resize(static_cast<std::size_t>(options.threads));
  }

  // Each chase thread has a private hierarchy (core-private L1/L2 and, for
  // simplicity, an L3 slice) and a disjoint buffer; every chase starts
  // cold.  Threads are simulated concurrently, one OS thread per chase
  // thread.
  const cachesim::TlbConfig tlb = cachesim::TlbConfig::saphira();
  auto run_thread = [&](int t) {
    for (std::size_t s = 0; s < plans.size(); ++s) {
      const auto& p = plans[s];
      cachesim::ChaseConfig cfg;
      cfg.num_pointers = p.num_pointers;
      cfg.stride_bytes = p.stride;
      // Disjoint buffers: give each thread its own 1 GiB window.
      cfg.base_addr = static_cast<std::uint64_t>(t) << 30;
      cfg.seed = options.seed + static_cast<std::uint64_t>(t) * 1000 + s;
      cfg.warmup_traversals = options.warmup_traversals;
      cfg.measured_traversals = options.measured_traversals;
      const auto res = run_chase(options.hierarchy, cfg, &tlb);

      const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
      pmu::Activity act;
      const double accesses = count(res.total_accesses);
      act[sig::l1d_demand_hit] = count(res.level_stats[0].demand_hits);
      act[sig::l1d_demand_miss] = count(res.level_stats[0].demand_misses);
      act[sig::l2d_demand_hit] = count(res.level_stats[1].demand_hits);
      act[sig::l2d_demand_miss] = count(res.level_stats[1].demand_misses);
      act[sig::l3d_demand_hit] = count(res.level_stats[2].demand_hits);
      act[sig::l3d_demand_miss] = count(res.memory_accesses);
      act[sig::dtlb_hit] = count(res.tlb.l1_hits);
      act[sig::dtlb_miss] = count(res.tlb.l1_misses);
      act[sig::stlb_hit] = count(res.tlb.l2_hits);
      act[sig::dtlb_walk] = count(res.tlb.walks);
      act[sig::loads] = accesses;
      act[sig::instructions] = std::round(2.2 * accesses);
      act[sig::uops] = std::round(2.5 * accesses);
      // Latency-weighted cycle model: hits get cheaper service than misses.
      act[sig::cycles] = std::round(4.0 * act[sig::l1d_demand_hit] +
                                    14.0 * act[sig::l2d_demand_hit] +
                                    40.0 * act[sig::l3d_demand_hit] +
                                    180.0 * act[sig::l3d_demand_miss]);
      bench.slots[s].thread_activities[static_cast<std::size_t>(t)] =
          std::move(act);
      // Every thread chases the same traversal count, so the normalizer is
      // identical across threads -- but letting them all store it is still
      // a data race.  Thread 0 is the designated writer.
      if (t == 0) bench.slots[s].normalizer = accesses;
    }
  };

  // One unit per simulated benchmark thread; each writes its own
  // thread_activities slot (the shared worker pool's determinism contract).
  core::parallel_for(static_cast<std::size_t>(options.threads),
                     options.threads,
                     [&](std::size_t t) { run_thread(static_cast<int>(t)); });
  return bench;
}

}  // namespace catalyst::cat
