#include "cat/icache.hpp"

#include <cmath>
#include <stdexcept>

#include "cachesim/pointer_chase.hpp"
#include "pmu/signals.hpp"

namespace catalyst::cat {

IcacheOptions::IcacheOptions() {
  hierarchy.levels = {
      cachesim::LevelConfig{"L1I", 32u * 1024u, 64, 8},
      cachesim::LevelConfig{"L2", 2u * 1024u * 1024u, 64, 16},
      cachesim::LevelConfig{"L3", 8u * 1024u * 1024u, 64, 16},
  };
}

Benchmark icache_benchmark(const IcacheOptions& options) {
  namespace sig = pmu::sig;
  if (options.hierarchy.levels.size() != 3) {
    throw std::invalid_argument("icache_benchmark: need a 3-level hierarchy");
  }
  if (options.footprints_bytes.empty()) {
    throw std::invalid_argument("icache_benchmark: no footprints");
  }

  Benchmark bench;
  bench.name = "cat-icache";
  bench.basis.labels = {"L1IM", "L1IH", "L2IH"};
  bench.basis.ideal_events = {
      {"L1IM", "Ideal event: L1I fetch misses",
       {{sig::l1i_miss, 1.0}}, pmu::NoiseModel::none()},
      {"L1IH", "Ideal event: L1I fetch hits",
       {{sig::l1i_hit, 1.0}}, pmu::NoiseModel::none()},
      {"L2IH", "Ideal event: instruction fetches served by L2",
       {{sig::l2i_hit, 1.0}}, pmu::NoiseModel::none()},
  };
  const auto n_slots =
      static_cast<linalg::index_t>(options.footprints_bytes.size());
  bench.basis.e = linalg::Matrix(n_slots, 3);

  const std::uint64_t l1i_capacity = options.hierarchy.levels[0].size_bytes;

  for (linalg::index_t s = 0; s < n_slots; ++s) {
    const std::uint64_t footprint =
        options.footprints_bytes[static_cast<std::size_t>(s)];
    const std::uint64_t lines =
        std::max<std::uint64_t>(1, footprint / options.fetch_bytes);

    // Idealized expectations: footprints within L1I hit it; larger ones
    // miss L1I on (nearly) every fetch.  Whether the L2 serves them is a
    // capacity question answered the same way one level up.
    const bool fits_l1 = footprint <= l1i_capacity;
    const bool fits_l2 = footprint <= options.hierarchy.levels[1].size_bytes;
    bench.basis.e(s, 0) = fits_l1 ? 0.0 : 1.0;
    bench.basis.e(s, 1) = fits_l1 ? 1.0 : 0.0;
    bench.basis.e(s, 2) = (!fits_l1 && fits_l2) ? 1.0 : 0.0;

    // Ground truth: the fetch stream is a sequential chase, one pointer
    // per fetch line, looped over the footprint.
    cachesim::ChaseConfig fetch;
    fetch.num_pointers = lines;
    fetch.stride_bytes = options.fetch_bytes;
    fetch.order = cachesim::ChainOrder::sequential;
    fetch.warmup_traversals = options.warmup_traversals;
    fetch.measured_traversals = options.measured_traversals;
    const auto res = run_chase(options.hierarchy, fetch);
    const double fetches = static_cast<double>(res.total_accesses);
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

    KernelSlot slot;
    slot.name = "icache/fp" + std::to_string(footprint / 1024) + "K";
    slot.normalizer = fetches;
    pmu::Activity act;
    act[sig::l1i_hit] = count(res.level_stats[0].demand_hits);
    act[sig::l1i_miss] = count(res.level_stats[0].demand_misses);
    act[sig::l2i_hit] = count(res.level_stats[1].demand_hits);
    act[sig::l2i_miss] = count(res.level_stats[1].demand_misses);
    // Straight-line code: ~4 instructions per fetched 16-byte window.
    act[sig::instructions] = std::round(fetches * 16.0);
    act[sig::uops] = std::round(fetches * 17.5);
    act[sig::branch_cond_retired] = std::round(fetches / 8.0);
    act[sig::branch_cond_taken] = std::round(fetches / 8.0) - 1.0;
    act[sig::cycles] = std::round(4.0 * fetches + 30.0 * act[sig::l1i_miss]);
    slot.thread_activities.push_back(std::move(act));
    bench.slots.push_back(std::move(slot));
  }
  return bench;
}

}  // namespace catalyst::cat
