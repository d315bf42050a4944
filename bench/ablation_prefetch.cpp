// Ablation: why CAT chases pointers in RANDOM order (DESIGN.md decision
// context for the data-cache benchmark).
//
// With a next-line prefetcher enabled, a sequential scan of a buffer far
// larger than the cache still shows a high "hit" rate -- the prefetcher
// hides the misses, and a naive benchmark would mis-attribute the buffer to
// the wrong level.  The random single-cycle chase defeats the prefetcher,
// so hits/misses reflect true capacity.  This bench prints the L1 demand
// hit ratio for both access orders, with and without prefetching, across
// the capacity regimes.
#include <iomanip>
#include <iostream>

#include "cachesim/cachesim.hpp"

using namespace catalyst::cachesim;

namespace {

double l1_hit_ratio(PrefetchPolicy policy, ChainOrder order,
                    std::uint64_t num_pointers) {
  HierarchyConfig cfg = HierarchyConfig::saphira();
  for (auto& level : cfg.levels) {
    level.prefetch = policy;
    level.prefetch_degree = 4;  // a typical streamer depth
  }
  ChaseConfig chase;
  chase.num_pointers = num_pointers;
  chase.stride_bytes = 64;
  chase.order = order;
  chase.warmup_traversals = 1;
  chase.measured_traversals = 2;
  const auto res = run_chase(cfg, chase);
  return static_cast<double>(res.level_stats[0].demand_hits) /
         static_cast<double>(res.total_accesses);
}

}  // namespace

int main() {
  std::cout << "L1 demand hit ratio by access order and prefetch policy\n";
  std::cout << "# footprint | seq/no-pf | seq/next-line | rand/no-pf | "
               "rand/next-line\n"
            << std::fixed << std::setprecision(3);
  // Footprints: inside L1, in L2, in L3 (stride 64 B).
  const struct {
    const char* label;
    std::uint64_t pointers;
  } cases[] = {
      {"24 KiB (fits L1)", 24ull * 1024 / 64},
      {"512 KiB (fits L2)", 512ull * 1024 / 64},
      {"6 MiB (fits L3)", 6ull * 1024 * 1024 / 64},
  };
  for (const auto& c : cases) {
    std::cout << std::left << std::setw(20) << c.label << " | "
              << l1_hit_ratio(PrefetchPolicy::none, ChainOrder::sequential,
                              c.pointers)
              << " | "
              << l1_hit_ratio(PrefetchPolicy::next_line,
                              ChainOrder::sequential, c.pointers)
              << " | "
              << l1_hit_ratio(PrefetchPolicy::none, ChainOrder::random_cycle,
                              c.pointers)
              << " | "
              << l1_hit_ratio(PrefetchPolicy::next_line,
                              ChainOrder::random_cycle, c.pointers)
              << "\n";
  }
  std::cout << "\nA degree-4 streamer turns a capacity-bound sequential scan\n"
               "into ~80% L1 'hits', hiding the working-set size; the random\n"
               "chase is immune, which is why CAT uses it.\n";
  return 0;
}
