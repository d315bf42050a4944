#include "cachesim/pointer_chase.hpp"

#include <bit>
#include <random>
#include <stdexcept>

namespace catalyst::cachesim {

namespace {

// Walks the chain `traversals` times through `sim`, one access at a time.
template <typename Sim>
void walk(Sim& sim, const std::vector<std::uint64_t>& chain, int traversals) {
  for (int t = 0; t < traversals; ++t) {
    for (std::uint64_t a : chain) sim.access(a);
  }
}

// The per-access path.  A measured access served by level h missed every
// level above it; one served by no level went to memory.
ChaseResult simulate_caches(const std::vector<std::uint64_t>& chain,
                            const HierarchyConfig& config,
                            const ChaseConfig& chase) {
  CacheHierarchy sim(config);
  walk(sim, chain, chase.warmup_traversals);
  ChaseResult res;
  res.level_stats.resize(sim.num_levels());
  for (int t = 0; t < chase.measured_traversals; ++t) {
    for (std::uint64_t a : chain) {
      const std::optional<std::size_t> served = sim.access(a);
      for (std::size_t k = 0; k < served.value_or(sim.num_levels()); ++k) {
        ++res.level_stats[k].demand_misses;
      }
      ++(served ? res.level_stats[*served].demand_hits : res.memory_accesses);
    }
  }
  res.total_accesses =
      static_cast<std::uint64_t>(chase.measured_traversals) * chain.size();
  return res;
}

}  // namespace

std::vector<std::uint64_t> build_chain(const ChaseConfig& config) {
  if (config.num_pointers == 0) {
    throw std::invalid_argument("build_chain: empty chain");
  }
  if (config.stride_bytes == 0) {
    throw std::invalid_argument("build_chain: zero stride");
  }
  std::vector<std::uint64_t> addrs(config.num_pointers);
  for (std::uint64_t i = 0; i < config.num_pointers; ++i) {
    addrs[i] = config.base_addr + i * config.stride_bytes;
  }
  if (config.order == ChainOrder::random_cycle) {
    // Sattolo's algorithm: a uniform random cyclic permutation.  Walking
    // the resulting order visits every element exactly once per traversal
    // with no short cycles, mirroring how CAT builds its chase buffer.
    std::mt19937_64 rng(config.seed);
    for (std::uint64_t i = config.num_pointers - 1; i > 0; --i) {
      std::uniform_int_distribution<std::uint64_t> pick(0, i - 1);
      std::swap(addrs[i], addrs[pick(rng)]);
    }
  }
  return addrs;
}

std::optional<ChaseResult> chase_counts(std::span<const std::uint64_t> chain,
                                        const HierarchyConfig& hierarchy,
                                        const ChaseConfig& config) {
  hierarchy.validate();
  if (config.warmup_traversals < 0 || config.measured_traversals <= 0) {
    throw std::invalid_argument("pointer chase: bad traversal counts");
  }
  const std::vector<LevelConfig>& levels = hierarchy.levels;
  if (config.stride_bytes % levels[0].line_bytes != 0) return std::nullopt;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    if (levels[k].prefetch != PrefetchPolicy::none) return std::nullopt;
    if (k > 0 && levels[k].num_sets() < levels[k - 1].num_sets()) {
      return std::nullopt;
    }
  }

  // Lines per outermost set, from one pass over the chain.  That is the
  // finest partition: set s of an inner level holds every outermost set
  // congruent to s.
  const int line_shift = std::countr_zero(levels[0].line_bytes);
  std::vector<std::uint64_t> finest(levels.back().num_sets(), 0);
  for (std::uint64_t a : chain) {
    ++finest[(a >> line_shift) & (finest.size() - 1)];
  }

  // Per steady traversal, a set that receives its lines hits on all of
  // them when they fit its ways, else misses on all and passes them on.
  // With no warm-up the first measured traversal is cold: it misses at
  // every level and reaches memory.
  const std::uint64_t n = chain.size();
  const std::uint64_t cold = config.warmup_traversals == 0 ? 1 : 0;
  const auto steady =
      static_cast<std::uint64_t>(config.measured_traversals) - cold;
  ChaseResult res;
  res.level_stats.resize(levels.size());
  std::vector<char> receives = {1};  // every line reaches L1
  std::uint64_t missed = 0;
  for (std::size_t k = 0; k < levels.size(); ++k) {
    std::vector<std::uint64_t> lines(levels[k].num_sets(), 0);
    for (std::size_t s = 0; s < finest.size(); ++s) {
      lines[s & (lines.size() - 1)] += finest[s];
    }
    std::vector<char> passes_on(lines.size(), 0);
    std::uint64_t hits = 0;
    missed = 0;
    for (std::size_t s = 0; s < lines.size(); ++s) {
      if (!receives[s & (receives.size() - 1)]) continue;
      if (lines[s] <= levels[k].associativity) {
        hits += lines[s];
      } else {
        missed += lines[s];
        passes_on[s] = 1;
      }
    }
    res.level_stats[k].demand_hits = steady * hits;
    res.level_stats[k].demand_misses = steady * missed + cold * n;
    receives = std::move(passes_on);
  }
  res.memory_accesses = steady * missed + cold * n;
  res.total_accesses =
      static_cast<std::uint64_t>(config.measured_traversals) * n;
  return res;
}

ChaseResult run_chase(const HierarchyConfig& hierarchy,
                      const ChaseConfig& config, const TlbConfig* tlb) {
  const std::vector<std::uint64_t> chain = build_chain(config);
  std::optional<ChaseResult> counts = chase_counts(chain, hierarchy, config);
  ChaseResult res = counts ? std::move(*counts)
                           : simulate_caches(chain, hierarchy, config);
  if (tlb != nullptr) {
    TlbHierarchy sim(*tlb);
    walk(sim, chain, config.warmup_traversals);
    const TlbStats warm = sim.stats();
    walk(sim, chain, config.measured_traversals);
    const TlbStats& now = sim.stats();
    res.tlb = {now.l1_hits - warm.l1_hits, now.l1_misses - warm.l1_misses,
               now.l2_hits - warm.l2_hits, now.walks - warm.walks};
  }
  return res;
}

}  // namespace catalyst::cachesim
