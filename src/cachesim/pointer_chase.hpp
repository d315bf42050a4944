// catalyst/cachesim -- CAT-style pointer-chase workload.
//
// The CAT data-cache benchmark walks a cyclic pointer chain laid out over a
// buffer.  The chain order is a seeded random permutation of the buffer's
// cache blocks so that hardware-style next-line prefetching cannot predict
// it; the footprint (chain size * stride) decides which level of the cache
// hierarchy the steady-state walk hits.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cachesim/cache.hpp"
#include "cachesim/tlb.hpp"

namespace catalyst::cachesim {

/// Order in which the chain visits the buffer's elements.
enum class ChainOrder {
  /// A seeded random single-cycle permutation (CAT's choice): hardware
  /// next-line prefetchers cannot predict the walk, so hit/miss counts
  /// reflect true capacity behaviour.
  random_cycle,
  /// Ascending addresses: a streaming scan, trivially prefetchable.  Used
  /// by the ablation bench that motivates the random order.
  sequential,
};

/// Parameters of one pointer-chase run.
struct ChaseConfig {
  std::uint64_t num_pointers = 0; ///< Chain length (number of elements).
  std::uint32_t stride_bytes = 64;///< Distance between consecutive elements.
  std::uint64_t base_addr = 0;    ///< Starting byte address of the buffer.
  std::uint64_t seed = 1;         ///< Permutation seed.
  int warmup_traversals = 1;      ///< Full-chain walks before counting.
  int measured_traversals = 1;    ///< Full-chain walks that are counted.
  ChainOrder order = ChainOrder::random_cycle;
};

/// Per-level outcome of a measured chase.
struct ChaseResult {
  std::vector<LevelStats> level_stats; ///< One entry per hierarchy level.
  std::uint64_t memory_accesses = 0;   ///< Demand misses past the last level.
  std::uint64_t total_accesses = 0;    ///< Measured demand accesses issued.
  TlbStats tlb;                        ///< Zeroes when no TLB was supplied.
};

/// Builds the cyclic chain as a sequence of byte addresses in chase order.
/// The permutation is a seeded Fisher-Yates shuffle (Sattolo variant, which
/// guarantees a single cycle covering every element).
std::vector<std::uint64_t> build_chain(const ChaseConfig& config);

/// The measured-phase cache counts of a chase over a cold hierarchy, in
/// closed form from per-set occupancy (DESIGN.md, "Closed-form chase
/// counts"): each set sees the same cycle of c lines every traversal, so
/// under LRU it always hits (c <= ways) or always misses.  `chain` is
/// build_chain(config).  Returns nullopt -- simulate instead -- unless no
/// level prefetches, the stride is a multiple of the line size and no level
/// has fewer sets than the one above.  tlb is left zero.  Throws
/// ConfigError / std::invalid_argument for a bad hierarchy / traversal
/// count.
std::optional<ChaseResult> chase_counts(std::span<const std::uint64_t> chain,
                                        const HierarchyConfig& hierarchy,
                                        const ChaseConfig& config);

/// Runs the chase on a cold hierarchy: `warmup_traversals` uncounted walks,
/// then `measured_traversals` counted ones; the result is a pure function
/// of the inputs.  Cache counts come from chase_counts when it applies,
/// else from a per-access walk of a CacheHierarchy.  A non-null `tlb` adds
/// the measured-phase statistics of a per-access TlbHierarchy walk.
ChaseResult run_chase(const HierarchyConfig& hierarchy,
                      const ChaseConfig& config,
                      const TlbConfig* tlb = nullptr);

}  // namespace catalyst::cachesim
