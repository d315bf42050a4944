// catalyst/cat -- the data-cache benchmark (Section III-E).
//
// A pointer chase over buffers whose footprints land in the L1, L2, L3 and
// memory regimes, at two strides (64 B and 128 B), with several concurrent
// threads chasing disjoint buffers (the paper keeps the median reading
// across threads to suppress noise).  Unlike the compute benchmarks, the
// ground-truth activity here comes from the cache model: each slot's
// cachesim::run_chase (exact LRU counts, in closed form for the caches and
// per access for the TLB) gives the per-level demand hit/miss signals.
//
// The expectation basis (L1DM, L1DH, L2DH, L3DH) holds the idealized
// per-access counts: 1.0 for the level that serves the regime's accesses,
// 0 elsewhere.  Real (simulated) measurements deviate from the ideal near
// capacity boundaries -- the noise that motivates the lenient tau = 1e-1
// and the coefficient rounding of Table VIII.
#pragma once

#include <cstdint>

#include "cachesim/config.hpp"
#include "cat/benchmark.hpp"

namespace catalyst::cat {

/// Options for building the data-cache benchmark.
struct DcacheOptions {
  /// Concurrent chase threads on disjoint buffers.
  int threads = 4;
  /// Strides to sweep (bytes).
  std::vector<std::uint32_t> strides = {64, 128};
  /// Footprints per cache regime, as fractions of the level capacity:
  /// two points inside each of L1, L2, L3, plus two memory-regime points
  /// as multiples of L3.
  std::vector<double> level_fractions = {0.35, 0.7};
  std::vector<double> memory_multiples = {3.0, 4.0};
  /// Chase traversal counts.
  int warmup_traversals = 1;
  int measured_traversals = 1;
  /// Base seed for chain permutations (thread t uses seed + t).
  std::uint64_t seed = 2024;
  /// Cache geometry to chase against.
  cachesim::HierarchyConfig hierarchy = cachesim::HierarchyConfig::saphira();
};

/// Human-readable regime of a slot index ("L1", "L2", "L3", "M").
struct DcacheSlotInfo {
  std::string regime;
  std::uint32_t stride_bytes;
  std::uint64_t num_pointers;
};

/// Builds the data-cache benchmark by running the pointer chase on the
/// simulated hierarchy.  Slot order: for each stride, the regimes
/// L1, L2, L3, M (each with one slot per fraction/multiple).
Benchmark dcache_benchmark(const DcacheOptions& options = {});

/// Slot metadata parallel to dcache_benchmark().slots.
std::vector<DcacheSlotInfo> dcache_slot_info(const DcacheOptions& options = {});

}  // namespace catalyst::cat
