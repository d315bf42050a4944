// catalyst/cat -- the instruction-cache benchmark (CAT extension).
//
// The paper evaluates four CAT benchmarks; the real Counter Analysis
// Toolkit also ships an instruction-cache stressor, reproduced here as the
// library's fifth category.  Kernels are straight-line code blocks of
// controlled byte footprint executed in a loop: footprints inside the L1I
// fetch entirely from it, larger footprints stream from L2/L3.  The
// expectation basis spans (L1IM, L1IH, L2IH): L1 instruction-fetch demand
// misses/hits and instruction fetches served by L2.
//
// Ground truth comes from the cache model: the fetch stream (sequential
// line addresses over the footprint, looped) is a sequential run_chase on
// an L1I/L2/L3 hierarchy.  Sequential cyclic access over an LRU cache
// larger than capacity is the worst case (near-zero hits), giving the
// sharp capacity cliffs instruction benchmarks are known for.
#pragma once

#include "cachesim/config.hpp"
#include "cat/benchmark.hpp"

namespace catalyst::cat {

/// Options for the instruction-cache benchmark.
struct IcacheOptions {
  /// Code footprints to sweep, two per regime by default
  /// (L1I = 32 KiB, L2 = 2 MiB, L3 = 8 MiB in the default hierarchy).
  std::vector<std::uint64_t> footprints_bytes = {
      8u * 1024,        16u * 1024,        // L1I regime
      256u * 1024,      1024u * 1024,      // L2 regime
      4u * 1024 * 1024, 6u * 1024 * 1024,  // L3 regime
  };
  std::uint32_t fetch_bytes = 64;  ///< Fetch-line granularity.
  int warmup_traversals = 1;
  int measured_traversals = 2;
  /// Instruction-side hierarchy; defaults to an L1I-flavoured Saphira
  /// (32 KiB / 8-way L1I, shared L2/L3).
  cachesim::HierarchyConfig hierarchy;

  IcacheOptions();
};

/// Builds the benchmark: one slot per footprint plus the 3-column basis.
Benchmark icache_benchmark(const IcacheOptions& options = {});

}  // namespace catalyst::cat
