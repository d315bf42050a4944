// catalyst/cachesim -- TLB hierarchy simulator.
//
// The paper's Section II names "events that measure TLB misses" as the
// archetypal all-zero column during FLOPs kernels; for the data-cache
// benchmark, large-footprint chases genuinely miss the TLBs.  This model
// provides the ground truth behind the Saphira DTLB events: a two-level
// translation hierarchy (L1 DTLB + unified STLB) with LRU replacement,
// reusing the set-associative machinery of CacheLevel with page-sized
// "lines".
#pragma once

#include <cstdint>
#include <optional>

#include "cachesim/cache.hpp"

namespace catalyst::cachesim {

/// Geometry of one TLB level.
struct TlbLevelConfig {
  std::string name;              ///< e.g. "DTLB".
  std::uint32_t entries = 64;
  std::uint32_t associativity = 4;
  std::uint32_t page_bytes = 4096;

  /// Equivalent cache geometry (page-sized lines).
  LevelConfig as_cache_config() const {
    return LevelConfig{name,
                       static_cast<std::uint64_t>(entries) * page_bytes,
                       page_bytes, associativity, PrefetchPolicy::none, 1};
  }
};

/// Two-level TLB configuration.
struct TlbConfig {
  TlbLevelConfig l1{"DTLB", 64, 4, 4096};
  TlbLevelConfig l2{"STLB", 2048, 8, 4096};

  void validate() const;

  /// Sapphire-Rapids-flavoured defaults (also the default constructor).
  static TlbConfig saphira() { return {}; }
  /// A tiny TLB (4 + 16 entries, 64 B pages) for fast unit tests.
  static TlbConfig tiny();
};

/// Per-level and walk statistics.
struct TlbStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;   ///< STLB hits (after an L1 miss).
  std::uint64_t walks = 0;     ///< Page walks (missed both levels).
  std::uint64_t accesses() const { return l1_hits + l1_misses; }
};

/// A two-level TLB: translations probe the L1 DTLB, then the STLB, then
/// take a page walk; the translation is installed in both levels on a walk
/// (and promoted into L1 on an STLB hit).
class TlbHierarchy {
 public:
  explicit TlbHierarchy(const TlbConfig& config = TlbConfig::saphira());

  /// Translates one byte address.  Returns the level that hit (0 = DTLB,
  /// 1 = STLB) or nullopt for a page walk.
  std::optional<std::size_t> access(std::uint64_t addr);

  const TlbStats& stats() const noexcept { return stats_; }

 private:
  CacheLevel l1_;
  CacheLevel l2_;
  TlbStats stats_;
};

}  // namespace catalyst::cachesim
