// catalyst/cachesim -- set-associative LRU cache level and hierarchy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cachesim/config.hpp"

namespace catalyst::cachesim {

/// Demand-access statistics for one level.
struct LevelStats {
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t prefetches_issued = 0;  ///< Lines installed by prefetching.
  std::uint64_t accesses() const { return demand_hits + demand_misses; }
};

/// One set-associative cache level with true-LRU replacement.
///
/// Addresses are byte addresses; the level indexes by
/// (addr / line_bytes) % num_sets and tags by addr / line_bytes.
class CacheLevel {
 public:
  explicit CacheLevel(const LevelConfig& config);

  const LevelConfig& config() const noexcept { return config_; }
  const LevelStats& stats() const noexcept { return stats_; }

  /// Demand access.  Returns true on hit.  On miss the line is installed
  /// (allocate-on-miss), possibly evicting the LRU way.
  bool access(std::uint64_t addr);

  /// Probes without updating LRU or stats (for assertions in tests).
  bool contains(std::uint64_t addr) const;

 private:
  // Stamps come from a clock that is bumped before every use, so a valid
  // way's stamp is never 0 and the smallest stamp in a set is its first
  // invalid way, else its least recently used one.
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru_stamp = 0;  // larger == more recently used; 0 == invalid
  };

  std::size_t set_of(std::uint64_t line) const noexcept {
    return (line & set_mask_) * config_.associativity;
  }

  /// One scan of the line's set: the way holding `line`, or nullptr with
  /// `*victim` set to the way a fill would replace.
  Way* lookup(std::uint64_t line, Way** victim) noexcept;

  LevelConfig config_;
  std::uint64_t set_mask_;
  std::uint32_t line_shift_;
  std::uint64_t clock_ = 0;
  std::vector<Way> ways_;  // num_sets * associativity, set-major
  LevelStats stats_;
};

/// A multi-level hierarchy with non-inclusive, allocate-everywhere fills:
/// a demand access probes L1, then L2, ... until it hits (or misses to
/// memory), installing the line into every level it missed in.
///
/// This matches the counting semantics of the events the paper analyzes:
/// MEM_LOAD_RETIRED:L1_HIT / L1_MISS, L2 demand hits, L3 hits -- each level
/// only sees the demand stream filtered by the levels above it.
class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& config);

  std::size_t num_levels() const noexcept { return levels_.size(); }
  const CacheLevel& level(std::size_t i) const { return levels_.at(i); }

  /// Result of a demand access: index of the level that hit, or nullopt if
  /// the access missed all the way to memory.
  std::optional<std::size_t> access(std::uint64_t addr);

  /// Total demand accesses that missed every level (served by memory).
  std::uint64_t memory_accesses() const noexcept { return memory_accesses_; }

 private:
  std::vector<CacheLevel> levels_;
  std::uint64_t memory_accesses_ = 0;
};

}  // namespace catalyst::cachesim
