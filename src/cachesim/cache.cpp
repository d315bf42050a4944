#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>

namespace catalyst::cachesim {

CacheLevel::CacheLevel(const LevelConfig& config) : config_(config) {
  config_.validate();
  const std::uint64_t sets = config_.num_sets();
  set_mask_ = sets - 1;
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(config_.line_bytes)));
  ways_.assign(sets * config_.associativity, Way{});
}

CacheLevel::Way* CacheLevel::lookup(std::uint64_t line,
                                    Way** victim) noexcept {
  Way* set = ways_.data() + set_of(line);
  Way* lru = set;
  for (std::uint32_t w = 0; w < config_.associativity; ++w) {
    if (set[w].lru_stamp != 0 && set[w].tag == line) return &set[w];
    if (set[w].lru_stamp < lru->lru_stamp) lru = &set[w];
  }
  *victim = lru;
  return nullptr;
}

bool CacheLevel::access(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  ++clock_;
  Way* victim = nullptr;
  if (Way* w = lookup(line, &victim)) {
    w->lru_stamp = clock_;
    ++stats_.demand_hits;
    return true;
  }
  ++stats_.demand_misses;
  *victim = Way{line, clock_};
  if (config_.prefetch == PrefetchPolicy::next_line) {
    // Install the next `prefetch_degree` sequential lines (if absent)
    // without touching the demand statistics -- a simple hardware streamer.
    for (std::uint32_t d = 1; d <= config_.prefetch_degree; ++d) {
      const std::uint64_t next = line + d;
      ++clock_;
      if (lookup(next, &victim) == nullptr) {
        *victim = Way{next, clock_};
        ++stats_.prefetches_issued;
      }
    }
  }
  return false;
}

bool CacheLevel::contains(std::uint64_t addr) const {
  const std::uint64_t line = addr >> line_shift_;
  const Way* set = ways_.data() + set_of(line);
  return std::any_of(set, set + config_.associativity, [&](const Way& w) {
    return w.lru_stamp != 0 && w.tag == line;
  });
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig& config) {
  config.validate();
  levels_.reserve(config.levels.size());
  for (const auto& lc : config.levels) levels_.emplace_back(lc);
}

std::optional<std::size_t> CacheHierarchy::access(std::uint64_t addr) {
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].access(addr)) {
      return i;
    }
  }
  ++memory_accesses_;
  return std::nullopt;
}

}  // namespace catalyst::cachesim
