// Unit + property tests for the cache hierarchy simulator.
#include "cachesim/cachesim.hpp"

#include <gtest/gtest.h>

#include <set>

namespace catalyst::cachesim {
namespace {

LevelConfig small_level(std::uint64_t size, std::uint32_t line,
                        std::uint32_t assoc) {
  return LevelConfig{"T", size, line, assoc};
}

TEST(Config, ValidGeometryPasses) {
  EXPECT_NO_THROW(small_level(1024, 64, 4).validate());
  EXPECT_NO_THROW(HierarchyConfig::saphira().validate());
  EXPECT_NO_THROW(HierarchyConfig::tiny().validate());
}

TEST(Config, RejectsZeroFields) {
  EXPECT_THROW(small_level(0, 64, 4).validate(), ConfigError);
  EXPECT_THROW(small_level(1024, 0, 4).validate(), ConfigError);
  EXPECT_THROW(small_level(1024, 64, 0).validate(), ConfigError);
}

TEST(Config, RejectsNonPow2Line) {
  EXPECT_THROW(small_level(960, 48, 4).validate(), ConfigError);
}

TEST(Config, RejectsNonPow2Sets) {
  // 768 B / (64 B * 4) = 3 sets.
  EXPECT_THROW(small_level(768, 64, 4).validate(), ConfigError);
}

TEST(Config, RejectsShrinkingHierarchy) {
  HierarchyConfig h;
  h.levels = {small_level(1024, 64, 4), small_level(512, 64, 4)};
  EXPECT_THROW(h.validate(), ConfigError);
}

TEST(Config, RejectsMixedLineSizes) {
  HierarchyConfig h;
  h.levels = {small_level(1024, 64, 4),
              LevelConfig{"L2", 4096, 32, 4}};
  EXPECT_THROW(h.validate(), ConfigError);
}

TEST(Config, RejectsEmptyHierarchy) {
  HierarchyConfig h;
  EXPECT_THROW(h.validate(), ConfigError);
}

TEST(CacheLevelTest, HitAfterMiss) {
  CacheLevel c(small_level(256, 32, 2));
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(31));  // same line
  EXPECT_FALSE(c.access(32)); // next line
  EXPECT_EQ(c.stats().demand_hits, 2u);
  EXPECT_EQ(c.stats().demand_misses, 2u);
}

TEST(CacheLevelTest, LruEvictionOrder) {
  // 2-way, 32 B lines, 256 B => 4 sets.  Lines 0, 4, 8 map to set 0
  // (line index & 3).  Accessing 0, 4 fills the set; accessing 8 evicts the
  // LRU (line 0).
  CacheLevel c(small_level(256, 32, 2));
  const std::uint64_t a0 = 0 * 32, a4 = 4 * 32, a8 = 8 * 32;
  c.access(a0);
  c.access(a4);
  c.access(a8);
  EXPECT_FALSE(c.contains(a0));
  EXPECT_TRUE(c.contains(a4));
  EXPECT_TRUE(c.contains(a8));
}

TEST(CacheLevelTest, LruUpdatedOnHit) {
  CacheLevel c(small_level(256, 32, 2));
  const std::uint64_t a0 = 0 * 32, a4 = 4 * 32, a8 = 8 * 32;
  c.access(a0);
  c.access(a4);
  c.access(a0);  // refresh a0: now a4 is LRU
  c.access(a8);  // evicts a4
  EXPECT_TRUE(c.contains(a0));
  EXPECT_FALSE(c.contains(a4));
  EXPECT_TRUE(c.contains(a8));
}

TEST(CacheLevelTest, ContainsDoesNotPerturb) {
  CacheLevel c(small_level(256, 32, 2));
  c.access(0);
  const auto hits = c.stats().demand_hits;
  const auto misses = c.stats().demand_misses;
  (void)c.contains(0);
  (void)c.contains(4096);
  EXPECT_EQ(c.stats().demand_hits, hits);
  EXPECT_EQ(c.stats().demand_misses, misses);
}

TEST(CacheLevelTest, WorkingSetWithinCapacityAllHitsSteadyState) {
  // 8 lines capacity; touch 8 distinct lines twice: second pass all hits.
  CacheLevel c(small_level(256, 32, 2));
  for (std::uint64_t i = 0; i < 8; ++i) c.access(i * 32);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(c.access(i * 32));
}

TEST(Hierarchy, MissesPropagateToOuterLevels) {
  CacheHierarchy h(HierarchyConfig::tiny());
  auto lvl = h.access(0);
  EXPECT_FALSE(lvl.has_value());  // cold miss goes to memory
  EXPECT_EQ(h.memory_accesses(), 1u);
  lvl = h.access(0);
  ASSERT_TRUE(lvl.has_value());
  EXPECT_EQ(*lvl, 0u);  // L1 hit
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  // tiny(): L1 = 8 lines, L2 = 32 lines, line = 32 B.
  CacheHierarchy h(HierarchyConfig::tiny());
  // Touch 16 distinct lines: fits L2, overflows L1.
  for (std::uint64_t i = 0; i < 16; ++i) h.access(i * 32);
  // Second pass: L1 can hold at most 8 of the 16, so there must be L2 hits
  // and no memory accesses.
  const std::uint64_t mem_before = h.memory_accesses();
  std::uint64_t l2_hits = 0;
  for (std::uint64_t i = 0; i < 16; ++i) {
    auto lvl = h.access(i * 32);
    ASSERT_TRUE(lvl.has_value());
    if (*lvl == 1) ++l2_hits;
  }
  EXPECT_GT(l2_hits, 0u);
  EXPECT_EQ(h.memory_accesses(), mem_before);
}

TEST(Hierarchy, StatsAreFiltered) {
  // L2 only sees L1 misses: total L2 accesses == L1 misses.
  CacheHierarchy h(HierarchyConfig::tiny());
  for (std::uint64_t i = 0; i < 64; ++i) h.access((i % 24) * 32);
  EXPECT_EQ(h.level(1).stats().accesses(), h.level(0).stats().demand_misses);
  EXPECT_EQ(h.level(2).stats().accesses(), h.level(1).stats().demand_misses);
  EXPECT_EQ(h.memory_accesses(), h.level(2).stats().demand_misses);
}

TEST(Chain, BuildChainIsSingleCycleCoveringAllElements) {
  ChaseConfig cfg;
  cfg.num_pointers = 97;
  cfg.stride_bytes = 64;
  cfg.seed = 5;
  auto chain = build_chain(cfg);
  ASSERT_EQ(chain.size(), 97u);
  std::set<std::uint64_t> uniq(chain.begin(), chain.end());
  EXPECT_EQ(uniq.size(), 97u);
  for (std::uint64_t a : chain) {
    EXPECT_EQ(a % 64, 0u);
    EXPECT_LT(a, 97u * 64u);
  }
}

TEST(Chain, DeterministicForSameSeed) {
  ChaseConfig cfg;
  cfg.num_pointers = 64;
  cfg.seed = 42;
  EXPECT_EQ(build_chain(cfg), build_chain(cfg));
  cfg.seed = 43;
  auto other = build_chain(cfg);
  ChaseConfig cfg42 = cfg;
  cfg42.seed = 42;
  EXPECT_NE(other, build_chain(cfg42));
}

TEST(Chain, RejectsDegenerateConfigs) {
  ChaseConfig cfg;
  cfg.num_pointers = 0;
  EXPECT_THROW(build_chain(cfg), std::invalid_argument);
  cfg.num_pointers = 4;
  cfg.stride_bytes = 0;
  EXPECT_THROW(build_chain(cfg), std::invalid_argument);
}

TEST(Chase, FitsInL1AllL1Hits) {
  ChaseConfig cfg;
  cfg.num_pointers = 8;  // 8 * 32 B = 256 B = exactly L1 capacity
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 2;
  cfg.measured_traversals = 4;
  auto res = run_chase(HierarchyConfig::tiny(), cfg);
  EXPECT_EQ(res.total_accesses, 32u);
  EXPECT_EQ(res.level_stats[0].demand_hits, 32u);
  EXPECT_EQ(res.level_stats[0].demand_misses, 0u);
  EXPECT_EQ(res.memory_accesses, 0u);
}

TEST(Chase, L2RegimeMostlyL2Hits) {
  ChaseConfig cfg;
  cfg.num_pointers = 24;  // 768 B: > L1 (256 B), < L2 (1 KiB)
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 3;
  cfg.measured_traversals = 4;
  auto res = run_chase(HierarchyConfig::tiny(), cfg);
  // Beyond L1 capacity a random single-cycle chase mostly misses L1...
  EXPECT_GT(res.level_stats[0].demand_misses, res.level_stats[0].demand_hits);
  // ...and is served by L2 with no memory traffic.
  EXPECT_EQ(res.memory_accesses, 0u);
  EXPECT_GT(res.level_stats[1].demand_hits, 0u);
}

TEST(Chase, MemoryRegimeReachesMemory) {
  ChaseConfig cfg;
  cfg.num_pointers = 1024;  // 32 KiB >> L3 (4 KiB)
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 1;
  cfg.measured_traversals = 2;
  auto res = run_chase(HierarchyConfig::tiny(), cfg);
  EXPECT_GT(res.memory_accesses, res.total_accesses / 2);
}

TEST(Chase, ConservationAcrossLevels) {
  // Every measured access either hits some level or reaches memory.
  ChaseConfig cfg;
  cfg.num_pointers = 100;
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 2;
  cfg.measured_traversals = 3;
  auto res = run_chase(HierarchyConfig::tiny(), cfg);
  std::uint64_t hits = 0;
  for (const auto& ls : res.level_stats) hits += ls.demand_hits;
  EXPECT_EQ(hits + res.memory_accesses, res.total_accesses);
}

TEST(Chase, StrideAffectsFootprint) {
  // Same pointer count, doubled stride => doubled footprint: a chain that
  // fits L1 at stride 32 spills at stride 64 when it exceeds capacity.
  ChaseConfig cfg;
  cfg.num_pointers = 8;
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 2;
  cfg.measured_traversals = 2;
  auto res32 = run_chase(HierarchyConfig::tiny(), cfg);
  cfg.stride_bytes = 64;  // footprint 512 B > L1 but lines are 32 B:
                          // 8 distinct lines still fit 8-line L1.
  auto res64 = run_chase(HierarchyConfig::tiny(), cfg);
  // Stride 32 packs the 8 elements into all 4 sets: everything fits L1.
  EXPECT_EQ(res32.level_stats[0].demand_misses, 0u);
  // Stride 64 skips every other set: the 8 lines land in only 2 of the 4
  // sets (2-way each), so L1 thrashes even though raw capacity would fit --
  // the classic power-of-two-stride conflict-miss pathology.
  EXPECT_GT(res64.level_stats[0].demand_misses, 0u);
  EXPECT_EQ(res64.memory_accesses + res64.level_stats[2].demand_hits +
                res64.level_stats[1].demand_hits +
                res64.level_stats[0].demand_hits,
            res64.total_accesses);
}

TEST(Prefetch, NextLinePrefetchInstallsWithoutDemandCount) {
  LevelConfig cfg = small_level(256, 32, 2);
  cfg.prefetch = PrefetchPolicy::next_line;
  CacheLevel c(cfg);
  EXPECT_FALSE(c.access(0));         // miss on line 0, prefetches line 1
  EXPECT_EQ(c.stats().prefetches_issued, 1u);
  EXPECT_TRUE(c.contains(32));       // line 1 resident
  EXPECT_TRUE(c.access(32));         // and hits on demand
  EXPECT_EQ(c.stats().demand_misses, 1u);
}

TEST(Prefetch, DegreeControlsLinesFetchedAhead) {
  LevelConfig cfg = small_level(1024, 32, 4);
  cfg.prefetch = PrefetchPolicy::next_line;
  cfg.prefetch_degree = 3;
  CacheLevel c(cfg);
  c.access(0);
  EXPECT_EQ(c.stats().prefetches_issued, 3u);
  EXPECT_TRUE(c.contains(32));
  EXPECT_TRUE(c.contains(64));
  EXPECT_TRUE(c.contains(96));
  EXPECT_FALSE(c.contains(128));
}

TEST(Prefetch, SequentialScanHitRateBoostedRandomChaseImmune) {
  // Footprint 4x the L1: sequential scan with degree-1 prefetch gets ~50%
  // demand hits; random chase stays near 0%.
  auto run = [](ChainOrder order) {
    HierarchyConfig h = HierarchyConfig::tiny();
    h.levels[0].prefetch = PrefetchPolicy::next_line;
    ChaseConfig cfg;
    cfg.num_pointers = 32;  // 1 KiB at stride 32 = 4x tiny L1
    cfg.stride_bytes = 32;
    cfg.order = order;
    cfg.warmup_traversals = 2;
    cfg.measured_traversals = 4;
    const auto res = run_chase(h, cfg);
    return static_cast<double>(res.level_stats[0].demand_hits) /
           static_cast<double>(res.total_accesses);
  };
  EXPECT_NEAR(run(ChainOrder::sequential), 0.5, 0.05);
  EXPECT_LT(run(ChainOrder::random_cycle), 0.25);
}

TEST(Chain, SequentialOrderIsAscending) {
  ChaseConfig cfg;
  cfg.num_pointers = 10;
  cfg.stride_bytes = 64;
  cfg.base_addr = 1024;
  cfg.order = ChainOrder::sequential;
  const auto chain = build_chain(cfg);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_EQ(chain[i], 1024 + i * 64);
  }
}

class ChaseRegimeSweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, int>> {};

TEST_P(ChaseRegimeSweep, SteadyStateServedByExpectedLevel) {
  // (num_pointers, expected-serving-level) pairs for tiny():
  // level index 0..2, 3 means memory.
  const auto [n, expected] = GetParam();
  ChaseConfig cfg;
  cfg.num_pointers = n;
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 4;
  cfg.measured_traversals = 4;
  auto res = run_chase(HierarchyConfig::tiny(), cfg);
  // Find where the majority of accesses were served.
  std::uint64_t best_count = res.memory_accesses;
  int best = 3;
  for (int i = 0; i < 3; ++i) {
    if (res.level_stats[static_cast<std::size_t>(i)].demand_hits >
        best_count) {
      best_count = res.level_stats[static_cast<std::size_t>(i)].demand_hits;
      best = i;
    }
  }
  EXPECT_EQ(best, expected) << "chain of " << n << " pointers";
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ChaseRegimeSweep,
    ::testing::Values(std::make_pair(std::uint64_t{4}, 0),    // 128 B -> L1
                      std::make_pair(std::uint64_t{8}, 0),    // 256 B -> L1
                      std::make_pair(std::uint64_t{28}, 1),   // ~0.9 KiB -> L2
                      std::make_pair(std::uint64_t{100}, 2),  // ~3 KiB -> L3
                      std::make_pair(std::uint64_t{4096}, 3)  // 128 KiB -> M
                      ));

}  // namespace
}  // namespace catalyst::cachesim
