// Differential test of the closed-form chase counts (cachesim::chase_counts,
// and run_chase, which uses them when they apply) against a per-access
// reference written here: the chain walked one access at a time through a
// cold CacheHierarchy and TlbHierarchy, counters snapshotted after the
// warm-up and diffed after the measured traversals.
//
// Covered: seeded random geometries on both sides of every condition
// chase_counts checks (prefetch, stride a multiple of the line size, set
// counts that refine), each condition refused on its own, and the three
// chase benchmarks (dcache, gpu_dcache, icache) slot by slot.
#include "cachesim/cachesim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cat/dcache.hpp"
#include "cat/gpu_dcache.hpp"
#include "cat/icache.hpp"
#include "core/parallel.hpp"
#include "pmu/signals.hpp"
#include "seed_util.hpp"

namespace catalyst::cachesim {
namespace {

namespace sig = pmu::sig;
using catalyst::testing::env_seed;
using catalyst::testing::seed_banner;
using catalyst::testing::sweep_seeds;

ChaseResult reference_chase(const HierarchyConfig& hierarchy,
                            const ChaseConfig& config,
                            const TlbConfig* tlb_config = nullptr) {
  const std::vector<std::uint64_t> chain = build_chain(config);
  CacheHierarchy caches(hierarchy);
  std::optional<TlbHierarchy> tlb;
  if (tlb_config != nullptr) tlb.emplace(*tlb_config);
  auto traverse = [&](int times) {
    for (int t = 0; t < times; ++t) {
      for (std::uint64_t a : chain) {
        if (tlb) tlb->access(a);
        caches.access(a);
      }
    }
  };
  traverse(config.warmup_traversals);
  std::vector<LevelStats> before(caches.num_levels());
  for (std::size_t i = 0; i < caches.num_levels(); ++i) {
    before[i] = caches.level(i).stats();
  }
  const std::uint64_t mem_before = caches.memory_accesses();
  const TlbStats tlb_before = tlb ? tlb->stats() : TlbStats{};
  traverse(config.measured_traversals);

  ChaseResult res;
  res.level_stats.resize(caches.num_levels());
  for (std::size_t i = 0; i < caches.num_levels(); ++i) {
    const LevelStats& now = caches.level(i).stats();
    res.level_stats[i].demand_hits = now.demand_hits - before[i].demand_hits;
    res.level_stats[i].demand_misses =
        now.demand_misses - before[i].demand_misses;
  }
  res.memory_accesses = caches.memory_accesses() - mem_before;
  res.total_accesses =
      static_cast<std::uint64_t>(config.measured_traversals) * chain.size();
  if (tlb) {
    const TlbStats& now = tlb->stats();
    res.tlb.l1_hits = now.l1_hits - tlb_before.l1_hits;
    res.tlb.l1_misses = now.l1_misses - tlb_before.l1_misses;
    res.tlb.l2_hits = now.l2_hits - tlb_before.l2_hits;
    res.tlb.walks = now.walks - tlb_before.walks;
  }
  return res;
}

// Every field, so a failure names what differs.
std::string describe(const ChaseResult& r) {
  std::ostringstream out;
  for (std::size_t i = 0; i < r.level_stats.size(); ++i) {
    out << "L" << i + 1 << " hits=" << r.level_stats[i].demand_hits
        << " misses=" << r.level_stats[i].demand_misses
        << " prefetches=" << r.level_stats[i].prefetches_issued << "; ";
  }
  out << "memory=" << r.memory_accesses << " total=" << r.total_accesses
      << " tlb=" << r.tlb.l1_hits << "/" << r.tlb.l1_misses << "/"
      << r.tlb.l2_hits << "/" << r.tlb.walks;
  return out.str();
}

std::string describe(const HierarchyConfig& h, const ChaseConfig& c) {
  std::ostringstream out;
  for (const LevelConfig& l : h.levels) {
    out << l.name << "{" << l.num_sets() << " sets x " << l.associativity
        << " ways x " << l.line_bytes << " B"
        << (l.prefetch == PrefetchPolicy::none ? "" : ", prefetch") << "} ";
  }
  out << "n=" << c.num_pointers << " stride=" << c.stride_bytes
      << " base=" << c.base_addr << " seed=" << c.seed
      << " warmup=" << c.warmup_traversals
      << " measured=" << c.measured_traversals
      << (c.order == ChainOrder::sequential ? " sequential" : " random");
  return out.str();
}

LevelConfig level(const std::string& name, std::uint64_t sets,
                  std::uint32_t ways, std::uint32_t line) {
  return LevelConfig{name, sets * ways * line, line, ways};
}

TEST(ChaseCounts, MatchesReferenceOnRandomGeometries) {
  int closed_form = 0;
  int fallback = 0;
  int with_tlb = 0;
  for (const std::uint64_t seed : sweep_seeds(1, 400)) {
    std::mt19937_64 rng(seed);
    auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
      return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    const auto line = static_cast<std::uint32_t>(pick(0, 1) ? 64 : 32);
    HierarchyConfig h;
    const std::uint64_t num_levels = pick(1, 3);
    std::uint64_t sets = std::uint64_t{1} << pick(0, 3);
    for (std::uint64_t k = 0; k < num_levels; ++k) {
      const auto ways = static_cast<std::uint32_t>(pick(1, 16));
      // Mostly refining set counts; one level in four halves them instead.
      if (k > 0) {
        sets = pick(0, 3) == 0 && sets > 1 ? sets / 2 : sets << pick(0, 2);
      }
      LevelConfig l = level("L" + std::to_string(k + 1), sets, ways, line);
      if (k > 0 && l.size_bytes < h.levels.back().size_bytes) {
        // Outer levels may not be smaller: add ways until it is not.
        const std::uint64_t set_bytes = sets * line;
        l.associativity = static_cast<std::uint32_t>(
            (h.levels.back().size_bytes + set_bytes - 1) / set_bytes);
        l.size_bytes = set_bytes * l.associativity;
      }
      if (pick(0, 7) == 0) {
        l.prefetch = PrefetchPolicy::next_line;
        l.prefetch_degree = static_cast<std::uint32_t>(pick(1, 2));
      }
      h.levels.push_back(l);
    }
    ASSERT_NO_THROW(h.validate())
        << seed_banner(seed) << describe(h, ChaseConfig{});

    ChaseConfig cfg;
    const std::uint64_t capacity_lines = h.levels.back().size_bytes / line;
    cfg.num_pointers = pick(1, 2 * capacity_lines + 8);
    const std::uint32_t strides[] = {line, 2 * line, 3 * line, line / 2,
                                     line + 16};
    cfg.stride_bytes = strides[pick(0, 4)];
    cfg.base_addr = pick(0, 1) ? pick(0, 1) * 4096 : pick(0, 255) * 8;
    cfg.seed = pick(1, 1u << 30);
    cfg.warmup_traversals = static_cast<int>(pick(0, 2));
    cfg.measured_traversals = static_cast<int>(pick(1, 3));
    cfg.order = pick(0, 1) ? ChainOrder::sequential : ChainOrder::random_cycle;

    std::optional<TlbConfig> tlb;
    if (pick(0, 1)) {
      tlb = TlbConfig::tiny();
      ++with_tlb;
    }
    const TlbConfig* tlb_ptr = tlb ? &*tlb : nullptr;

    const ChaseResult want = reference_chase(h, cfg, tlb_ptr);
    const std::string got = describe(run_chase(h, cfg, tlb_ptr));
    EXPECT_EQ(got, describe(want)) << seed_banner(seed) << describe(h, cfg);

    const auto counts = chase_counts(build_chain(cfg), h, cfg);
    if (counts) {
      ++closed_form;
      ChaseResult cache_only = want;
      cache_only.tlb = TlbStats{};
      EXPECT_EQ(describe(*counts), describe(cache_only))
          << seed_banner(seed) << describe(h, cfg);
    } else {
      ++fallback;
    }
  }
  // Both paths and both TLB settings must have been exercised (a replay of
  // one seed runs one case).
  if (env_seed()) return;
  EXPECT_GT(closed_form, 100);
  EXPECT_GT(fallback, 100);
  EXPECT_GT(with_tlb, 100);
}

// One geometry per refused condition: chase_counts declines, and run_chase
// (now on the per-access path) still equals the reference.
TEST(ChaseCounts, RefusesEachFailingCondition) {
  ChaseConfig cfg;
  cfg.num_pointers = 48;
  cfg.stride_bytes = 32;
  cfg.seed = 9;
  cfg.warmup_traversals = 1;
  cfg.measured_traversals = 2;
  const TlbConfig tlb = TlbConfig::tiny();

  HierarchyConfig prefetching = HierarchyConfig::tiny();
  prefetching.levels[1].prefetch = PrefetchPolicy::next_line;

  ChaseConfig odd_stride = cfg;
  odd_stride.stride_bytes = 48;  // 32 B lines: elements share lines

  HierarchyConfig coarser;  // 4-set L1 over a 2-set 16-way L2
  coarser.levels = {level("L1", 4, 2, 32), level("L2", 2, 16, 32)};

  const std::pair<HierarchyConfig, ChaseConfig> refused[] = {
      {prefetching, cfg},
      {HierarchyConfig::tiny(), odd_stride},
      {coarser, cfg},
  };
  for (const auto& [h, c] : refused) {
    EXPECT_FALSE(chase_counts(build_chain(c), h, c).has_value())
        << describe(h, c);
    EXPECT_EQ(describe(run_chase(h, c, &tlb)),
              describe(reference_chase(h, c, &tlb)))
        << describe(h, c);
  }

  // The same chase on the plain tiny geometry takes the closed form.
  EXPECT_TRUE(
      chase_counts(build_chain(cfg), HierarchyConfig::tiny(), cfg).has_value());
}

TEST(ChaseCounts, ColdFirstTraversalMissesEverywhere) {
  ChaseConfig cfg;
  cfg.num_pointers = 6;  // fits the tiny L1
  cfg.stride_bytes = 32;
  cfg.warmup_traversals = 0;
  cfg.measured_traversals = 3;
  const auto counts =
      chase_counts(build_chain(cfg), HierarchyConfig::tiny(), cfg);
  ASSERT_TRUE(counts.has_value());
  // One cold traversal (6 misses at every level, 6 to memory), then two
  // steady traversals that hit L1.
  EXPECT_EQ(counts->level_stats[0].demand_hits, 12u);
  EXPECT_EQ(counts->level_stats[0].demand_misses, 6u);
  EXPECT_EQ(counts->level_stats[1].demand_misses, 6u);
  EXPECT_EQ(counts->level_stats[2].demand_misses, 6u);
  EXPECT_EQ(counts->memory_accesses, 6u);
  EXPECT_EQ(counts->total_accesses, 18u);
}

TEST(ChaseCounts, RejectsBadInput) {
  ChaseConfig cfg;
  cfg.num_pointers = 8;
  cfg.measured_traversals = 0;
  const auto chain = build_chain(cfg);
  EXPECT_THROW(chase_counts(chain, HierarchyConfig::tiny(), cfg),
               std::invalid_argument);
  EXPECT_THROW(run_chase(HierarchyConfig::tiny(), cfg), std::invalid_argument);
  cfg.measured_traversals = 1;
  EXPECT_THROW(chase_counts(chain, HierarchyConfig{}, cfg), ConfigError);
}

// --- The chase benchmarks, slot by slot, against the reference. ---------

// The reference's counts under the names the benchmark publishes them.
pmu::Activity reference_activity(const std::string& bench,
                                 const ChaseResult& r) {
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  if (bench == "cat-dcache") {
    return {{sig::l1d_demand_hit, d(r.level_stats[0].demand_hits)},
            {sig::l1d_demand_miss, d(r.level_stats[0].demand_misses)},
            {sig::l2d_demand_hit, d(r.level_stats[1].demand_hits)},
            {sig::l2d_demand_miss, d(r.level_stats[1].demand_misses)},
            {sig::l3d_demand_hit, d(r.level_stats[2].demand_hits)},
            {sig::l3d_demand_miss, d(r.memory_accesses)},
            {sig::dtlb_hit, d(r.tlb.l1_hits)},
            {sig::dtlb_miss, d(r.tlb.l1_misses)},
            {sig::stlb_hit, d(r.tlb.l2_hits)},
            {sig::dtlb_walk, d(r.tlb.walks)},
            {sig::loads, d(r.total_accesses)}};
  }
  if (bench == "cat-gpu-dcache") {
    return {{sig::gpu_tcc_hit, d(r.level_stats[0].demand_hits)},
            {sig::gpu_tcc_miss, d(r.level_stats[0].demand_misses)},
            {sig::gpu_vmem, d(r.total_accesses)}};
  }
  return {{sig::l1i_hit, d(r.level_stats[0].demand_hits)},
          {sig::l1i_miss, d(r.level_stats[0].demand_misses)},
          {sig::l2i_hit, d(r.level_stats[1].demand_hits)},
          {sig::l2i_miss, d(r.level_stats[1].demand_misses)}};
}

void expect_slot_matches(const cat::Benchmark& bench, std::size_t s,
                         std::size_t t, const ChaseResult& want) {
  const pmu::Activity& got = bench.slots[s].thread_activities.at(t);
  for (const auto& [name, value] : reference_activity(bench.name, want)) {
    EXPECT_EQ(got.at(name), value)
        << bench.slots[s].name << " thread " << t << " " << name;
  }
  EXPECT_EQ(bench.slots[s].normalizer,
            static_cast<double>(want.total_accesses))
      << bench.slots[s].name;
}

TEST(ChaseBenchmarks, DcacheThreadsMatchReference) {
  const std::uint64_t seeds[] = {2024, 77};
  const int thread_counts[] = {1, 3, 4};
  constexpr int kMaxThreads = 4;
  const cat::DcacheOptions defaults;
  const auto info = cat::dcache_slot_info(defaults);
  const TlbConfig tlb = TlbConfig::saphira();

  // A chase thread's slots depend on its index and the seed only, so one
  // reference per (seed, thread) serves every thread count.  The eight are
  // independent per-access walks: run them on the worker pool.
  std::vector<std::vector<ChaseResult>> want(2 * kMaxThreads);
  core::parallel_for(want.size(), kMaxThreads, [&](std::size_t unit) {
    const std::uint64_t seed = seeds[unit / kMaxThreads];
    const std::size_t t = unit % kMaxThreads;
    for (std::size_t s = 0; s < info.size(); ++s) {
      ChaseConfig cfg;
      cfg.num_pointers = info[s].num_pointers;
      cfg.stride_bytes = info[s].stride_bytes;
      cfg.base_addr = static_cast<std::uint64_t>(t) << 30;
      cfg.seed = seed + t * 1000 + s;
      cfg.warmup_traversals = defaults.warmup_traversals;
      cfg.measured_traversals = defaults.measured_traversals;
      want[unit].push_back(reference_chase(defaults.hierarchy, cfg, &tlb));
    }
  });

  for (std::size_t k = 0; k < 2; ++k) {
    for (const int threads : thread_counts) {
      cat::DcacheOptions opt;
      opt.seed = seeds[k];
      opt.threads = threads;
      const cat::Benchmark bench = cat::dcache_benchmark(opt);
      ASSERT_EQ(bench.slots.size(), info.size());
      for (std::size_t s = 0; s < info.size(); ++s) {
        ASSERT_EQ(bench.slots[s].thread_activities.size(),
                  static_cast<std::size_t>(threads));
        for (std::size_t t = 0; t < static_cast<std::size_t>(threads); ++t) {
          expect_slot_matches(bench, s, t, want[k * kMaxThreads + t][s]);
        }
      }
    }
  }
}

TEST(ChaseBenchmarks, GpuDcacheMatchesReference) {
  const cat::GpuDcacheOptions opt;
  const cat::Benchmark bench = cat::gpu_dcache_benchmark(opt);
  HierarchyConfig tcc;
  tcc.levels = {opt.tcc};
  for (std::size_t s = 0; s < opt.footprints_bytes.size(); ++s) {
    ChaseConfig cfg;
    cfg.num_pointers = std::max<std::uint64_t>(
        4, opt.footprints_bytes[s] / opt.stride_bytes);
    cfg.stride_bytes = opt.stride_bytes;
    cfg.seed = opt.seed + s;
    cfg.warmup_traversals = opt.warmup_traversals;
    cfg.measured_traversals = opt.measured_traversals;
    expect_slot_matches(bench, s, 0, reference_chase(tcc, cfg));
  }
}

TEST(ChaseBenchmarks, IcacheMatchesReference) {
  const cat::IcacheOptions opt;
  const cat::Benchmark bench = cat::icache_benchmark(opt);
  for (std::size_t s = 0; s < opt.footprints_bytes.size(); ++s) {
    ChaseConfig cfg;
    cfg.num_pointers = std::max<std::uint64_t>(
        1, opt.footprints_bytes[s] / opt.fetch_bytes);
    cfg.stride_bytes = opt.fetch_bytes;
    cfg.order = ChainOrder::sequential;
    cfg.warmup_traversals = opt.warmup_traversals;
    cfg.measured_traversals = opt.measured_traversals;
    expect_slot_matches(bench, s, 0, reference_chase(opt.hierarchy, cfg));
  }
}

}  // namespace
}  // namespace catalyst::cachesim
