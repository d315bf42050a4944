// Unit tests for the two-level TLB simulator.
#include "cachesim/tlb.hpp"

#include <gtest/gtest.h>

#include "cachesim/pointer_chase.hpp"

namespace catalyst::cachesim {
namespace {

TEST(TlbConfigTest, DefaultsValidate) {
  EXPECT_NO_THROW(TlbConfig::saphira().validate());
  EXPECT_NO_THROW(TlbConfig::tiny().validate());
}

TEST(TlbConfigTest, RejectsMixedPageSizes) {
  TlbConfig c;
  c.l2.page_bytes = 8192;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(TlbConfigTest, RejectsShrinkingHierarchy) {
  TlbConfig c;
  c.l2.entries = 32;  // smaller than the 64-entry DTLB
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(TlbTest, HitAfterWalkAndSamePageSharing) {
  TlbHierarchy tlb(TlbConfig::tiny());  // 64 B pages
  EXPECT_FALSE(tlb.access(0).has_value());  // cold walk
  EXPECT_EQ(tlb.access(0), 0u);             // now a DTLB hit
  EXPECT_EQ(tlb.access(63), 0u);            // same page
  EXPECT_FALSE(tlb.access(64).has_value()); // next page walks
  EXPECT_EQ(tlb.stats().walks, 2u);
  EXPECT_EQ(tlb.stats().l1_hits, 2u);
}

TEST(TlbTest, StlbCatchesDtlbEvictions) {
  // tiny(): DTLB 4 entries, STLB 16.  Touch 8 distinct pages (fits STLB,
  // overflows DTLB), then touch them again: no walks in the second pass.
  TlbHierarchy tlb(TlbConfig::tiny());
  for (std::uint64_t p = 0; p < 8; ++p) tlb.access(p * 64);
  const auto walks_before = tlb.stats().walks;
  std::uint64_t stlb_hits = 0;
  for (std::uint64_t p = 0; p < 8; ++p) {
    const auto lvl = tlb.access(p * 64);
    ASSERT_TRUE(lvl.has_value()) << "page " << p << " walked again";
    if (*lvl == 1) ++stlb_hits;
  }
  EXPECT_EQ(tlb.stats().walks, walks_before);
  EXPECT_GT(stlb_hits, 0u);
}

TEST(TlbTest, HugeFootprintWalksEveryPage) {
  // 64 pages >> 16-entry STLB with a random chase: steady-state walks.
  const TlbConfig tlb = TlbConfig::tiny();
  ChaseConfig cfg;
  cfg.num_pointers = 64;
  cfg.stride_bytes = 64;  // one page per element
  cfg.warmup_traversals = 2;
  cfg.measured_traversals = 2;
  const auto res = run_chase(HierarchyConfig::tiny(), cfg, &tlb);
  EXPECT_GT(res.tlb.walks, res.total_accesses / 2);
}

TEST(TlbTest, SmallFootprintNeverWalksSteadyState) {
  const TlbConfig tlb = TlbConfig::tiny();
  ChaseConfig cfg;
  cfg.num_pointers = 8;
  cfg.stride_bytes = 32;  // 4 pages at 64 B pages: fits the 4-entry DTLB
  cfg.warmup_traversals = 2;
  cfg.measured_traversals = 3;
  const auto res = run_chase(HierarchyConfig::tiny(), cfg, &tlb);
  EXPECT_EQ(res.tlb.walks, 0u);
  EXPECT_EQ(res.tlb.accesses(), res.total_accesses);
}

TEST(TlbTest, StatsConservation) {
  TlbHierarchy tlb(TlbConfig::tiny());
  for (std::uint64_t i = 0; i < 500; ++i) {
    tlb.access((i * 37) % 4096);
  }
  const auto& s = tlb.stats();
  EXPECT_EQ(s.l1_hits + s.l1_misses, 500u);
  EXPECT_EQ(s.l2_hits + s.walks, s.l1_misses);
}

TEST(TlbTest, ChaseWithoutTlbReportsZeroTlbStats) {
  ChaseConfig cfg;
  cfg.num_pointers = 16;
  cfg.stride_bytes = 32;
  const auto res = run_chase(HierarchyConfig::tiny(), cfg);
  EXPECT_EQ(res.tlb.accesses(), 0u);
  EXPECT_EQ(res.tlb.walks, 0u);
}

}  // namespace
}  // namespace catalyst::cachesim
