// Unit + property tests for classic max-norm pivoting (Algorithm 1), which
// the library provides as PivotRule::max_norm of core::specialized_qrcp: the
// pivot is the largest updated residual, and a residual below
// beta = alpha * sqrt(m) ends the factorization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/qrcp_special.hpp"
#include "linalg/blas.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/qr.hpp"
#include "linalg/random.hpp"

namespace catalyst::linalg {
namespace {

using core::PivotRule;
using core::SpecialQrcpResult;

// alpha for exact-rank problems: beta sits far above rounding noise and far
// below every genuine residual of the O(1) test matrices.
constexpr double kTight = 1e-10;

SpecialQrcpResult classic(const Matrix& a, double alpha = kTight) {
  return core::specialized_qrcp(a, alpha, PivotRule::max_norm);
}

// Largest distance of a column of A from the span of the selected columns:
// ~0 when the selection explains all of A.
double unexplained(const Matrix& a, const SpecialQrcpResult& res) {
  if (res.rank == 0) return norm_frobenius(a);
  const Matrix basis = a.select_columns(res.selected);
  double worst = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    worst = std::max(worst, lstsq(basis, a.col(j)).residual_norm);
  }
  return worst;
}

TEST(Qrcp, PermutationIsAPermutation) {
  Matrix a = random_gaussian(8, 6, 17);
  auto res = classic(a);
  std::vector<index_t> p = res.selected;
  std::sort(p.begin(), p.end());
  std::vector<index_t> expect(6);
  std::iota(expect.begin(), expect.end(), index_t{0});
  EXPECT_EQ(p, expect);
}

TEST(Qrcp, FullRankRandom) {
  Matrix a = random_gaussian(10, 6, 23);
  auto res = classic(a);
  EXPECT_EQ(res.rank, 6);
  EXPECT_LT(unexplained(a, res), 1e-11);
}

TEST(Qrcp, DiagonalOfRIsNonIncreasing) {
  // Max-norm pivoting guarantees |R(0,0)| >= |R(1,1)| >= ... (weakly, up to
  // roundoff): R of the columns in pivot order.
  Matrix a = random_gaussian(30, 20, 29);
  auto res = classic(a);
  ASSERT_EQ(res.rank, 20);
  const QrFactorization qr(a.select_columns(res.selected));
  const auto& d = qr.r_diagonal_abs();
  for (std::size_t i = 1; i < d.size(); ++i) {
    EXPECT_LE(d[i], d[i - 1] * (1 + 1e-10));
  }
}

class QrcpRankDetection : public ::testing::TestWithParam<int> {};

TEST_P(QrcpRankDetection, DetectsExactRank) {
  const int r = GetParam();
  Matrix a = random_rank_deficient(20, 12, r, 1000 + r);
  auto res = classic(a);
  EXPECT_EQ(res.rank, r);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, QrcpRankDetection,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 12));

TEST(Qrcp, ZeroMatrixHasRankZero) {
  Matrix a(5, 4, 0.0);
  auto res = classic(a);
  EXPECT_EQ(res.rank, 0);
}

TEST(Qrcp, DuplicateColumnsDetected) {
  // Two copies of the same column plus one independent column: rank 2.
  Matrix a = Matrix::from_columns({{1, 2, 3}, {1, 2, 3}, {0, 1, 0}});
  auto res = classic(a);
  EXPECT_EQ(res.rank, 2);
}

TEST(Qrcp, ScaledColumnDetected) {
  Matrix a = Matrix::from_columns({{1, 2, 3}, {2, 4, 6}, {1, 0, 0}});
  auto res = classic(a);
  EXPECT_EQ(res.rank, 2);
}

TEST(Qrcp, LinearCombinationDetected) {
  // c2 = c0 + c1.
  Matrix a = Matrix::from_columns({{1, 0, 1}, {0, 1, 1}, {1, 1, 2}});
  auto res = classic(a);
  EXPECT_EQ(res.rank, 2);
}

TEST(Qrcp, MaxNormPivotPicksLargestColumnFirst) {
  // The paper's motivating failure: a "cycles"-like huge column is chosen
  // first by the classic rule even though it is analytically irrelevant.
  Matrix a = Matrix::from_columns(
      {{1, 0, 0}, {0, 1, 0}, {1e6, 1e6, 1e6}});
  auto res = classic(a);
  EXPECT_EQ(res.selected[0], 2);
}

TEST(Qrcp, ReconstructionWithRankDeficiency) {
  Matrix a = random_rank_deficient(15, 10, 4, 77);
  auto res = classic(a);
  EXPECT_EQ(res.rank, 4);
  EXPECT_LT(unexplained(a, res), 1e-10);
}

TEST(Qrcp, NegativeToleranceThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(classic(a, -1.0), std::invalid_argument);
}

TEST(Qrcp, WideMatrix) {
  Matrix a = random_gaussian(4, 9, 31);
  auto res = classic(a);
  EXPECT_EQ(res.rank, 4);
  EXPECT_LT(unexplained(a, res), 1e-11);
}

TEST(Qrcp, NearDependentColumnsNeedLooserTolerance) {
  // (1, 1) vs (0.99, 1.01): numerically independent, semantically noise.
  // Their difference is 0.02 / sqrt(2) ~ 0.014 off the first column: below
  // beta = 2e-2 * sqrt(2) the second column is dependent.
  Matrix a = Matrix::from_columns({{1, 1}, {0.99, 1.01}});
  EXPECT_EQ(classic(a, 1e-12).rank, 2);
  EXPECT_EQ(classic(a, 2e-2).rank, 1);
}

}  // namespace
}  // namespace catalyst::linalg
