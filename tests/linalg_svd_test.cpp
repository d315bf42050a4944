// Unit + property tests for the one-sided Jacobi SVD.
#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/random.hpp"

namespace catalyst::linalg {
namespace {

Matrix reconstruct(const SvdResult& res) {
  Matrix us = res.u;
  for (index_t j = 0; j < us.cols(); ++j) {
    scal(res.singular_values[static_cast<std::size_t>(j)], us.col(j));
  }
  Matrix out(us.rows(), res.v.rows());
  gemm(1.0, us, false, res.v, true, 0.0, out);
  return out;
}

TEST(Svd, DiagonalMatrix) {
  Matrix a{{3, 0}, {0, 4}};
  auto res = svd(a);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.singular_values[0], 4.0, 1e-12);
  EXPECT_NEAR(res.singular_values[1], 3.0, 1e-12);
}

TEST(Svd, KnownRankOneMatrix) {
  // A = u v^T with ||u|| = sqrt(5), ||v|| = sqrt(2): sigma = sqrt(10).
  Matrix a = Matrix::from_columns({{1, 2}, {1, 2}});
  auto res = svd(a);
  EXPECT_NEAR(res.singular_values[0], std::sqrt(10.0), 1e-12);
  EXPECT_NEAR(res.singular_values[1], 0.0, 1e-12);
}

class SvdShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(SvdShapes, ReconstructsAndIsOrthogonal) {
  const auto [m, n, seed] = GetParam();
  Matrix a = random_gaussian(m, n, static_cast<std::uint64_t>(seed));
  auto res = svd(a);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(Matrix::max_abs_diff(reconstruct(res), a), 1e-10);
  // U^T U == I, V^T V == I.
  Matrix utu = matmul_tn(res.u, res.u);
  Matrix vtv = matmul_tn(res.v, res.v);
  EXPECT_LT(Matrix::max_abs_diff(utu, Matrix::identity(utu.rows())), 1e-10);
  EXPECT_LT(Matrix::max_abs_diff(vtv, Matrix::identity(vtv.rows())), 1e-10);
  // Descending order.
  for (std::size_t i = 1; i < res.singular_values.size(); ++i) {
    EXPECT_LE(res.singular_values[i], res.singular_values[i - 1] + 1e-14);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(6, 6, 2),
                      std::make_tuple(12, 5, 3), std::make_tuple(5, 12, 4),
                      std::make_tuple(40, 16, 5), std::make_tuple(16, 40, 6)));

TEST(Svd, SingularValuesMatchPlantedSpectrum) {
  // random_with_condition builds log-spaced singular values in [1/c, 1].
  const double cond = 1e6;
  Matrix a = random_with_condition(30, 8, cond, 77);
  auto res = svd(a);
  EXPECT_NEAR(res.singular_values.front(), 1.0, 1e-8);
  EXPECT_NEAR(res.singular_values.back(), 1.0 / cond, 1e-8 / cond * 100);
}

TEST(Svd, FrobeniusNormIdentity) {
  // ||A||_F^2 == sum sigma_i^2.
  Matrix a = random_gaussian(9, 7, 11);
  auto res = svd(a);
  double ss = 0.0;
  for (double s : res.singular_values) ss += s * s;
  EXPECT_NEAR(std::sqrt(ss), norm_frobenius(a), 1e-11);
}

TEST(Svd, AgreesWithPowerIterationEstimate) {
  Matrix a = random_gaussian(25, 10, 13);
  auto res = svd(a);
  EXPECT_NEAR(res.singular_values[0], norm_two_estimate(a, 200), 1e-6);
}

TEST(Svd, EmptyMatrix) {
  auto res = svd(Matrix{});
  EXPECT_TRUE(res.converged);
  EXPECT_TRUE(res.singular_values.empty());
}

TEST(Svd, RejectsBadArguments) {
  Matrix a(2, 2, 1.0);
  EXPECT_THROW(svd(a, 0.0), ArgumentError);
  EXPECT_THROW(svd(a, 1e-12, 0), ArgumentError);
}

// singular_values() runs the same sweeps as svd() without the vectors, so
// the values must match bit for bit, not merely to a tolerance.
void expect_values_bit_equal(const Matrix& a, double tol = 1e-12,
                             int max_sweeps = 60) {
  const Vector values = singular_values(a, tol, max_sweeps);
  const Vector reference = svd(a, tol, max_sweeps).singular_values;
  ASSERT_EQ(values.size(), reference.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], reference[i]) << "sigma_" << i;
  }
}

TEST(SingularValues, BitEqualToSvdAcrossShapes) {
  expect_values_bit_equal(random_gaussian(40, 16, 5));   // tall
  expect_values_bit_equal(random_gaussian(12, 12, 8));   // square
  expect_values_bit_equal(random_gaussian(16, 40, 6));   // wide
  expect_values_bit_equal(random_rank_deficient(15, 10, 4, 31));
  expect_values_bit_equal(random_rank_deficient(10, 15, 4, 32));
  expect_values_bit_equal(random_with_condition(30, 8, 1e8, 33));
  expect_values_bit_equal(Matrix(7, 5, 0.0));             // zero
  expect_values_bit_equal(Matrix{{2.5}});                 // 1 x 1
  // A sweep budget too small to converge stops both at the same point.
  expect_values_bit_equal(random_gaussian(20, 12, 34), 1e-12, 2);
}

TEST(SingularValues, BitEqualToSvdOnTheModelgenShape) {
  // The scale_10k expectation-basis shape: 71 slots x 64 dimensions of
  // small non-negative integers.
  Matrix a = random_uniform(71, 64, 0.0, 5.0, 35);
  for (index_t j = 0; j < a.cols(); ++j) {
    for (double& v : a.col(j)) v = std::floor(v);
  }
  expect_values_bit_equal(a);
}

TEST(SingularValues, EmptyAndBadArguments) {
  EXPECT_TRUE(singular_values(Matrix{}).empty());
  Matrix a(2, 2, 1.0);
  EXPECT_THROW(singular_values(a, 0.0), ArgumentError);
  EXPECT_THROW(singular_values(a, 1e-12, 0), ArgumentError);
}

TEST(Cond2, IdentityHasConditionOne) {
  EXPECT_NEAR(cond2(Matrix::identity(5)), 1.0, 1e-12);
}

TEST(Cond2, MatchesPlantedCondition) {
  const double cond = 1e4;
  Matrix a = random_with_condition(20, 6, cond, 21);
  EXPECT_NEAR(cond2(a) / cond, 1.0, 1e-6);
}

TEST(Cond2, SingularOrNearSingularIsHuge) {
  // An exactly zero column gives sigma_min == 0 -> infinity.
  Matrix exact = Matrix::from_columns({{1, 0, 0}, {0, 0, 0}});
  EXPECT_TRUE(std::isinf(cond2(exact)));
  // A numerically rank-deficient random product lands at roundoff scale.
  Matrix a = random_rank_deficient(8, 5, 3, 9);
  EXPECT_GT(cond2(a), 1e12);
  EXPECT_EQ(cond2(Matrix{}), 0.0);
}

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, NumericalRankMatchesConstruction) {
  const int r = GetParam();
  Matrix a = random_rank_deficient(15, 10, r, 100 + r);
  EXPECT_EQ(numerical_rank(a), r);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep,
                         ::testing::Values(0, 1, 3, 5, 7, 10));

TEST(NumericalRank, AgreesWithQrcpOnEventLikeData) {
  // The analysis cross-check: an X-like matrix with duplicated / combined
  // columns must get the same rank from SVD and from QRCP.
  Matrix x = Matrix::from_columns({
      {1, 0, 0, 0},
      {0, 1, 0, 0},
      {1, 1, 0, 0},   // combination
      {2, 0, 0, 0},   // scaled duplicate
      {0, 0, 1, 0},
  });
  EXPECT_EQ(numerical_rank(x), 3);
}

}  // namespace
}  // namespace catalyst::linalg
