// Unit + property tests for least squares and the Eq. 5 backward error.
#include "linalg/lstsq.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/random.hpp"

namespace catalyst::linalg {
namespace {

TEST(Lstsq, ConsistentSquareSystem) {
  Matrix a{{2, 0}, {0, 3}};
  Vector b{4, 9};
  auto res = lstsq(a, b);
  EXPECT_NEAR(res.x[0], 2.0, 1e-13);
  EXPECT_NEAR(res.x[1], 3.0, 1e-13);
  EXPECT_NEAR(res.residual_norm, 0.0, 1e-12);
  EXPECT_LT(res.backward_error, 1e-14);
  EXPECT_FALSE(res.rank_deficient);
}

TEST(Lstsq, ClassicRegressionExample) {
  // Fit y = c0 + c1 * t to points (0,1), (1,2), (2,4): the normal-equations
  // solution is c = (5/6, 3/2).
  Matrix a{{1, 0}, {1, 1}, {1, 2}};
  Vector b{1, 2, 4};
  auto res = lstsq(a, b);
  EXPECT_NEAR(res.x[0], 5.0 / 6.0, 1e-12);
  EXPECT_NEAR(res.x[1], 1.5, 1e-12);
}

TEST(Lstsq, ResidualIsOrthogonalToColumnSpace) {
  Matrix a = random_gaussian(20, 6, 5);
  Vector b(20);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = std::cos(double(i));
  auto res = lstsq(a, b);
  Vector r(b);
  gemv(-1.0, a, res.x, 1.0, r);
  Vector atr = matvec_t(a, r);
  for (double v : atr) EXPECT_NEAR(v, 0.0, 1e-10);
}

TEST(Lstsq, RecoversPlantedSolution) {
  Matrix a = random_gaussian(50, 10, 9);
  Vector xtrue(10);
  for (std::size_t i = 0; i < 10; ++i) xtrue[i] = double(i) - 4.5;
  Vector b = matvec(a, xtrue);
  auto res = lstsq(a, b);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(res.x[i], xtrue[i], 1e-10);
  EXPECT_LT(res.backward_error, 1e-13);
}

TEST(Lstsq, RankDeficientZeroesComponents) {
  // Column 1 is a copy of column 0: the basic solution must put all weight
  // on one of them and flag deficiency.
  Matrix a = Matrix::from_columns({{1, 1, 1}, {1, 1, 1}, {0, 1, 2}});
  Vector b{1, 2, 3};
  auto res = lstsq(a, b);
  EXPECT_TRUE(res.rank_deficient);
  // Fit must still be as good as the rank-2 subspace allows (exact here:
  // b = 1*c0 + 1*c2 works).
  EXPECT_NEAR(res.residual_norm, 0.0, 1e-10);
}

TEST(Lstsq, UnderdeterminedDispatchThrows) {
  Matrix a(2, 5);
  Vector b{1, 2};
  EXPECT_THROW(lstsq(a, b), DimensionError);
}

TEST(Lstsq, RhsLengthMismatchThrows) {
  Matrix a(4, 2);
  Vector b{1, 2};
  EXPECT_THROW(lstsq(a, b), DimensionError);
}

TEST(BackwardError, ZeroForExactSolve) {
  Matrix a{{1, 2}, {3, 4}};
  Vector y{1, 1};
  Vector s = matvec(a, y);
  EXPECT_LT(backward_error(a, y, s), 1e-15);
}

TEST(BackwardError, SaturatesNearOneForOrthogonalTarget) {
  // The signature is orthogonal to the column space and the solution is
  // (forced to) zero: Eq. 5 gives ||s|| / ||s|| = 1.
  Matrix a = Matrix::from_columns({{1, 0, 0}});
  Vector y{0.0};
  Vector s{0, 0, 1};
  EXPECT_NEAR(backward_error(a, y, s), 1.0, 1e-12);
}

TEST(BackwardError, ShapeMismatchThrows) {
  Matrix a(3, 2);
  Vector y{1, 2, 3};
  Vector s{1, 2, 3};
  EXPECT_THROW(backward_error(a, y, s), DimensionError);
}

TEST(BackwardError, ScaleInvariance) {
  // Scaling A, y, s together leaves Eq. 5 unchanged.
  Matrix a = random_gaussian(8, 3, 55);
  Vector y{0.5, -1.0, 2.0};
  Vector s(8);
  for (std::size_t i = 0; i < 8; ++i) s[i] = std::sin(double(i) * 1.3);
  const double e1 = backward_error(a, y, s);
  Matrix a2 = a * 100.0;
  Vector s2 = s;
  scal(100.0, s2);
  const double e2 = backward_error(a2, y, s2);
  EXPECT_NEAR(e1, e2, 1e-8);
}

class LstsqNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(LstsqNoiseSweep, BackwardErrorTracksNoiseLevel) {
  // Planted solution plus noise of magnitude eps: the backward error must be
  // of order eps (within a generous constant), and monotone-ish in eps.
  const double eps = GetParam();
  Matrix a = random_gaussian(40, 8, 123);
  Vector xtrue(8, 1.0);
  Vector b = matvec(a, xtrue);
  Matrix noise = random_gaussian(40, 1, 321);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] += eps * noise(static_cast<index_t>(i), 0);
  }
  auto res = lstsq(a, b);
  EXPECT_LT(res.backward_error, eps * 10 + 1e-14);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, LstsqNoiseSweep,
                         ::testing::Values(0.0, 1e-12, 1e-9, 1e-6, 1e-3));

}  // namespace
}  // namespace catalyst::linalg
