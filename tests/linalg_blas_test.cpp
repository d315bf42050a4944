// Unit tests for catalyst::linalg BLAS-style kernels.
#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "linalg/random.hpp"

namespace catalyst::linalg {
namespace {

TEST(Blas1, Dot) {
  Vector x{1, 2, 3};
  Vector y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  Vector z{1};
  EXPECT_THROW(dot(x, z), DimensionError);
}

TEST(Blas1, Axpy) {
  Vector x{1, 2};
  Vector y{10, 20};
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{12, 24}));
}

TEST(Blas1, Scal) {
  Vector x{1, -2, 3};
  scal(-2.0, x);
  EXPECT_EQ(x, (Vector{-2, 4, -6}));
}

TEST(Blas1, Nrm2Basic) {
  Vector x{3, 4};
  EXPECT_DOUBLE_EQ(nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(nrm2(Vector{}), 0.0);
  EXPECT_DOUBLE_EQ(nrm2(Vector{0, 0, 0}), 0.0);
}

TEST(Blas1, Nrm2AvoidsOverflow) {
  const double big = 1e200;
  Vector x{big, big};
  EXPECT_DOUBLE_EQ(nrm2(x), big * std::sqrt(2.0));
  EXPECT_TRUE(std::isfinite(nrm2(x)));
}

TEST(Blas1, Nrm2AvoidsUnderflow) {
  const double tiny = 1e-200;
  Vector x{tiny, tiny};
  EXPECT_NEAR(nrm2(x) / (tiny * std::sqrt(2.0)), 1.0, 1e-14);
}

TEST(Blas1, AsumAndIamax) {
  Vector x{1, -5, 3};
  EXPECT_DOUBLE_EQ(asum(x), 9.0);
  EXPECT_EQ(iamax(x), 1);
  EXPECT_EQ(iamax(Vector{}), -1);
}

TEST(Blas2, Gemv) {
  Matrix a{{1, 2}, {3, 4}};
  Vector x{1, 1};
  Vector y{100, 100};
  gemv(1.0, a, x, 0.0, y);
  EXPECT_EQ(y, (Vector{3, 7}));
  gemv(2.0, a, x, 1.0, y);  // y = 2*A*x + y
  EXPECT_EQ(y, (Vector{9, 21}));
  Vector bad{1};
  EXPECT_THROW(gemv(1.0, a, bad, 0.0, y), DimensionError);
}

TEST(Blas2, GemvT) {
  Matrix a{{1, 2}, {3, 4}};
  Vector x{1, 1};
  EXPECT_EQ(matvec_t(a, x), (Vector{4, 6}));
  Vector bad{1};
  EXPECT_THROW(matvec_t(a, bad), DimensionError);
}

TEST(Blas2, MatvecAgainstTransposedMatvecT) {
  Matrix a = random_gaussian(7, 5, 42);
  Vector x{1, -1, 2, 0.5, 3};
  Vector y1 = matvec(a, x);
  Vector y2_full = matvec_t(a.transposed(), x);
  ASSERT_EQ(y1.size(), y2_full.size());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_NEAR(y1[i], y2_full[i], 1e-12);
  }
}

TEST(Blas3, GemmSquare) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  EXPECT_EQ(matmul(a, b), (Matrix{{19, 22}, {43, 50}}));
}

TEST(Blas3, GemmTransposeFlags) {
  Matrix a = random_gaussian(4, 3, 1);
  Matrix b = random_gaussian(4, 5, 2);
  // C = A^T * B via flag must match explicit transpose.
  Matrix c1(3, 5);
  gemm(1.0, a, true, b, false, 0.0, c1);
  Matrix c2 = matmul(a.transposed(), b);
  EXPECT_LT(Matrix::max_abs_diff(c1, c2), 1e-12);

  // C = A * B^T.
  Matrix d = random_gaussian(5, 3, 3);
  Matrix c3(4, 5);
  gemm(1.0, a, false, d, true, 0.0, c3);
  Matrix c4 = matmul(a, d.transposed());
  EXPECT_LT(Matrix::max_abs_diff(c3, c4), 1e-12);
}

TEST(Blas3, GemmAlphaBeta) {
  Matrix a{{1, 0}, {0, 1}};
  Matrix b{{1, 2}, {3, 4}};
  Matrix c{{10, 10}, {10, 10}};
  gemm(2.0, a, false, b, false, 0.5, c);
  EXPECT_EQ(c, (Matrix{{7, 9}, {11, 13}}));
}

TEST(Blas3, GemmShapeMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 2);  // inner dim mismatch
  Matrix c(2, 2);
  EXPECT_THROW(gemm(1.0, a, false, b, false, 0.0, c), DimensionError);
}

TEST(Trsv, LowerSolve) {
  // L = R^T for R = [[2, 1], [0, 4]]: the transposed upper solve is the
  // forward substitution with L.
  Matrix r{{2, 1}, {0, 4}};
  Vector b{4, 9};
  trsv_upper_t(r, b);
  EXPECT_DOUBLE_EQ(b[0], 2.0);
  EXPECT_DOUBLE_EQ(b[1], 1.75);
}

TEST(Trsv, UpperTransposeSolveMatchesExplicit) {
  Matrix r{{3, 2, 1}, {0, 5, 4}, {0, 0, 7}};
  Vector b{1, 2, 3};
  Vector bt = b;
  trsv_upper_t(r, bt);
  Vector check = matvec(r.transposed(), bt);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(check[i], b[i], 1e-13);
}

TEST(Trsv, SingularThrows) {
  Matrix r{{0, 1}, {0, 1}};
  Vector b{1, 1};
  EXPECT_THROW(trsv_upper_t(r, b), SingularError);
}

TEST(Trsv, NearSingularDiagonalAtNoiseScaleThrows) {
  // A diagonal entry at rounding-noise scale relative to the largest one
  // must be treated as singular: dividing by it would amplify factorization
  // debris into the solution.  The old exact `d == 0.0` test accepted this.
  const double eps = std::numeric_limits<double>::epsilon();
  Matrix r{{1.0, 1.0}, {0.0, 0.5 * eps}};
  Vector bt{1, 1};
  EXPECT_THROW(trsv_upper_t(r, bt), SingularError);
  Matrix leading{{0.5 * eps, 1.0}, {0.0, 1.0}};
  Vector bl{1, 1};
  EXPECT_THROW(trsv_upper_t(leading, bl), SingularError);
}

TEST(Trsv, DiagonalAboveNoiseScaleStillSolves) {
  // Small-but-honest diagonals (well above n * eps * max|diag|) must keep
  // working; the tolerance is scaled, not absolute.
  Matrix r{{1.0, 0.0}, {0.0, 1e-8}};
  Vector b{3.0, 2e-8};
  EXPECT_NO_THROW(trsv_upper_t(r, b));
  EXPECT_DOUBLE_EQ(b[0], 3.0);
  EXPECT_DOUBLE_EQ(b[1], 2.0);
}

TEST(Norms, FrobeniusOneInf) {
  Matrix a{{1, -2}, {-3, 4}};
  EXPECT_DOUBLE_EQ(norm_frobenius(a), std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(norm_one(a), 6.0);  // max column abs sum = |−2|+|4| = 6
  EXPECT_DOUBLE_EQ(norm_inf(a), 7.0);  // max row abs sum = 3+4
}

TEST(Norms, TwoNormEstimateOnDiagonal) {
  Matrix a{{3, 0}, {0, 1}};
  EXPECT_NEAR(norm_two_estimate(a, 60), 3.0, 1e-6);
}

TEST(Norms, TwoNormEstimateBracketedByClassicBounds) {
  Matrix a = random_gaussian(20, 15, 99);
  const double est = norm_two_estimate(a, 100);
  const double fro = norm_frobenius(a);
  // ||A||_2 <= ||A||_F and ||A||_F <= sqrt(rank) * ||A||_2.
  EXPECT_LE(est, fro * (1 + 1e-10));
  EXPECT_GE(est * std::sqrt(15.0), fro * (1 - 1e-10));
}

TEST(Norms, TwoNormOfEmptyIsZero) {
  Matrix a;
  EXPECT_DOUBLE_EQ(norm_two_estimate(a), 0.0);
}

}  // namespace
}  // namespace catalyst::linalg
