// Unit + property tests for the Householder QR factorization.
#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/random.hpp"

namespace catalyst::linalg {
namespace {

TEST(Householder, ReflectorAnnihilatesTail) {
  Vector x{3, 4, 0};
  Reflector h = make_reflector(x);
  // |beta| must equal the norm of the original vector.
  EXPECT_NEAR(std::fabs(h.beta), 5.0, 1e-14);
  // Applying H to the original vector gives (beta, 0, 0).
  Vector orig{3, 4, 0};
  apply_reflector_vec(orig, 0, std::span<const double>(x).subspan(1), h.tau);
  EXPECT_NEAR(orig[0], h.beta, 1e-14);
  EXPECT_NEAR(orig[1], 0.0, 1e-14);
  EXPECT_NEAR(orig[2], 0.0, 1e-14);
}

TEST(Householder, ZeroTailGivesIdentity) {
  Vector x{2, 0, 0};
  Reflector h = make_reflector(x);
  EXPECT_EQ(h.tau, 0.0);
  EXPECT_EQ(h.beta, 2.0);
}

TEST(Householder, EmptyVector) {
  Vector x;
  Reflector h = make_reflector(x);
  EXPECT_EQ(h.tau, 0.0);
}

TEST(Householder, ReflectorIsInvolutory) {
  // H (H b) == b since H is orthogonal and symmetric.
  Vector v{1, -2, 0.5};
  Reflector h = make_reflector(v);
  auto ess = std::span<const double>(v).subspan(1);
  Vector b{0.3, 1.7, -2.2};
  Vector b0 = b;
  apply_reflector_vec(b, 0, ess, h.tau);
  apply_reflector_vec(b, 0, ess, h.tau);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(b[i], b0[i], 1e-13);
}

class QrShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(QrShapes, ReconstructsAndIsOrthogonal) {
  const auto [m, n, seed] = GetParam();
  Matrix a = random_gaussian(m, n, static_cast<std::uint64_t>(seed));
  QrFactorization qr(a);

  Matrix q = qr.q_thin();
  Matrix r = qr.r();
  // Q^T Q == I.
  Matrix qtq = matmul_tn(q, q);
  EXPECT_LT(Matrix::max_abs_diff(qtq, Matrix::identity(qtq.rows())), 1e-12)
      << "Q columns not orthonormal for " << m << "x" << n;
  // Q R == A.
  Matrix qr_prod = matmul(q, r);
  EXPECT_LT(Matrix::max_abs_diff(qr_prod, a), 1e-11)
      << "QR != A for " << m << "x" << n;
  // R upper-trapezoidal.
  for (index_t j = 0; j < r.cols(); ++j) {
    for (index_t i = j + 1; i < r.rows(); ++i) {
      EXPECT_EQ(r(i, j), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, QrShapes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(5, 5, 2),
                      std::make_tuple(10, 4, 3), std::make_tuple(4, 10, 4),
                      std::make_tuple(50, 20, 5), std::make_tuple(20, 50, 6),
                      std::make_tuple(100, 100, 7),
                      std::make_tuple(64, 1, 8)));

TEST(Qr, ApplyQtThenQIsIdentity) {
  // For a square A, q_thin() is all of Q: Q (Q^T b) = b.
  Matrix a = random_gaussian(9, 9, 11);
  QrFactorization qr(a);
  Vector b{1, 2, 3, 4, 5, 6, 7, 8, 9};
  Vector b0 = b;
  qr.apply_qt(b);
  b = matvec(qr.q_thin(), b);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(b[i], b0[i], 1e-12);
}

TEST(Qr, ApplyQtPreservesNorm) {
  Matrix a = random_gaussian(12, 6, 13);
  QrFactorization qr(a);
  Vector b(12);
  for (std::size_t i = 0; i < 12; ++i) b[i] = std::sin(double(i) + 1.0);
  const double n0 = nrm2(b);
  qr.apply_qt(b);
  EXPECT_NEAR(nrm2(b), n0, 1e-12);
}

// The solves below go through the block least-squares solve, the one
// consumer of the factorization's Q^T and R.

TEST(Qr, SolveSquareSystem) {
  Matrix a{{2, 1}, {1, 3}};
  Matrix b{{5, 1}, {10, 0}};  // two right-hand sides
  const Matrix x = lstsq(a, b).x;
  const Matrix check = matmul(a, x);
  EXPECT_NEAR(check(0, 0), 5.0, 1e-12);
  EXPECT_NEAR(check(1, 0), 10.0, 1e-12);
  EXPECT_NEAR(check(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(check(1, 1), 0.0, 1e-12);
}

TEST(Qr, SolveTallSystemGivesLeastSquares) {
  // Overdetermined consistent system must be solved exactly.
  Matrix a{{1, 0}, {0, 1}, {1, 1}};
  Vector xtrue{2, -1};
  Matrix b(3, 1);
  b.set_col(0, matvec(a, xtrue));
  const auto res = lstsq(a, b);
  EXPECT_NEAR(res.x(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(res.x(1, 0), -1.0, 1e-12);
  EXPECT_NEAR(res.residual_norms[0], 0.0, 1e-12);
}

TEST(Qr, SolveUnderdeterminedThrows) {
  Matrix a(2, 4);
  Matrix b(2, 3);
  EXPECT_THROW(lstsq(a, b), DimensionError);
}

TEST(Qr, SolveWrongRhsLengthThrows) {
  Matrix a(3, 2);
  Matrix b(2, 3);
  EXPECT_THROW(lstsq(a, b), DimensionError);
}

TEST(Qr, RDiagonalAbsOfIdentity) {
  QrFactorization qr(Matrix::identity(4));
  auto d = qr.r_diagonal_abs();
  ASSERT_EQ(d.size(), 4u);
  for (double v : d) EXPECT_NEAR(v, 1.0, 1e-15);
}

TEST(Qr, IllConditionedStillReconstructs) {
  Matrix a = random_with_condition(30, 10, 1e10, 21);
  QrFactorization qr(a);
  Matrix qr_prod = matmul(qr.q_thin(), qr.r());
  EXPECT_LT(Matrix::max_abs_diff(qr_prod, a), 1e-11);
}

}  // namespace
}  // namespace catalyst::linalg
