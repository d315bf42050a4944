// Unit tests for linalg::audit: the measurement functions, the enable/count
// plumbing, and the in-path hooks in QrFactorization and lstsq().
#include "linalg/audit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
#include "linalg/random.hpp"

namespace catalyst::linalg {
namespace {

TEST(AuditMeasurements, OrthogonalityErrorOfIdentityIsZero) {
  EXPECT_DOUBLE_EQ(audit::orthogonality_error(Matrix::identity(4)), 0.0);
}

TEST(AuditMeasurements, OrthogonalityErrorDetectsScaledColumns) {
  Matrix q = Matrix::identity(3);
  q(0, 0) = 2.0;  // column no longer unit norm: Q^T Q - I has a 3 at (0,0)
  EXPECT_NEAR(audit::orthogonality_error(q), 3.0, 1e-12);
}

TEST(AuditMeasurements, MaxBelowDiagonal) {
  Matrix r{{1, 2}, {0, 3}};
  EXPECT_DOUBLE_EQ(audit::max_below_diagonal(r), 0.0);
  r(1, 0) = -0.25;
  EXPECT_DOUBLE_EQ(audit::max_below_diagonal(r), 0.25);
}

TEST(AuditMeasurements, NormalEquationsResidualIsZeroAtTheMinimizer) {
  // For square invertible A, the exact solution zeroes the gradient.
  Matrix a{{2, 1}, {1, 3}};
  Vector b{3, 5};
  const auto ls = lstsq(a, b);
  EXPECT_LT(audit::normal_equations_residual(a, ls.x, b), 1e-12);
  // A non-minimizer has a visibly non-zero gradient.
  Vector wrong{1.0, 1.0};
  wrong[0] += 0.5;
  EXPECT_GT(audit::normal_equations_residual(a, wrong, b), 0.1);
}

TEST(AuditToggle, GuardSetsAndRestores) {
  const bool before = audit::enabled();
  {
    audit::EnabledGuard guard(!before);
    EXPECT_EQ(audit::enabled(), !before);
  }
  EXPECT_EQ(audit::enabled(), before);
}

TEST(AuditChecks, GoodFactorizationPasses) {
  const Matrix a = random_gaussian(12, 7, 42);
  audit::EnabledGuard guard(true);
  audit::reset_counts();
  EXPECT_NO_THROW(QrFactorization{a});
  const auto counts = audit::counts();
  EXPECT_EQ(counts.orthogonality, 1u);
  EXPECT_EQ(counts.triangularity, 1u);
  EXPECT_EQ(counts.factorization, 1u);
}

TEST(AuditChecks, QrFactorizationAuditsItself) {
  const Matrix a = random_gaussian(9, 5, 7);
  audit::EnabledGuard guard(true);
  audit::reset_counts();
  const QrFactorization qr(a);
  Vector b(9, 1.0);
  EXPECT_NO_THROW(qr.apply_qt(b));
  EXPECT_GE(audit::counts().orthogonality, 1u);
}

TEST(AuditChecks, LstsqAuditsOptimality) {
  const Matrix a = random_gaussian(10, 4, 3);
  const Vector b(10, 1.0);
  audit::EnabledGuard guard(true);
  audit::reset_counts();
  EXPECT_NO_THROW(lstsq(a, b));
  EXPECT_EQ(audit::counts().lstsq, 1u);
}

TEST(AuditChecks, CorruptedQIsCaught) {
  Matrix q = Matrix::identity(4);
  q(2, 2) = 1.5;
  EXPECT_THROW(audit::check_orthonormal(q), audit::AuditError);
}

TEST(AuditChecks, BelowDiagonalGarbageIsCaught) {
  Matrix r{{1, 2}, {0, 3}};
  r(1, 0) = 1e-9;
  EXPECT_THROW(audit::check_upper_triangular(r), audit::AuditError);
}

TEST(AuditChecks, WrongReconstructionIsCaught) {
  const Matrix a = random_gaussian(6, 3, 11);
  const QrFactorization qr(a);
  Matrix perturbed = a;
  perturbed(0, 0) += 1.0;
  EXPECT_THROW(
      audit::check_factorization(perturbed, qr.q_thin(), qr.r()),
      audit::AuditError);
}

TEST(AuditChecks, NonMinimizingSolutionIsCaught) {
  Matrix a{{2, 1}, {1, 3}};
  Vector b{3, 5};
  Vector wrong{10.0, -10.0};
  EXPECT_THROW(audit::check_lstsq_optimal(a, wrong, b), audit::AuditError);
}

TEST(AuditChecks, DisabledHooksCostNothingAndCountNothing) {
  audit::EnabledGuard guard(false);
  audit::reset_counts();
  const Matrix a = random_gaussian(8, 4, 5);
  const QrFactorization qr(a);
  lstsq(a, Vector(8, 1.0));
  const auto counts = audit::counts();
  EXPECT_EQ(counts.orthogonality, 0u);
  EXPECT_EQ(counts.triangularity, 0u);
  EXPECT_EQ(counts.factorization, 0u);
  EXPECT_EQ(counts.lstsq, 0u);
}

}  // namespace
}  // namespace catalyst::linalg
