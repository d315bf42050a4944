// catalyst/linalg -- BLAS-style dense kernels (levels 1-3).
//
// These are the workhorse routines under the QR factorizations and the
// least-squares solvers, written for clarity with the standard loop orders.
// Every kernel is one plain loop with a fixed accumulation order, so no
// result depends on the host ISA or on a thread count.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace catalyst::linalg {

// ----- Level 1 ------------------------------------------------------------

/// x . y
double dot(std::span<const double> x, std::span<const double> y);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// x *= alpha
void scal(double alpha, std::span<double> x) noexcept;

/// Euclidean norm, computed with scaling to avoid overflow/underflow
/// (LAPACK dnrm2-style).
double nrm2(std::span<const double> x) noexcept;

/// Sum of |x_i|.
double asum(std::span<const double> x) noexcept;

/// Index of the element with the largest magnitude; -1 for an empty span.
index_t iamax(std::span<const double> x) noexcept;

// ----- Level 2 ------------------------------------------------------------

/// y = alpha * A * x + beta * y
void gemv(double alpha, const Matrix& a, std::span<const double> x,
          double beta, std::span<double> y);

/// Convenience: returns A * x.
Vector matvec(const Matrix& a, std::span<const double> x);

/// Convenience: returns A^T * x.
Vector matvec_t(const Matrix& a, std::span<const double> x);

// ----- Level 3 ------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}:
/// the j-k-i loop, one column of C at a time.
void gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
          bool trans_b, double beta, Matrix& c);

/// Convenience: returns A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// Convenience: returns A^T * B.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

// ----- Triangular solves ----------------------------------------------------

/// Solves R^T * x = b in place (b becomes x) for upper-triangular R (uses
/// the leading n x n block of `r`, where n = b.size()).  Throws
/// SingularError on a diagonal entry at or below the noise scale
/// n * eps * max_i |r(i, i)| (an exactly-zero test would accept diagonals
/// that are pure rounding debris and amplify them into garbage solutions).
void trsv_upper_t(const Matrix& r, std::span<double> b);

// ----- Norms ----------------------------------------------------------------

/// Frobenius norm of A.
double norm_frobenius(const Matrix& a) noexcept;

/// Induced 1-norm (max column abs sum).
double norm_one(const Matrix& a) noexcept;

/// Induced infinity-norm (max row abs sum).
double norm_inf(const Matrix& a) noexcept;

/// Estimate of the spectral norm ||A||_2 via power iteration on A^T A.
/// `iters` controls accuracy; 30 iterations give ~3 digits on typical data,
/// which is ample for the backward-error denominator of Eq. 5.
double norm_two_estimate(const Matrix& a, int iters = 30,
                         unsigned long seed = 0x9e3779b97f4a7c15ULL);

}  // namespace catalyst::linalg
