// catalyst/linalg -- singular value decomposition (one-sided Jacobi).
//
// Used by the analysis diagnostics: condition numbers of expectation bases,
// numerical rank cross-checks for the QRCP selections, and the ablation
// benches that compare rank decisions across factorizations.  One-sided
// Jacobi is simple, accurate for small singular values, and entirely
// adequate for the matrix sizes the pipeline produces (<= a few thousand
// columns, <= ~50 rows after projection).
#pragma once

#include "linalg/matrix.hpp"

namespace catalyst::linalg {

/// Thin SVD of an m x n matrix A (any shape): A = U * diag(sigma) * V^T
/// with U m x k, V n x k, k = min(m, n), and sigma sorted descending.
struct SvdResult {
  Matrix u;                     ///< Left singular vectors (m x k).
  Vector singular_values;      ///< k values, descending, all >= 0.
  Matrix v;                     ///< Right singular vectors (n x k).
  int sweeps = 0;               ///< Jacobi sweeps used.
  bool converged = false;       ///< False if max_sweeps was exhausted.
};

/// Computes the thin SVD by one-sided Jacobi on A (or A^T when m < n).
/// `tol` is the relative off-diagonal tolerance; convergence is reached
/// when every column pair satisfies |a_i . a_j| <= tol * ||a_i|| * ||a_j||.
SvdResult svd(const Matrix& a, double tol = 1e-12, int max_sweeps = 60);

/// The singular values alone, descending: the same Jacobi sweeps as svd()
/// without accumulating V or building U, so the result is bit-identical to
/// svd(a, tol, max_sweeps).singular_values at a fraction of the cost.
Vector singular_values(const Matrix& a, double tol = 1e-12,
                       int max_sweeps = 60);

/// 2-norm condition number sigma_max / sigma_min (inf for singular input,
/// 0x0 input returns 0).
double cond2(const Matrix& a);

/// Numerical rank: number of singular values > rel_tol * sigma_max.
index_t numerical_rank(const Matrix& a, double rel_tol = 1e-12);

}  // namespace catalyst::linalg
