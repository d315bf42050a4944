// catalyst/linalg -- the least-squares solve and the paper's backward error.
//
// The analysis pipeline solves two kinds of systems, each for a block of
// right-hand sides against one matrix:
//   1. E * xe = me  -- project every noise-filtered event's averaged
//      measurement onto the expectation basis (Section III-B of the paper);
//      E is tall (kernels x ideal events) and well conditioned by
//      construction, and the block holds one column per event.
//   2. Xhat * y = s -- compose every metric signature from the QR-selected
//      events (Section VI); Xhat is square or tall, and the block holds one
//      column per signature.
// Both go through one Householder QR of the matrix, like LAPACK's dgels with
// several right-hand sides.  Fitness is reported with the backward error of
// Eq. 5:  ||A y - s|| / (||A|| * ||y|| + ||s||).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"

namespace catalyst::linalg {

/// Outcome of a block least-squares solve: entry j of every per-column
/// field belongs to column j of the right-hand side.
struct LstsqBlockResult {
  QrFactorization qr;                   ///< The one factorization of A.
  Matrix x;                             ///< Solutions, A.cols() x B.cols().
  std::vector<double> residual_norms;   ///< ||A x_j - b_j||_2.
  std::vector<double> backward_errors;  ///< Eq. 5 fitness of each column.
  /// True if a tiny R diagonal was regularized.  It depends on A alone, so
  /// it holds for every column.
  bool rank_deficient = false;
};

/// Outcome of a one-vector least-squares solve.
struct LstsqResult {
  Vector x;                    ///< Solution (length = A.cols()).
  double residual_norm = 0.0;  ///< ||A x - b||_2.
  double backward_error = 0.0; ///< Eq. 5 normwise backward error.
  bool rank_deficient = false; ///< True if a tiny R diagonal was regularized.
};

/// The default rank tolerance of lstsq(), relative to max_i |R(i,i)|.
inline constexpr double kLstsqRcond = 1e-12;

/// Columns per unit of the block solve's worker pool: a constant, not an
/// option, picked by a sweep of the projection-sized solve (DESIGN.md,
/// "Threads and determinism").  A block of one chunk runs inline, which
/// keeps every paper-sized projection (at most 195 columns) off the pool.
inline constexpr index_t kLstsqChunkColumns = 256;

/// Solves min_x ||A x_j - b_j||_2 for every column b_j of B, for a square or
/// tall A.  A is factored once (Householder QR, the rank tolerance and the
/// ||A||_2 estimate); each column then costs one Q^T application, one
/// back-substitution and one residual, and its result does not depend on
/// the other columns.  The columns run in fixed chunks on up to `threads`
/// workers (core::parallel_for); every output is bit-identical for any
/// thread count.
///
/// Rank handling: diagonal entries of R with magnitude below
/// `rcond * max_i |R(i,i)|` are treated as zero; the corresponding solution
/// components are set to zero (a basic rather than minimum-norm solution,
/// which matches how the paper's pipeline interprets "this event
/// contributes nothing").
LstsqBlockResult lstsq(const Matrix& a, const Matrix& b,
                       double rcond = kLstsqRcond, int threads = 1);

/// The one-column case of the block solve.
LstsqResult lstsq(const Matrix& a, std::span<const double> b,
                  double rcond = kLstsqRcond);

/// The paper's Eq. 5: ||A y - s||_2 / (||A||_2 * ||y||_2 + ||s||_2).
/// ||A||_2 is estimated with power iteration (see norm_two_estimate).
double backward_error(const Matrix& a, std::span<const double> y,
                      std::span<const double> s);

}  // namespace catalyst::linalg
