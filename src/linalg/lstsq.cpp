#include "linalg/lstsq.hpp"

#include <algorithm>
#include <cmath>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "linalg/audit.hpp"
#include "linalg/blas.hpp"

namespace catalyst::linalg {

namespace {

// Solves R x = y in place for the leading k x k block of packed R, setting
// solution components whose diagonal entry is at or below tol to zero
// (basic solution).
void solve_upper_regularized(const Matrix& r, std::span<double> x,
                             double tol) {
  const auto n = static_cast<index_t>(x.size());
  for (index_t i = n - 1; i >= 0; --i) {
    double s = x[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) {
      s -= r(i, j) * x[static_cast<std::size_t>(j)];
    }
    const double d = r(i, i);
    x[static_cast<std::size_t>(i)] = std::fabs(d) <= tol ? 0.0 : s / d;
  }
}

}  // namespace

LstsqBlockResult lstsq(const Matrix& a, const Matrix& b, double rcond,
                       int threads) {
  CATALYST_REQUIRE_AS(a.rows() >= a.cols(), DimensionError,
                      "lstsq: system is underdetermined");
  CATALYST_REQUIRE_AS(b.rows() == a.rows(), DimensionError,
                      "lstsq: rhs length mismatch");
  CATALYST_REQUIRE_AS(rcond >= 0.0, ArgumentError, "lstsq: negative rcond");
  CATALYST_ASSUME_FINITE_AS(a.data(), ArgumentError,
                            "lstsq: matrix has NaN/Inf entries");
  CATALYST_ASSUME_FINITE_AS(b.data(), ArgumentError,
                            "lstsq: rhs has NaN/Inf entries");
  const auto nrhs = static_cast<std::size_t>(b.cols());
  LstsqBlockResult out{QrFactorization(a), Matrix(a.cols(), b.cols()),
                       std::vector<double>(nrhs), std::vector<double>(nrhs)};
  const auto& diag = out.qr.r_diagonal_abs();
  const double dmax =
      diag.empty() ? 0.0 : *std::max_element(diag.begin(), diag.end());
  const double tol = rcond * dmax;
  out.rank_deficient = std::any_of(diag.begin(), diag.end(),
                                   [tol](double d) { return d <= tol; });
  const double anorm = norm_two_estimate(a);

  // Every column's arithmetic reads only A's factorization, so the
  // columns run in fixed chunks on the worker pool, each with its own
  // scratch vectors, and X is the same bytes for any thread count.
  const auto n = static_cast<std::size_t>(a.cols());
  const auto chunks = static_cast<std::size_t>(
      (b.cols() + kLstsqChunkColumns - 1) / kLstsqChunkColumns);
  core::parallel_for(chunks, threads, [&](std::size_t chunk) {
    const index_t first = static_cast<index_t>(chunk) * kLstsqChunkColumns;
    const index_t last = std::min(b.cols(), first + kLstsqChunkColumns);
    Vector y(static_cast<std::size_t>(a.rows()));
    Vector r(y.size());
    for (index_t j = first; j < last; ++j) {
      const std::span<const double> bj = b.col(j);
      const std::span<double> xj = out.x.col(j);
      std::copy(bj.begin(), bj.end(), y.begin());
      out.qr.apply_qt(y);
      std::copy_n(y.begin(), n, xj.begin());
      solve_upper_regularized(out.qr.packed(), xj, tol);

      // Residual: recompute explicitly (robust even when rank deficient).
      std::copy(bj.begin(), bj.end(), r.begin());
      gemv(-1.0, a, xj, 1.0, r);
      const double rnorm = nrm2(r);
      // backward_error()'s arithmetic, with ||A||_2 estimated once.
      const double denom = anorm * nrm2(xj) + nrm2(bj);
      const double berr =
          denom == 0.0 ? (rnorm == 0.0 ? 0.0 : 1.0) : rnorm / denom;
      CATALYST_ENSURE(std::isfinite(rnorm) && rnorm >= 0.0 &&
                          std::isfinite(berr),
                      "lstsq: non-finite residual or backward error");
      if (audit::enabled() && !out.rank_deficient) {
        audit::check_lstsq_optimal(a, xj, bj);
      }
      out.residual_norms[static_cast<std::size_t>(j)] = rnorm;
      out.backward_errors[static_cast<std::size_t>(j)] = berr;
    }
  });
  return out;
}

LstsqResult lstsq(const Matrix& a, std::span<const double> b, double rcond) {
  Matrix column(static_cast<index_t>(b.size()), 1);
  column.set_col(0, b);
  LstsqBlockResult block = lstsq(a, column, rcond);
  return {block.x.col_copy(0), block.residual_norms[0],
          block.backward_errors[0], block.rank_deficient};
}

double backward_error(const Matrix& a, std::span<const double> y,
                      std::span<const double> s) {
  CATALYST_REQUIRE_AS(static_cast<index_t>(y.size()) == a.cols() &&
                          static_cast<index_t>(s.size()) == a.rows(),
                      DimensionError, "backward_error: shape mismatch");
  Vector r(s.begin(), s.end());
  gemv(-1.0, a, y, 1.0, r);
  const double num = nrm2(r);
  const double denom = norm_two_estimate(a) * nrm2(y) + nrm2(s);
  if (denom == 0.0) {
    // Zero matrix, zero solution, zero signature: the fit is exact.
    return num == 0.0 ? 0.0 : 1.0;
  }
  return num / denom;
}

}  // namespace catalyst::linalg
