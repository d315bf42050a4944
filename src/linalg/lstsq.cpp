#include "linalg/lstsq.hpp"

#include <algorithm>
#include <cmath>

#include "core/contract.hpp"
#include "core/parallel.hpp"
#include "linalg/audit.hpp"
#include "linalg/blas.hpp"

namespace catalyst::linalg {

namespace {

// The block solve runs its columns in panels of kPanelColumns, one lane of
// a vector-extension value per column: lane l of panel row i is column l's
// entry i.  Every lane goes through the one-column solve's operations in
// their order -- QrFactorization::apply_qt's reflectors, then the
// regularized back-substitution -- so it gets that solve's bits: lane-wise
// IEEE +, -, *, / round like their scalar forms, no multiply-add is
// contracted (-ffp-contract=off, src/linalg/CMakeLists.txt), and the only
// branches, tau == 0 and |R(i,i)| <= tol, read A alone, so lanes never
// diverge.  Lanes rather than plain `double[8]` loops: the compiler
// vectorized those across rows, with strided shuffles, and they ran slower
// than one column at a time.
constexpr index_t kPanelColumns = 8;
typedef double Lanes
    __attribute__((vector_size(kPanelColumns * sizeof(double))));

// y <- Q^T y for the panel's m rows (apply_reflector_vec, lane-wise).
void apply_qt_panel(const QrFactorization& qr, Lanes* y) {
  const Matrix& packed = qr.packed();
  const index_t m = packed.rows();
  for (index_t j = 0; j < qr.reflectors(); ++j) {
    const double tau = qr.taus()[static_cast<std::size_t>(j)];
    if (tau == 0.0) continue;
    const double* v = packed.col(j).data();  // essential part: v[j+1 .. m)
    Lanes w = y[j];
    for (index_t i = j + 1; i < m; ++i) w += v[i] * y[i];
    w *= tau;
    y[j] -= w;
    for (index_t i = j + 1; i < m; ++i) y[i] -= w * v[i];
  }
}

// Solves R x = y in place for the leading n x n block of packed R, setting
// solution components whose diagonal entry is at or below tol to zero
// (basic solution), lane-wise.
void solve_upper_regularized_panel(const Matrix& r, Lanes* x, index_t n,
                                   double tol) {
  for (index_t i = n - 1; i >= 0; --i) {
    Lanes s = x[i];
    for (index_t j = i + 1; j < n; ++j) s -= r(i, j) * x[j];
    const double d = r(i, i);
    x[i] = std::fabs(d) <= tol ? Lanes{} : s / d;
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
  // scratch, and X is the same bytes for any thread count.  Within a chunk
  // the columns go in panels (see kPanelColumns); a short last panel
  // zero-fills its unused lanes.
  const index_t m = a.rows();
  const index_t n = a.cols();
  const auto chunks = static_cast<std::size_t>(
      (b.cols() + kLstsqChunkColumns - 1) / kLstsqChunkColumns);
  core::parallel_for(chunks, threads, [&](std::size_t chunk) {
    const index_t first = static_cast<index_t>(chunk) * kLstsqChunkColumns;
    const index_t last = std::min(b.cols(), first + kLstsqChunkColumns);
    std::vector<Lanes> panel(static_cast<std::size_t>(m));
    const auto row = [&panel](index_t i) -> Lanes& {
      return panel[static_cast<std::size_t>(i)];
    };
    Vector r(static_cast<std::size_t>(m));
    for (index_t p = first; p < last; p += kPanelColumns) {
      const index_t width = std::min(kPanelColumns, last - p);
      std::fill(panel.begin(), panel.end(), Lanes{});
      for (index_t l = 0; l < width; ++l) {
        const double* bl = b.col(p + l).data();
        for (index_t i = 0; i < m; ++i) row(i)[l] = bl[i];
      }
      apply_qt_panel(out.qr, panel.data());
      solve_upper_regularized_panel(out.qr.packed(), panel.data(), n, tol);
      for (index_t l = 0; l < width; ++l) {
        double* xl = out.x.col(p + l).data();
        for (index_t i = 0; i < n; ++i) xl[i] = row(i)[l];
      }

      for (index_t j = p; j < p + width; ++j) {
        const std::span<const double> bj = b.col(j);
        const std::span<const double> xj = out.x.col(j);
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
