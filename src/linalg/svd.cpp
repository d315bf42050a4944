#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "linalg/blas.hpp"

namespace catalyst::linalg {

namespace {

// One-sided Jacobi on a tall (or square) working copy W (m x n, m >= n):
// repeatedly applies Givens rotations from the right to orthogonalize
// column pairs.  With `vectors` the rotations are accumulated into V and U
// is built from the final columns; without, only the singular values come
// back.  The rotations applied to W do not depend on the flag, so both
// modes produce bit-identical singular values.
SvdResult jacobi_tall(Matrix w, double tol, int max_sweeps, bool vectors) {
  const index_t n = w.cols();
  const std::size_t m = static_cast<std::size_t>(w.rows());
  SvdResult res;
  if (vectors) res.v = Matrix::identity(n);

  for (res.sweeps = 0; res.sweeps < max_sweeps; ++res.sweeps) {
    bool any_rotation = false;
    for (index_t p = 0; p < n - 1; ++p) {
      for (index_t q = p + 1; q < n; ++q) {
        auto cp = w.col(p);
        auto cq = w.col(q);
        // The three Gram entries in one pass.  Each accumulator still sums
        // from i = 0 upward, exactly as three separate dot() calls would.
        double app = 0.0;
        double aqq = 0.0;
        double apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = cp[i];
          const double wiq = cq[i];
          app += wip * wip;
          aqq += wiq * wiq;
          apq += wip * wiq;
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        any_rotation = true;
        // Classic Jacobi rotation annihilating the (p, q) off-diagonal of
        // W^T W.
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(zeta) + std::sqrt(1.0 + zeta * zeta)), zeta);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wip = cp[i];
          const double wiq = cq[i];
          cp[i] = c * wip - s * wiq;
          cq[i] = s * wip + c * wiq;
        }
        if (!vectors) continue;
        auto vp = res.v.col(p);
        auto vq = res.v.col(q);
        for (index_t i = 0; i < n; ++i) {
          const double vip = vp[static_cast<std::size_t>(i)];
          const double viq = vq[static_cast<std::size_t>(i)];
          vp[static_cast<std::size_t>(i)] = c * vip - s * viq;
          vq[static_cast<std::size_t>(i)] = s * vip + c * viq;
        }
      }
    }
    if (!any_rotation) {
      res.converged = true;
      break;
    }
  }

  // Column norms are the singular values; normalized columns form U.
  Vector norms(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    norms[static_cast<std::size_t>(j)] = nrm2(w.col(j));
  }
  // Sort descending, permuting U's and V's columns along.
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), index_t{0});
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return norms[static_cast<std::size_t>(a)] >
           norms[static_cast<std::size_t>(b)];
  });
  res.singular_values.resize(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    res.singular_values[static_cast<std::size_t>(j)] =
        norms[static_cast<std::size_t>(order[static_cast<std::size_t>(j)])];
  }
  if (!vectors) return res;
  Matrix u(w.rows(), n);
  Matrix v_sorted(n, n);
  for (index_t j = 0; j < n; ++j) {
    const index_t src = order[static_cast<std::size_t>(j)];
    const double sigma = res.singular_values[static_cast<std::size_t>(j)];
    auto uc = u.col(j);
    auto wc = w.col(src);
    if (sigma > 0.0) {
      for (std::size_t i = 0; i < uc.size(); ++i) uc[i] = wc[i] / sigma;
    }
    v_sorted.set_col(j, res.v.col(src));
  }
  res.u = std::move(u);
  res.v = std::move(v_sorted);
  return res;
}

// The one entry point of both modes: validates, handles the empty matrix
// and factors A^T when A is wide.
SvdResult jacobi(const Matrix& a, double tol, int max_sweeps, bool vectors) {
  if (tol <= 0.0) throw ArgumentError("svd: tol must be positive");
  if (max_sweeps <= 0) throw ArgumentError("svd: max_sweeps must be positive");
  if (a.empty()) {
    SvdResult res;
    res.converged = true;
    return res;
  }
  if (a.rows() >= a.cols()) return jacobi_tall(a, tol, max_sweeps, vectors);
  // Wide matrix: factor A^T = U' S V'^T, then A = V' S U'^T.
  SvdResult t = jacobi_tall(a.transposed(), tol, max_sweeps, vectors);
  std::swap(t.u, t.v);
  return t;
}

}  // namespace

SvdResult svd(const Matrix& a, double tol, int max_sweeps) {
  return jacobi(a, tol, max_sweeps, /*vectors=*/true);
}

Vector singular_values(const Matrix& a, double tol, int max_sweeps) {
  return jacobi(a, tol, max_sweeps, /*vectors=*/false).singular_values;
}

double cond2(const Matrix& a) {
  if (a.empty()) return 0.0;
  const Vector sv = singular_values(a);
  const double smax = sv.front();
  const double smin = sv.back();
  if (smin == 0.0) return std::numeric_limits<double>::infinity();
  return smax / smin;
}

index_t numerical_rank(const Matrix& a, double rel_tol) {
  if (a.empty()) return 0;
  const Vector sv = singular_values(a);
  const double smax = sv.front();
  if (smax == 0.0) return 0;
  index_t rank = 0;
  for (double s : sv) {
    if (s > rel_tol * smax) ++rank;
  }
  return rank;
}

}  // namespace catalyst::linalg
