#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/contract.hpp"

namespace catalyst::linalg {

namespace {

void check_same_size(std::span<const double> x, std::span<const double> y,
                     const char* op) {
  CATALYST_REQUIRE_AS(x.size() == y.size(), DimensionError,
                      std::string(op) + ": vector length mismatch");
}

// Shared singularity guard for the triangular solves: a diagonal entry is
// unusable not only when exactly zero but whenever it is at rounding-noise
// scale relative to the largest diagonal entry -- dividing by it would
// amplify noise into the solution (see contract::singular_tolerance).
double triangular_diag_tolerance(const Matrix& m, index_t n) {
  double dmax = 0.0;
  for (index_t i = 0; i < n; ++i) dmax = std::max(dmax, std::fabs(m(i, i)));
  return contract::singular_tolerance(n, dmax);
}

}  // namespace

// ----- Level 1 --------------------------------------------------------------

double dot(std::span<const double> x, std::span<const double> y) {
  check_same_size(x, y, "dot");
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  check_same_size(x, y, "axpy");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) noexcept {
  for (double& v : x) v *= alpha;
}

double nrm2(std::span<const double> x) noexcept {
  // Scaled accumulation following the classic dnrm2 recurrence so that
  // vectors with entries near DBL_MAX or DBL_MIN do not overflow/underflow.
  double scale = 0.0;
  double ssq = 1.0;
  for (double v : x) {
    if (v != 0.0) {
      const double a = std::fabs(v);
      if (scale < a) {
        const double r = scale / a;
        ssq = 1.0 + ssq * r * r;
        scale = a;
      } else {
        const double r = a / scale;
        ssq += r * r;
      }
    }
  }
  return scale * std::sqrt(ssq);
}

double asum(std::span<const double> x) noexcept {
  double s = 0.0;
  for (double v : x) s += std::fabs(v);
  return s;
}

index_t iamax(std::span<const double> x) noexcept {
  if (x.empty()) return -1;
  index_t best = 0;
  double best_abs = std::fabs(x[0]);
  for (std::size_t i = 1; i < x.size(); ++i) {
    const double a = std::fabs(x[i]);
    if (a > best_abs) {
      best_abs = a;
      best = static_cast<index_t>(i);
    }
  }
  return best;
}

// ----- Level 2 --------------------------------------------------------------

void gemv(double alpha, const Matrix& a, std::span<const double> x,
          double beta, std::span<double> y) {
  CATALYST_REQUIRE_AS(static_cast<index_t>(x.size()) == a.cols() &&
                          static_cast<index_t>(y.size()) == a.rows(),
                      DimensionError, "gemv: shape mismatch");
  scal(beta, y);
  for (index_t j = 0; j < a.cols(); ++j) {
    const double axj = alpha * x[static_cast<std::size_t>(j)];
    if (axj == 0.0) continue;
    auto cj = a.col(j);
    for (index_t i = 0; i < a.rows(); ++i) {
      y[static_cast<std::size_t>(i)] += axj * cj[static_cast<std::size_t>(i)];
    }
  }
}

Vector matvec(const Matrix& a, std::span<const double> x) {
  Vector y(static_cast<std::size_t>(a.rows()), 0.0);
  gemv(1.0, a, x, 0.0, y);
  return y;
}

Vector matvec_t(const Matrix& a, std::span<const double> x) {
  CATALYST_REQUIRE_AS(static_cast<index_t>(x.size()) == a.rows(),
                      DimensionError, "matvec_t: shape mismatch");
  Vector y(static_cast<std::size_t>(a.cols()));
  for (index_t j = 0; j < a.cols(); ++j) {
    y[static_cast<std::size_t>(j)] = dot(a.col(j), x);
  }
  return y;
}

// ----- Level 3 --------------------------------------------------------------

void gemm(double alpha, const Matrix& a, bool trans_a, const Matrix& b,
          bool trans_b, double beta, Matrix& c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t kdim = trans_a ? a.rows() : a.cols();
  CATALYST_REQUIRE_AS((trans_a ? a.cols() : a.rows()) == m &&
                          (trans_b ? b.rows() : b.cols()) == n &&
                          (trans_b ? b.cols() : b.rows()) == kdim,
                      DimensionError, "gemm: shape mismatch");
  for (index_t j = 0; j < n; ++j) {
    auto cj = c.col(j);
    scal(beta, cj);
    for (index_t k = 0; k < kdim; ++k) {
      const double f = alpha * (trans_b ? b(j, k) : b(k, j));
      if (f == 0.0) continue;
      for (index_t i = 0; i < m; ++i) {
        cj[static_cast<std::size_t>(i)] += f * (trans_a ? a(k, i) : a(i, k));
      }
    }
  }
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  gemm(1.0, a, false, b, false, 0.0, c);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  gemm(1.0, a, true, b, false, 0.0, c);
  return c;
}

// ----- Triangular solves ------------------------------------------------------

void trsv_upper_t(const Matrix& r, std::span<double> b) {
  const auto n = static_cast<index_t>(b.size());
  CATALYST_REQUIRE_AS(r.rows() >= n && r.cols() >= n, DimensionError,
                      "trsv_upper_t: matrix smaller than rhs");
  const double dtol = triangular_diag_tolerance(r, n);
  // R^T is lower triangular with (R^T)(i,j) = R(j,i); forward substitution.
  for (index_t i = 0; i < n; ++i) {
    double s = b[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < i; ++j) {
      s -= r(j, i) * b[static_cast<std::size_t>(j)];
    }
    const double d = r(i, i);
    if (std::fabs(d) <= dtol) {
      throw SingularError("trsv_upper_t: diagonal entry " + std::to_string(i) +
                          " is at or below noise scale");
    }
    b[static_cast<std::size_t>(i)] = s / d;
  }
}

// ----- Norms -----------------------------------------------------------------

double norm_frobenius(const Matrix& a) noexcept { return nrm2(a.data()); }

double norm_one(const Matrix& a) noexcept {
  double best = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) best = std::max(best, asum(a.col(j)));
  return best;
}

double norm_inf(const Matrix& a) noexcept {
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) s += std::fabs(a(i, j));
    best = std::max(best, s);
  }
  return best;
}

double norm_two_estimate(const Matrix& a, int iters, unsigned long seed) {
  if (a.empty()) return 0.0;
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Vector v(static_cast<std::size_t>(a.cols()));
  for (double& x : v) x = dist(rng);
  double nv = nrm2(v);
  if (nv == 0.0) {
    v[0] = 1.0;
    nv = 1.0;
  }
  scal(1.0 / nv, v);
  double sigma = 0.0;
  for (int it = 0; it < iters; ++it) {
    Vector av = matvec(a, v);       // A v
    Vector w = matvec_t(a, av);     // A^T A v
    const double nw = nrm2(w);
    if (nw == 0.0) return 0.0;      // v in null space; A has tiny norm anyway
    sigma = std::sqrt(nw);          // ||A^T A v|| -> sigma_max^2 as v aligns
    scal(1.0 / nw, w);
    v = std::move(w);
  }
  return sigma;
}

}  // namespace catalyst::linalg
