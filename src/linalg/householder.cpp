#include "linalg/householder.hpp"

#include <cmath>

#include "linalg/blas.hpp"

namespace catalyst::linalg {

Reflector make_reflector(std::span<double> x) {
  Reflector h;
  if (x.empty()) return h;
  const double alpha = x[0];
  auto tail = x.subspan(1);
  const double xnorm = nrm2(tail);
  if (xnorm == 0.0) {
    // Already of the form (alpha, 0, ..., 0): H = I.
    h.tau = 0.0;
    h.beta = alpha;
    return h;
  }
  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  h.tau = (beta - alpha) / beta;
  const double inv = 1.0 / (alpha - beta);
  scal(inv, tail);
  h.beta = beta;
  return h;
}

void apply_reflector_left(Matrix& a, index_t r0, index_t c0,
                          std::span<const double> v_essential, double tau) {
  if (tau == 0.0) return;
  const index_t m = a.rows();
  if (r0 < 0 || r0 >= m ||
      static_cast<index_t>(v_essential.size()) != m - r0 - 1) {
    throw DimensionError("apply_reflector_left: bad reflector length");
  }
  for (index_t j = c0; j < a.cols(); ++j) {
    auto cj = a.col(j);
    // w = v^T * A[r0:, j] with v = (1, v_essential).
    double w = cj[static_cast<std::size_t>(r0)];
    for (index_t i = r0 + 1; i < m; ++i) {
      w += v_essential[static_cast<std::size_t>(i - r0 - 1)] *
           cj[static_cast<std::size_t>(i)];
    }
    w *= tau;
    cj[static_cast<std::size_t>(r0)] -= w;
    for (index_t i = r0 + 1; i < m; ++i) {
      cj[static_cast<std::size_t>(i)] -=
          w * v_essential[static_cast<std::size_t>(i - r0 - 1)];
    }
  }
}

void apply_reflector_vec(std::span<double> b, index_t r0,
                         std::span<const double> v_essential, double tau) {
  if (tau == 0.0) return;
  const auto m = static_cast<index_t>(b.size());
  if (r0 < 0 || r0 >= m ||
      static_cast<index_t>(v_essential.size()) != m - r0 - 1) {
    throw DimensionError("apply_reflector_vec: bad reflector length");
  }
  double w = b[static_cast<std::size_t>(r0)];
  for (index_t i = r0 + 1; i < m; ++i) {
    w += v_essential[static_cast<std::size_t>(i - r0 - 1)] *
         b[static_cast<std::size_t>(i)];
  }
  w *= tau;
  b[static_cast<std::size_t>(r0)] -= w;
  for (index_t i = r0 + 1; i < m; ++i) {
    b[static_cast<std::size_t>(i)] -=
        w * v_essential[static_cast<std::size_t>(i - r0 - 1)];
  }
}

}  // namespace catalyst::linalg
