#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/contract.hpp"
#include "linalg/audit.hpp"
#include "linalg/householder.hpp"

namespace catalyst::linalg {

QrFactorization::QrFactorization(Matrix a) : qr_(std::move(a)) {
  Matrix original;
  if (audit::enabled()) original = qr_;
  const index_t m = qr_.rows();
  const index_t n = qr_.cols();
  const index_t k = std::min(m, n);
  taus_.assign(static_cast<std::size_t>(std::max<index_t>(k, 0)), 0.0);
  for (index_t j = 0; j < k; ++j) {
    auto cj = qr_.col(j);
    auto head = cj.subspan(static_cast<std::size_t>(j));
    Reflector h = make_reflector(head);
    taus_[static_cast<std::size_t>(j)] = h.tau;
    // head[1:] now holds the essential reflector; head[0] must become beta,
    // but we keep the essential part stored below the diagonal, so write
    // beta into the diagonal slot after applying the reflector to the
    // trailing columns.
    auto v = head.subspan(1);
    apply_reflector_left(qr_, j, j + 1, v, h.tau);
    cj[static_cast<std::size_t>(j)] = h.beta;
  }
  cache_r_diagonal();
  if (audit::enabled()) audit::check_qr(original, *this);
}

Matrix QrFactorization::r() const {
  const index_t k = reflectors();
  const index_t n = qr_.cols();
  Matrix out(k, n);
  for (index_t j = 0; j < n; ++j) {
    const index_t top = std::min<index_t>(j + 1, k);
    for (index_t i = 0; i < top; ++i) out(i, j) = qr_(i, j);
  }
  return out;
}

Matrix QrFactorization::q_thin() const {
  const index_t m = qr_.rows();
  const index_t k = reflectors();
  Matrix q(m, k);
  for (index_t j = 0; j < k; ++j) q(j, j) = 1.0;
  // Accumulate Q = H_0 H_1 ... H_{k-1} * I by applying reflectors from the
  // last to the first.
  for (index_t j = k - 1; j >= 0; --j) {
    auto cj = qr_.col(j);
    auto v = cj.subspan(static_cast<std::size_t>(j + 1));
    apply_reflector_left(q, j, 0, v, taus_[static_cast<std::size_t>(j)]);
  }
  return q;
}

void QrFactorization::apply_qt(std::span<double> b) const {
  CATALYST_REQUIRE_AS(static_cast<index_t>(b.size()) == qr_.rows(),
                      DimensionError, "apply_qt: wrong vector length");
  for (index_t j = 0; j < reflectors(); ++j) {
    auto cj = qr_.col(j);
    auto v = cj.subspan(static_cast<std::size_t>(j + 1));
    apply_reflector_vec(b, j, v, taus_[static_cast<std::size_t>(j)]);
  }
}

void QrFactorization::cache_r_diagonal() {
  r_diag_abs_.resize(static_cast<std::size_t>(reflectors()));
  for (index_t i = 0; i < reflectors(); ++i) {
    r_diag_abs_[static_cast<std::size_t>(i)] = std::fabs(qr_(i, i));
  }
}

}  // namespace catalyst::linalg
