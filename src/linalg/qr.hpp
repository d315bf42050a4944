// catalyst/linalg -- Householder QR factorization (no pivoting).
//
// Factorizes A (m x n, m >= n is typical but not required) as A = Q R with Q
// orthogonal (m x m, applied implicitly) and R upper trapezoidal.  The
// factored form stores the essential reflector vectors below the diagonal of
// the packed matrix, LAPACK dgeqrf-style, plus the tau coefficients.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace catalyst::linalg {

/// Packed Householder QR factorization of a matrix.
class QrFactorization {
 public:
  /// Factors `a`; the input is copied and factored in place.
  explicit QrFactorization(Matrix a);

  index_t rows() const noexcept { return qr_.rows(); }
  index_t cols() const noexcept { return qr_.cols(); }

  /// Number of reflectors == min(rows, cols).
  index_t reflectors() const noexcept {
    return static_cast<index_t>(taus_.size());
  }

  /// The upper-trapezoidal factor R (min(m,n) x n).
  Matrix r() const;

  /// The thin orthogonal factor Q (m x min(m,n)), formed explicitly.
  Matrix q_thin() const;

  /// Applies Q^T to a vector of length rows() in place.
  void apply_qt(std::span<double> b) const;

  /// |R(i,i)| for i in [0, reflectors()): used by callers for rank checks.
  /// Cached at construction -- calling this in a loop costs nothing.
  const std::vector<double>& r_diagonal_abs() const noexcept {
    return r_diag_abs_;
  }

  /// Access to the packed factorization (R above diagonal, reflectors below).
  const Matrix& packed() const noexcept { return qr_; }
  const std::vector<double>& taus() const noexcept { return taus_; }

 private:
  void cache_r_diagonal();

  Matrix qr_;                      // packed R + reflectors
  std::vector<double> taus_;       // reflector coefficients
  std::vector<double> r_diag_abs_; // |R(i,i)|, cached at construction
};

}  // namespace catalyst::linalg
