// catalyst/linalg -- Householder reflector primitives.
//
// A reflector H = I - tau * v * v^T (with v[0] = 1 implicitly stored) is the
// building block of both the plain QR factorization and the paper's
// column-pivoted QR in catalyst::core.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace catalyst::linalg {

/// Result of generating a Householder reflector for a vector x:
/// H x = (beta, 0, ..., 0)^T where H = I - tau v v^T and v[0] == 1.
struct Reflector {
  double tau = 0.0;   ///< Reflector coefficient; 0 means H == I.
  double beta = 0.0;  ///< Resulting leading entry of H x.
};

/// Generates a reflector annihilating x[1:] in place.
/// On return, x[0] is unchanged conceptually (beta is returned separately)
/// and x[1:] holds the essential part of v (v[0] == 1 implicit).
/// Follows the LAPACK dlarfg convention: beta has sign opposite to x[0]
/// so that the computation is backward stable.
Reflector make_reflector(std::span<double> x);

/// Applies H = I - tau v v^T from the left to the trailing block
/// A[r0:, c0:]:  A <- H A.  `v` is the essential part (v[0] == 1 implicit)
/// of length A.rows() - r0 - 1; i.e. the reflector acts on rows [r0, rows).
void apply_reflector_left(Matrix& a, index_t r0, index_t c0,
                          std::span<const double> v_essential, double tau);

/// Applies the same reflector to a single right-hand-side vector b[r0:].
void apply_reflector_vec(std::span<double> b, index_t r0,
                         std::span<const double> v_essential, double tau);

}  // namespace catalyst::linalg
