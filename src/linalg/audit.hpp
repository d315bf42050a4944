// catalyst/linalg -- opt-in numerical invariant audits.
//
// The pipeline's conclusions rest on a handful of linear-algebra invariants
// that ordinary unit tests only sample: Q from a Householder factorization
// is orthonormal, R is upper triangular, a least-squares solution actually
// minimizes the residual.  This module makes those invariants checkable *in
// production data paths*: when audits are enabled (set_enabled(true) or
// CATALYST_AUDIT=1 in the environment), QrFactorization and lstsq() verify
// their own output after every factorization/solve and report violations
// through the contract layer (AuditError under the throw policy).  When
// disabled -- the default -- the hooks cost one branch.
//
// The audit_pipeline ctest runs the full paper pipeline with audits on; the
// measurement functions (orthogonality_error, ...) are also usable directly
// by tests and diagnostics.
#pragma once

#include <span>
#include <vector>

#include "linalg/error.hpp"
#include "linalg/matrix.hpp"

namespace catalyst::linalg {

class QrFactorization;

namespace audit {

/// Thrown (under the default contract policy) when an enabled audit fails.
class AuditError : public LinalgError {
 public:
  explicit AuditError(const std::string& what) : LinalgError(what) {}
};

/// Whether the in-path audit hooks are active.  Initialized from the
/// CATALYST_AUDIT environment variable ("1"/"on"/"true"); overridable at
/// runtime.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// RAII enable/disable, restoring the previous state on scope exit.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) noexcept : previous_(enabled()) {
    set_enabled(on);
  }
  ~EnabledGuard() { set_enabled(previous_); }
  EnabledGuard(const EnabledGuard&) = delete;
  EnabledGuard& operator=(const EnabledGuard&) = delete;

 private:
  bool previous_;
};

/// How many audits have run since the last reset_counts(); lets the
/// audit_pipeline test assert the hooks actually fired.
struct AuditCounts {
  std::size_t orthogonality = 0;   ///< ||Q^T Q - I|| checks.
  std::size_t triangularity = 0;   ///< strict upper-triangularity checks.
  std::size_t factorization = 0;   ///< ||A P - Q R|| reconstruction checks.
  std::size_t lstsq = 0;           ///< least-squares optimality checks.
};
AuditCounts counts() noexcept;
void reset_counts() noexcept;

// ----- Measurements (always available, independent of enabled()) ------------

/// ||Q^T Q - I||_F: deviation of Q's columns from orthonormality.
double orthogonality_error(const Matrix& q);

/// max_{i > j} |r(i, j)|: largest entry strictly below the diagonal.
double max_below_diagonal(const Matrix& r);

/// ||A^T (b - A x)||_2: the normal-equations residual.  Zero (to rounding)
/// iff x minimizes ||A x - b||_2 for full-column-rank A.
double normal_equations_residual(const Matrix& a, std::span<const double> x,
                                 std::span<const double> b);

// ----- Checks (report through the contract layer when violated) -------------

/// Q's columns must be orthonormal to factorization accuracy:
/// ||Q^T Q - I||_F <= 100 * max(m, n) * eps.
void check_orthonormal(const Matrix& q);

/// R must be strictly upper triangular: every below-diagonal entry == 0.
void check_upper_triangular(const Matrix& r);

/// Q * R must reconstruct the (column-permuted) input:
/// ||A P - Q R||_F <= 100 * max(m, n) * eps * ||A||_F.
void check_factorization(const Matrix& original_permuted, const Matrix& q,
                         const Matrix& r);

/// x must minimize ||A x - b||_2: the normal-equations residual is bounded
/// by rounding noise of the factorization.  Only meaningful for
/// full-column-rank solves; callers skip it for regularized basic solutions.
void check_lstsq_optimal(const Matrix& a, std::span<const double> x,
                         std::span<const double> b);

/// Full post-factorization audit of a QrFactorization against its input.
/// Runs the orthogonality, triangularity and reconstruction checks.
void check_qr(const Matrix& original, const QrFactorization& qr);

}  // namespace audit
}  // namespace catalyst::linalg
