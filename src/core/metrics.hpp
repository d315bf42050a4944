// catalyst/core -- metric synthesis (Section VI of the paper).
//
// Solves Xhat * y = s in the least-squares sense: Xhat's columns are the
// QR-selected events' basis representations, s is a metric signature, and
// the solution y gives the scaling of each raw event in the composed
// metric.  The Eq. 5 backward error is the fitness: near machine epsilon
// for composable metrics, order-one when the hardware simply has no events
// that can express the concept (e.g. "All Branches Executed" in Table VII).
#pragma once

#include <string>
#include <vector>

#include "core/signatures.hpp"
#include "linalg/matrix.hpp"

namespace catalyst::core {

/// One term of a composed metric: coefficient x raw event.
struct MetricTerm {
  std::string event_name;
  double coefficient = 0.0;
};

/// A metric composed from raw events.
struct MetricDefinition {
  std::string metric_name;
  std::vector<MetricTerm> terms;    ///< Every selected event (incl. ~0 coeffs).
  double backward_error = 0.0;      ///< Eq. 5 fitness.
  bool composable = false;          ///< backward_error <= fitness threshold.
  /// Classical standard error of each coefficient (parallel to `terms`)
  /// under s = Xhat*y + eps, eps ~ N(0, sigma^2 I): quantifies how far from
  /// 0/+-1 a fitted coefficient is EXPECTED to wander given the residual --
  /// the statistical footing for Section VI-D's rounding step.  All zeros
  /// when the system is square (no residual degrees of freedom).
  std::vector<double> coefficient_stderrs;
};

/// Solves Xhat * y = s for every signature as one block against a single
/// QR of Xhat.  `event_names` labels Xhat's columns.  A metric is flagged
/// composable when its backward error is at most `fitness_threshold`.
///
/// Standard errors: sigma_hat^2 = ||r||^2 / (m - n) and stderr_i =
/// sigma_hat * sqrt([(Xhat^T Xhat)^{-1}]_ii) = sigma_hat * ||R^{-T} e_i||,
/// through the QR factor without forming the normal equations.  The norms
/// ||R^{-T} e_i|| do not depend on the signature and are computed once.
/// All zeros when m <= n; zero for a coefficient whose variance is not
/// identified (a singular R).
std::vector<MetricDefinition> solve_metrics(
    const linalg::Matrix& xhat, const std::vector<std::string>& event_names,
    const std::vector<MetricSignature>& signatures,
    double fitness_threshold = 1e-6);

/// Section VI-D's coefficient rounding: coefficients within `rel_tol` of an
/// integer (relatively, or absolutely for near-zero values) snap to that
/// integer.  Returns the rounded copy; terms rounded to zero are kept (with
/// coefficient 0) so callers can still display them.
std::vector<MetricTerm> round_coefficients(const std::vector<MetricTerm>& terms,
                                           double rel_tol = 0.05);

/// Drops zero-coefficient terms (after rounding) for compact display.
std::vector<MetricTerm> drop_zero_terms(const std::vector<MetricTerm>& terms);

}  // namespace catalyst::core
