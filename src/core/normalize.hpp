// catalyst/core -- expectation-basis normalization (Section III-B).
//
// Projects each surviving raw event's averaged measurement vector me onto
// the benchmark's expectation basis by solving E * xe = me in the
// least-squares sense.  Events whose backward error exceeds a threshold
// cannot be expressed in the ideal-event coordinate system (e.g. a cycles
// counter during the FLOPs benchmark) and are disregarded; the survivors'
// xe vectors become the columns of the matrix X that feeds the specialized
// QRCP (Section V).
#pragma once

#include <string>
#include <vector>

#include "linalg/lstsq.hpp"
#include "linalg/matrix.hpp"

namespace catalyst::core {

/// One event's projection onto the expectation basis.
struct EventRepresentation {
  std::string event_name;
  linalg::Vector xe;           ///< Coordinates in the expectation basis.
  double backward_error = 0.0; ///< Eq. 5 fitness of E*xe = me.
  bool representable = false;  ///< backward_error <= threshold.
};

/// Outcome of the normalization stage.
struct NormalizationResult {
  /// Every event's projection (parallel to the input order), for reporting.
  std::vector<EventRepresentation> representations;
  /// The matrix X: one column per representable event, rows = basis dims.
  linalg::Matrix x;
  /// Column labels of `x` (names of the representable events).
  std::vector<std::string> x_event_names;
};

/// Solves E * xe = me for every event and assembles X from the events whose
/// backward error is at most `max_backward_error`.
///
/// `expectation` is the slots x ideal-events basis matrix; each
/// `measurements[e]` must have expectation.rows() entries (normalized
/// per-iteration readings).
///
/// E is factored ONCE (linalg::LstsqSolver); every per-event solve is
/// arithmetically identical to lstsq(expectation, me).
NormalizationResult normalize_events(
    const linalg::Matrix& expectation,
    const std::vector<std::string>& event_names,
    const std::vector<std::vector<double>>& measurements,
    double max_backward_error);

}  // namespace catalyst::core
