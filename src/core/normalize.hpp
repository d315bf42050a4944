// catalyst/core -- expectation-basis normalization (Section III-B).
//
// Projects each surviving raw event's averaged measurement vector me onto
// the benchmark's expectation basis by solving E * xe = me in the
// least-squares sense -- one block solve for every event, against a single
// QR of E.  Events whose backward error exceeds a threshold cannot be
// expressed in the ideal-event coordinate system (e.g. a cycles counter
// during the FLOPs benchmark) and are disregarded; the survivors' xe
// vectors become the columns of the matrix X that feeds the specialized
// QRCP (Section V).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace catalyst::core {

/// Outcome of the normalization stage; column i of the input is event i.
struct NormalizationResult {
  /// Basis dims x events: column i is event i's coordinates xe in the
  /// expectation basis.
  linalg::Matrix xe;
  /// Eq. 5 fitness of E * xe = me, one per event.
  std::vector<double> backward_errors;
  /// The events whose backward error is at most the threshold, ascending:
  /// column j of `x` is event representable[j].
  std::vector<linalg::index_t> representable;
  /// The matrix X: xe's representable columns.
  linalg::Matrix x;
};

/// Solves E * xe = me for every column me of `measurements` and assembles X
/// from the events whose backward error is at most `max_backward_error`.
///
/// `expectation` is the slots x ideal-events basis matrix; `measurements`
/// is slots x events (normalized per-iteration readings, one column per
/// event).  Each column's solution is independent of the others, so the
/// solve runs on up to `threads` workers with bit-identical results.
NormalizationResult normalize_events(const linalg::Matrix& expectation,
                                     const linalg::Matrix& measurements,
                                     double max_backward_error,
                                     int threads = 1);

}  // namespace catalyst::core
