// catalyst/core -- noise analysis (Section IV of the paper).
//
// Quantifies the run-to-run variability of every event with the maximum
// root normalized mean-square error (max RNMSE, Eq. 4) over all pairs of
// repetition vectors, then filters events whose variability exceeds a
// threshold tau.  Events whose measurements are all zero in every
// repetition are discarded as irrelevant (footnote 1 of the paper).  The
// survivors' repetition averages come out as one slots x kept matrix, the
// block the projection (core/normalize.hpp) solves against E in one call.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "vpapi/measurements.hpp"

namespace catalyst::core {

/// Eq. 4 for one pair:  ||m_i - m_j||_2 / sqrt(N * mean(m_i) * mean(m_j)).
/// If either mean is zero the variability is defined as 1 (100% error).
double rnmse(std::span<const double> mi, std::span<const double> mj);

/// Max RNMSE over all pairs of event e's repetition vectors; `m` must hold
/// at least two repetitions.  Returns 0 when all pairs agree exactly.
double max_rnmse(const vpapi::Measurements& m, std::size_t e);

/// Variability verdict for one event.
struct EventVariability {
  std::string event_name;
  double max_rnmse = 0.0;
  bool all_zero = false;  ///< Every reading in every repetition was zero.
};

/// Outcome of the noise-filtering stage.
struct NoiseFilterResult {
  /// Per-event variability (parallel to the input event order), for Fig. 2.
  std::vector<EventVariability> variabilities;
  /// Indices (into the input event order) of events kept: non-zero and
  /// with max RNMSE <= tau.
  std::vector<std::size_t> kept;
  /// Slots x kept: column i is event kept[i]'s measurement vector averaged
  /// across repetitions -- the right-hand sides of the projection's one
  /// block solve.
  linalg::Matrix averaged;
};

/// Runs the Section IV analysis.
/// `measurements.row(e, r)` is event e's measurement vector at repetition
/// r; `event_names[e]` labels it.
NoiseFilterResult filter_noise(const std::vector<std::string>& event_names,
                               const vpapi::Measurements& measurements,
                               double tau);

/// Median of `values`; the across-thread noise suppressor used for the
/// data-cache benchmark (Section IV, last paragraph).  Even-sized inputs
/// return the mean of the two middle elements.  Throws on empty input.
double median(std::vector<double> values);

}  // namespace catalyst::core
