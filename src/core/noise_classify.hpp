// catalyst/core -- noise classification (the paper's future work).
//
// The paper's Section IV reduces run-to-run variability to one number (max
// RNMSE) and its conclusion calls for "different measures to quantify event
// noise".  This module implements that direction: from the same repetition
// data, each event is classified into a noise regime --
//
//   silent         every reading zero (discarded as irrelevant anyway);
//   deterministic  identical vectors in every repetition;
//   drifting       a systematic monotone trend across repetitions
//                  (thermal ramp / frequency scaling);
//   spiky          dominated by rare large outliers (interrupt/SMM hits);
//   gaussian       broadband zero-mean jitter (everything else).
//
// The classes suggest different remedies: drifting events can be detrended
// rather than discarded, spiky events can be median-filtered, gaussian
// events need averaging -- a finer policy than the single tau cutoff.
#pragma once

#include <cstddef>

#include "vpapi/measurements.hpp"

namespace catalyst::core {

enum class NoiseClass {
  silent,
  deterministic,
  drifting,
  spiky,
  gaussian,
};

const char* to_string(NoiseClass c) noexcept;

/// Quantitative evidence behind a classification.
struct NoiseProfile {
  NoiseClass cls = NoiseClass::silent;
  double max_rnmse = 0.0;     ///< Section IV's measure, for reference.
  /// Pearson correlation between repetition index and the repetition's
  /// mean reading; |r| near 1 indicates a systematic trend.
  double drift_correlation = 0.0;
  /// Relative magnitude of the fitted per-repetition trend (slope * reps /
  /// mean); the drift verdict needs both a high correlation and a
  /// non-negligible magnitude.
  double drift_magnitude = 0.0;
  /// max |deviation from element-wise median| / median |nonzero deviation|;
  /// large values mean a few readings carry most of the variability.
  double spike_ratio = 0.0;
};

/// Classifies event e's repetition data (m.row(e, r), >= 2 repetitions of
/// non-empty vectors).  `drift_threshold` bounds |drift_correlation| and
/// `spike_threshold` bounds spike_ratio for the respective verdicts.
NoiseProfile classify_noise(const vpapi::Measurements& m, std::size_t e,
                            double drift_threshold = 0.9,
                            double spike_threshold = 8.0);

/// Removes a systematic multiplicative trend from event e's repetition
/// data, in place: fits scale_r = mean(m.row(e, r)) / mean(all) by least
/// squares against the repetition index and divides each repetition by its
/// fitted scale.  A drifting-but-otherwise-clean event becomes usable by
/// the tau filter instead of being discarded (the remedy the classification
/// suggests).  An event with zero mean is left untouched.
void detrend_repetitions(vpapi::Measurements& m, std::size_t e);

}  // namespace catalyst::core
