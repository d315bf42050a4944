#include "core/noise_classify.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/noise.hpp"

namespace catalyst::core {

const char* to_string(NoiseClass c) noexcept {
  switch (c) {
    case NoiseClass::silent: return "silent";
    case NoiseClass::deterministic: return "deterministic";
    case NoiseClass::drifting: return "drifting";
    case NoiseClass::spiky: return "spiky";
    case NoiseClass::gaussian: return "gaussian";
  }
  return "?";
}

namespace {

/// Event e's mean reading per repetition; `grand_mean` gets their mean.
/// `caller` names the refusal of fewer than two repetitions or no slots.
std::vector<double> repetition_means(const vpapi::Measurements& m,
                                     std::size_t e, const char* caller,
                                     double& grand_mean) {
  if (m.repetitions() < 2 || m.slots() == 0) {
    throw std::invalid_argument(
        std::string(caller) + ": need >= 2 repetitions of non-empty vectors");
  }
  std::vector<double> means(m.repetitions(), 0.0);
  grand_mean = 0.0;
  for (std::size_t r = 0; r < means.size(); ++r) {
    for (double v : m.row(e, r)) means[r] += v;
    means[r] /= static_cast<double>(m.slots());
    grand_mean += means[r];
  }
  grand_mean /= static_cast<double>(means.size());
  return means;
}

}  // namespace

NoiseProfile classify_noise(const vpapi::Measurements& m, std::size_t e,
                            double drift_threshold, double spike_threshold) {
  double grand_mean = 0.0;
  const std::vector<double> rep_means =
      repetition_means(m, e, "classify_noise", grand_mean);
  const std::size_t n_reps = m.repetitions();
  const std::size_t n_slots = m.slots();

  NoiseProfile profile;
  profile.max_rnmse = max_rnmse(m, e);

  // Silent / deterministic fast paths (exact equality is transitive, so
  // each repetition matching the one before means all match the first).
  const std::span<const double> block = m.event(e);
  if (std::ranges::all_of(block, [](double x) { return x == 0.0; })) {
    profile.cls = NoiseClass::silent;
    return profile;
  }
  if (std::equal(block.begin() + n_slots, block.end(), block.begin())) {
    profile.cls = NoiseClass::deterministic;
    return profile;
  }

  // Drift: correlate the repetition index with the repetition mean.
  {
    const double x_mean = (static_cast<double>(n_reps) - 1.0) / 2.0;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t r = 0; r < n_reps; ++r) {
      const double dx = static_cast<double>(r) - x_mean;
      const double dy = rep_means[r] - grand_mean;
      sxy += dx * dy;
      sxx += dx * dx;
      syy += dy * dy;
    }
    if (sxx > 0.0 && syy > 0.0) {
      profile.drift_correlation = sxy / std::sqrt(sxx * syy);
      const double slope = sxy / sxx;
      if (grand_mean != 0.0) {
        profile.drift_magnitude =
            std::fabs(slope * static_cast<double>(n_reps - 1) / grand_mean);
      }
    }
  }

  // Spikes: compare each reading to its slot's across-rep median; a spiky
  // event has one deviation much larger than the slot's typical one.  The
  // ratio is computed per slot (deviation scales differ across slots when
  // counts do) and the worst slot decides.
  {
    std::vector<double> column(n_reps);
    for (std::size_t k = 0; k < n_slots; ++k) {
      for (std::size_t r = 0; r < n_reps; ++r) column[r] = m.row(e, r)[k];
      const double slot_median = median(column);
      std::vector<double> deviations(n_reps);
      double dmax = 0.0;
      for (std::size_t r = 0; r < n_reps; ++r) {
        deviations[r] = std::fabs(m.row(e, r)[k] - slot_median);
        dmax = std::max(dmax, deviations[r]);
      }
      if (dmax == 0.0) continue;  // slot is perfectly stable
      const double dmed = median(deviations);
      // A zero median deviation with a nonzero max means most readings
      // agree exactly and a few jump: the definition of a spike.
      const double ratio =
          dmed > 0.0 ? dmax / dmed : spike_threshold * 2;
      profile.spike_ratio = std::max(profile.spike_ratio, ratio);
    }
  }

  if (std::fabs(profile.drift_correlation) >= drift_threshold &&
      profile.drift_magnitude > 1e-6) {
    profile.cls = NoiseClass::drifting;
  } else if (profile.spike_ratio >= spike_threshold) {
    profile.cls = NoiseClass::spiky;
  } else {
    profile.cls = NoiseClass::gaussian;
  }
  return profile;
}

void detrend_repetitions(vpapi::Measurements& m, std::size_t e) {
  double grand_mean = 0.0;
  const std::vector<double> rep_means =
      repetition_means(m, e, "detrend_repetitions", grand_mean);
  const std::size_t n_reps = m.repetitions();
  if (grand_mean == 0.0) return;  // nothing to scale against

  // Least-squares line through (r, rep_mean/grand_mean).
  const double x_mean = (static_cast<double>(n_reps) - 1.0) / 2.0;
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t r = 0; r < n_reps; ++r) {
    const double dx = static_cast<double>(r) - x_mean;
    sxy += dx * (rep_means[r] / grand_mean - 1.0);
    sxx += dx * dx;
  }
  const double slope = sxx > 0.0 ? sxy / sxx : 0.0;

  for (std::size_t r = 0; r < n_reps; ++r) {
    const double scale = 1.0 + slope * (static_cast<double>(r) - x_mean);
    if (scale <= 0.0) continue;  // degenerate fit: leave as-is
    for (double& v : m.row(e, r)) v /= scale;
  }
}

}  // namespace catalyst::core
