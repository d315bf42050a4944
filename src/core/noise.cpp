#include "core/noise.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/contract.hpp"
#include "linalg/blas.hpp"

namespace catalyst::core {

double rnmse(std::span<const double> mi, std::span<const double> mj) {
  CATALYST_REQUIRE_AS(mi.size() == mj.size() && !mi.empty(),
                      std::invalid_argument,
                      "rnmse: vectors must be non-empty and equal");
  const auto n = static_cast<double>(mi.size());
  double diff_sq = 0.0;
  double sum_i = 0.0;
  double sum_j = 0.0;
  for (std::size_t k = 0; k < mi.size(); ++k) {
    const double d = mi[k] - mj[k];
    diff_sq += d * d;
    sum_i += mi[k];
    sum_j += mj[k];
  }
  const double mean_i = sum_i / n;
  const double mean_j = sum_j / n;
  const double denom_sq = n * mean_i * mean_j;
  if (denom_sq <= 0.0) {
    // Zero (or sign-cancelled) average: 100% error by definition, unless the
    // vectors are exactly identical (both all zero), which footnote 1
    // handles separately via the all-zero discard.
    return diff_sq == 0.0 && sum_i == 0.0 && sum_j == 0.0 ? 0.0 : 1.0;
  }
  const double out = std::sqrt(diff_sq / denom_sq);
  // RNMSE is not bounded by 1 (disjoint supports give values above it), but a
  // negative or non-finite value means the accumulation itself broke.
  CATALYST_ENSURE(std::isfinite(out) && out >= 0.0,
                  "rnmse: non-finite or negative result");
  return out;
}

double max_rnmse(const vpapi::Measurements& m, std::size_t e) {
  CATALYST_REQUIRE_AS(m.repetitions() >= 2, std::invalid_argument,
                      "max_rnmse: need at least two repetitions");
  double worst = 0.0;
  for (std::size_t i = 0; i < m.repetitions(); ++i) {
    for (std::size_t j = i + 1; j < m.repetitions(); ++j) {
      worst = std::max(worst, rnmse(m.row(e, i), m.row(e, j)));
    }
  }
  return worst;
}

NoiseFilterResult filter_noise(const std::vector<std::string>& event_names,
                               const vpapi::Measurements& measurements,
                               double tau) {
  CATALYST_REQUIRE_AS(event_names.size() == measurements.size(),
                      std::invalid_argument,
                      "filter_noise: names/measurements mismatch");
  CATALYST_REQUIRE_AS(tau >= 0.0, std::invalid_argument,
                      "filter_noise: negative tau");
  NoiseFilterResult result;
  const std::size_t ne = event_names.size();
  const std::size_t n_slots = measurements.slots();
  const std::size_t n_reps = measurements.repetitions();
  result.variabilities.reserve(ne);
  // The kept events' averages, one slots-long column each, written while
  // the event's rows are still in cache.
  std::vector<double> averaged;
  averaged.reserve(ne * n_slots);
  for (std::size_t e = 0; e < ne; ++e) {
    const std::span<const double> block = measurements.event(e);
    EventVariability v;
    v.event_name = event_names[e];
    v.all_zero = std::all_of(block.begin(), block.end(),
                             [](double x) { return x == 0.0; });
    v.max_rnmse = max_rnmse(measurements, e);
    if (!v.all_zero && v.max_rnmse <= tau) {
      // Average across repetitions (identical vectors average to themselves;
      // noisy-but-kept events get smoothed).
      averaged.resize(averaged.size() + n_slots, 0.0);
      const std::span<double> avg(averaged.end() - n_slots, averaged.end());
      for (std::size_t r = 0; r < n_reps; ++r) {
        const std::span<const double> rep = measurements.row(e, r);
        for (std::size_t k = 0; k < n_slots; ++k) avg[k] += rep[k];
      }
      for (double& x : avg) x /= static_cast<double>(n_reps);
      result.kept.push_back(e);
    }
    result.variabilities.push_back(std::move(v));
  }
  result.averaged = linalg::Matrix(
      static_cast<linalg::index_t>(n_slots),
      static_cast<linalg::index_t>(result.kept.size()), std::move(averaged));
  return result;
}

double median(std::vector<double> values) {
  CATALYST_REQUIRE_AS(!values.empty(), std::invalid_argument,
                      "median: empty input");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = values[mid];
  if (values.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lo + hi);
}

}  // namespace catalyst::core
