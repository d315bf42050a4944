#include "core/normalize.hpp"

#include <stdexcept>

#include "core/contract.hpp"
#include "linalg/lstsq.hpp"

namespace catalyst::core {

NormalizationResult normalize_events(const linalg::Matrix& expectation,
                                     const linalg::Matrix& measurements,
                                     double max_backward_error,
                                     int threads) {
  CATALYST_REQUIRE_AS(measurements.rows() == expectation.rows(),
                      std::invalid_argument,
                      "normalize_events: measurement length != basis rows");
  CATALYST_REQUIRE_AS(max_backward_error >= 0.0, std::invalid_argument,
                      "normalize_events: negative threshold");
  linalg::LstsqBlockResult ls = linalg::lstsq(
      expectation, measurements, linalg::kLstsqRcond, threads);
  NormalizationResult result;
  for (linalg::index_t e = 0; e < measurements.cols(); ++e) {
    if (ls.backward_errors[static_cast<std::size_t>(e)] <=
        max_backward_error) {
      result.representable.push_back(e);
    }
  }
  result.x = ls.x.select_columns(result.representable);
  result.xe = std::move(ls.x);
  result.backward_errors = std::move(ls.backward_errors);
  return result;
}

}  // namespace catalyst::core
