#include "core/normalize.hpp"

#include <stdexcept>

#include "core/contract.hpp"

namespace catalyst::core {

NormalizationResult normalize_events(
    const linalg::Matrix& expectation,
    const std::vector<std::string>& event_names,
    const std::vector<std::vector<double>>& measurements,
    double max_backward_error) {
  CATALYST_REQUIRE_AS(event_names.size() == measurements.size(),
                      std::invalid_argument,
                      "normalize_events: names/measurements mismatch");
  CATALYST_REQUIRE_AS(max_backward_error >= 0.0, std::invalid_argument,
                      "normalize_events: negative threshold");
  NormalizationResult result;
  result.representations.resize(event_names.size());
  // One QR of E serves every event (the per-event solves used to refactor E
  // from scratch); each solve is arithmetically identical to
  // lstsq(expectation, me).
  const linalg::LstsqSolver solver(expectation);
  for (std::size_t e = 0; e < event_names.size(); ++e) {
    const auto& me = measurements[e];
    CATALYST_REQUIRE_AS(
        static_cast<linalg::index_t>(me.size()) == expectation.rows(),
        std::invalid_argument,
        "normalize_events: measurement length != basis rows for " +
            event_names[e]);
    EventRepresentation rep;
    rep.event_name = event_names[e];
    const auto ls = solver.solve(me);
    rep.xe = ls.x;
    rep.backward_error = ls.backward_error;
    rep.representable = ls.backward_error <= max_backward_error;
    result.representations[e] = std::move(rep);
  }
  // Assemble X in input order.
  std::vector<linalg::Vector> x_cols;
  for (const auto& rep : result.representations) {
    if (rep.representable) {
      x_cols.push_back(rep.xe);
      result.x_event_names.push_back(rep.event_name);
    }
  }
  if (!x_cols.empty()) {
    result.x = linalg::Matrix::from_columns(x_cols);
  } else {
    result.x = linalg::Matrix(expectation.cols(), 0);
  }
  return result;
}

}  // namespace catalyst::core
