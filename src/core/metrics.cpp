#include "core/metrics.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "linalg/blas.hpp"
#include "linalg/lstsq.hpp"

namespace catalyst::core {

namespace {

/// ||R^{-T} e_i|| = sqrt([(Xhat^T Xhat)^{-1}]_ii) for each column of the QR
/// of Xhat; nullopt where R is singular at noise scale and the coefficient's
/// variance is not identified.
std::vector<std::optional<double>> inverse_gram_norms(
    const linalg::QrFactorization& qr) {
  const linalg::index_t n = qr.cols();
  std::vector<std::optional<double>> out(static_cast<std::size_t>(n));
  for (linalg::index_t i = 0; i < n; ++i) {
    linalg::Vector e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(i)] = 1.0;
    try {
      linalg::trsv_upper_t(qr.packed(), e);
    } catch (const linalg::SingularError&) {
      continue;
    }
    out[static_cast<std::size_t>(i)] = linalg::nrm2(e);
  }
  return out;
}

}  // namespace

std::vector<MetricDefinition> solve_metrics(
    const linalg::Matrix& xhat, const std::vector<std::string>& event_names,
    const std::vector<MetricSignature>& signatures,
    double fitness_threshold) {
  const linalg::index_t m = xhat.rows();
  const linalg::index_t n = xhat.cols();
  if (static_cast<linalg::index_t>(event_names.size()) != n) {
    throw std::invalid_argument("solve_metrics: name/column count mismatch");
  }
  linalg::Matrix s(m, static_cast<linalg::index_t>(signatures.size()));
  for (std::size_t j = 0; j < signatures.size(); ++j) {
    if (static_cast<linalg::index_t>(signatures[j].coordinates.size()) != m) {
      throw std::invalid_argument(
          "solve_metrics: signature/basis dim mismatch");
    }
    s.set_col(static_cast<linalg::index_t>(j), signatures[j].coordinates);
  }
  const linalg::LstsqBlockResult ls = linalg::lstsq(xhat, s);
  // Without residual degrees of freedom every standard error is zero.
  const std::vector<std::optional<double>> norms =
      m > n && n > 0 ? inverse_gram_norms(ls.qr)
                     : std::vector<std::optional<double>>();

  std::vector<MetricDefinition> defs(signatures.size());
  for (std::size_t j = 0; j < signatures.size(); ++j) {
    MetricDefinition& def = defs[j];
    def.metric_name = signatures[j].name;
    def.backward_error = ls.backward_errors[j];
    def.composable = def.backward_error <= fitness_threshold;
    def.terms.reserve(event_names.size());
    for (std::size_t i = 0; i < event_names.size(); ++i) {
      def.terms.push_back(
          {event_names[i], ls.x(static_cast<linalg::index_t>(i),
                                static_cast<linalg::index_t>(j))});
    }
    def.coefficient_stderrs.assign(event_names.size(), 0.0);
    if (norms.empty()) continue;
    const double rnorm = ls.residual_norms[j];
    const double sigma2 = rnorm * rnorm / static_cast<double>(m - n);
    for (std::size_t i = 0; i < norms.size(); ++i) {
      if (norms[i]) def.coefficient_stderrs[i] = std::sqrt(sigma2) * *norms[i];
    }
  }
  return defs;
}

std::vector<MetricTerm> round_coefficients(const std::vector<MetricTerm>& terms,
                                           double rel_tol) {
  if (rel_tol < 0.0) {
    throw std::invalid_argument("round_coefficients: negative tolerance");
  }
  std::vector<MetricTerm> out = terms;
  for (auto& t : out) {
    const double nearest = std::round(t.coefficient);
    const double diff = std::fabs(t.coefficient - nearest);
    // Relative closeness for integral targets >= 1 ("within 2% of one"),
    // absolute closeness for a zero target ("smaller than 5.87e-3").
    const bool snap = nearest == 0.0
                          ? diff <= rel_tol
                          : diff <= rel_tol * std::fabs(nearest);
    if (snap) t.coefficient = nearest;
  }
  return out;
}

std::vector<MetricTerm> drop_zero_terms(const std::vector<MetricTerm>& terms) {
  std::vector<MetricTerm> out;
  for (const auto& t : terms) {
    if (t.coefficient != 0.0) out.push_back(t);
  }
  return out;
}

}  // namespace catalyst::core
