#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace catalyst::core {

std::string format_combination(const std::vector<MetricTerm>& terms,
                               int precision) {
  std::ostringstream os;
  os << std::setprecision(precision);
  bool first = true;
  for (const auto& t : terms) {
    if (t.coefficient == 0.0) continue;
    const double mag = std::fabs(t.coefficient);
    if (first) {
      if (t.coefficient < 0.0) os << "-";
    } else {
      os << (t.coefficient < 0.0 ? " - " : " + ");
    }
    os << mag << " x " << t.event_name;
    first = false;
  }
  if (first) os << "(none)";
  return os.str();
}

std::string format_metric_table(const std::string& title,
                                const std::vector<MetricDefinition>& metrics,
                                bool rounded, double round_tol) {
  std::ostringstream os;
  os << "=== " << title << " ===\n";
  for (const auto& m : metrics) {
    auto terms = m.terms;
    if (rounded) terms = round_coefficients(terms, round_tol);
    os << std::left << std::setw(36) << m.metric_name << " | "
       << format_combination(terms) << "\n"
       << std::setw(36) << "" << " | error = " << std::scientific
       << std::setprecision(2) << m.backward_error << std::defaultfloat
       << (m.composable ? "  [composable]" : "  [NOT composable]") << "\n";
  }
  return os.str();
}

std::string format_variability_series(const NoiseFilterResult& noise,
                                      double tau) {
  // Mirror the paper's Fig. 2: drop all-zero events, sort ascending.
  std::vector<const EventVariability*> shown;
  for (const auto& v : noise.variabilities) {
    if (!v.all_zero) shown.push_back(&v);
  }
  std::sort(shown.begin(), shown.end(),
            [](const EventVariability* a, const EventVariability* b) {
              return a->max_rnmse < b->max_rnmse;
            });
  std::ostringstream os;
  os << "# index  max_rnmse  kept(tau=" << std::scientific
     << std::setprecision(1) << tau << ")  event\n"
     << std::setprecision(6);
  for (std::size_t i = 0; i < shown.size(); ++i) {
    os << i << "  " << shown[i]->max_rnmse << "  "
       << (shown[i]->max_rnmse <= tau ? "yes" : "no ") << "  "
       << shown[i]->event_name << "\n";
  }
  return os.str();
}

std::string format_selected_events(const PipelineResult& result) {
  std::ostringstream os;
  os << "Specialized QRCP selected " << result.xhat_events.size()
     << " events:\n";
  for (std::size_t i = 0; i < result.xhat_events.size(); ++i) {
    os << "  [" << i << "] " << result.xhat_events[i] << "  (pivot score "
       << std::setprecision(4) << result.qr.pivot_scores[i] << ")\n";
  }
  return os.str();
}

std::string format_collection_report(const vpapi::CollectionReport& report) {
  std::ostringstream os;
  os << report.summary() << "\n";
  for (const auto& e : report.events) {
    const bool eventful = e.disposition != vpapi::EventDisposition::clean ||
                          e.total_faults() != 0 || e.retries != 0 ||
                          e.wraps_corrected != 0;
    if (!eventful) continue;
    os << "  " << std::left << std::setw(32) << e.name << " "
       << std::setw(11) << vpapi::to_string(e.disposition)
       << " retries=" << e.retries;
    if (e.wraps_corrected != 0) os << " wraps=" << e.wraps_corrected;
    for (std::size_t k = 0; k < e.faults.size(); ++k) {
      if (e.faults[k] != 0) {
        os << " " << faults::to_string(static_cast<faults::FaultKind>(k))
           << "=" << e.faults[k];
      }
    }
    os << "\n";
  }
  return os.str();
}

std::string format_markdown_report(const std::string& title,
                                   const PipelineResult& result,
                                   double round_tol) {
  std::ostringstream os;
  os << "# " << title << "\n\n";
  os << "## Stage funnel\n\n"
     << "| stage | events |\n|---|---|\n"
     << "| measured | " << result.all_event_names.size() << " |\n"
     << "| after noise filter | " << result.noise.kept.size() << " |\n"
     << "| representable in basis | "
     << result.projection.representable.size() << " |\n"
     << "| selected by specialized QRCP | " << result.xhat_events.size()
     << " |\n\n";

  if (!result.stage_timings.empty()) {
    os << "## Stage timings\n\n| stage | wall time (ms) | share |\n"
       << "|---|---|---|\n";
    std::int64_t total_ns = 0;
    for (const auto& st : result.stage_timings) total_ns += st.wall_ns;
    for (const auto& st : result.stage_timings) {
      const double ms = static_cast<double>(st.wall_ns) / 1e6;
      const double pct =
          total_ns > 0 ? 100.0 * static_cast<double>(st.wall_ns) /
                             static_cast<double>(total_ns)
                       : 0.0;
      os << "| " << st.name << " | " << std::fixed << std::setprecision(3)
         << ms << " | " << std::setprecision(1) << pct << "% |"
         << std::defaultfloat << "\n";
    }
    os << "\n";
  }

  if (result.collection.has_value() || !result.quarantined_events.empty()) {
    os << "## Collection robustness\n\n";
    if (result.collection.has_value()) {
      os << result.collection->summary() << "\n\n";
    }
    if (!result.quarantined_events.empty()) {
      os << "Quarantined events (excluded from the analysis):\n\n";
      for (const auto& q : result.quarantined_events) {
        os << "- `" << q << "`\n";
      }
      os << "\n";
    }
  }

  os << "## Selected events\n\n| # | event | pivot score |\n|---|---|---|\n";
  // Degenerate runs (everything filtered or quarantined) still get a stable,
  // machine-diffable table: one explicit placeholder row, never an empty
  // table body.
  if (result.xhat_events.empty()) {
    os << "| - | (no events survived) | - |\n";
  }
  for (std::size_t i = 0; i < result.xhat_events.size(); ++i) {
    os << "| " << i << " | `" << result.xhat_events[i] << "` | "
       << std::setprecision(4) << result.qr.pivot_scores[i] << " |\n";
  }

  os << "\n## Metrics\n\n"
     << "| metric | combination (rounded) | backward error | composable |\n"
     << "|---|---|---|---|\n";
  if (result.metrics.empty()) {
    os << "| - | (no events survived) | - | - |\n";
  }
  for (const auto& m : result.metrics) {
    const auto rounded = round_coefficients(m.terms, round_tol);
    os << "| " << m.metric_name << " | `" << format_combination(rounded)
       << "` | " << std::scientific << std::setprecision(2)
       << m.backward_error << std::defaultfloat << " | "
       << (m.composable ? "yes" : "**no**") << " |\n";
  }
  return os.str();
}

std::string format_signature_table(const std::string& title,
                                   const std::vector<std::string>& basis,
                                   const std::vector<MetricSignature>& sigs) {
  std::ostringstream os;
  os << "=== " << title << " ===\n(basis: ";
  for (std::size_t i = 0; i < basis.size(); ++i) {
    os << basis[i] << (i + 1 < basis.size() ? ", " : ")\n");
  }
  for (const auto& s : sigs) {
    os << std::left << std::setw(36) << s.name << " (";
    for (std::size_t i = 0; i < s.coordinates.size(); ++i) {
      os << s.coordinates[i] << (i + 1 < s.coordinates.size() ? "," : ")");
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace catalyst::core
