#include "core/presets.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "json/json.hpp"

namespace catalyst::core {

std::optional<std::string> canonical_preset_symbol(
    const std::string& metric_name) {
  // The subset of PAPI's preset vocabulary this reproduction composes.
  static const std::pair<const char*, const char*> kMap[] = {
      {"SP Instrs.", "PAPI_FP_INS_SP"},
      {"SP Ops.", "PAPI_SP_OPS"},
      {"DP Instrs.", "PAPI_FP_INS_DP"},
      {"DP Ops.", "PAPI_DP_OPS"},
      {"SP FMA Instrs.", "PAPI_FMA_INS_SP"},
      {"DP FMA Instrs.", "PAPI_FMA_INS_DP"},
      {"Unconditional Branches.", "PAPI_BR_UCN"},
      {"Conditional Branches Taken.", "PAPI_BR_TKN"},
      {"Conditional Branches Not Taken.", "PAPI_BR_NTK"},
      {"Mispredicted Branches.", "PAPI_BR_MSP"},
      {"Correctly Predicted Branches.", "PAPI_BR_PRC"},
      {"Conditional Branches Retired.", "PAPI_BR_CN"},
      {"Conditional Branches Executed.", "PAPI_BR_CN_EXEC"},
      {"L1 Misses.", "PAPI_L1_DCM"},
      {"L1 Hits.", "PAPI_L1_DCH"},
      {"L1 Reads.", "PAPI_L1_DCR"},
      {"L2 Hits.", "PAPI_L2_DCH"},
      {"L2 Misses.", "PAPI_L2_DCM"},
      {"L3 Hits.", "PAPI_L3_DCH"},
  };
  for (const auto& [name, symbol] : kMap) {
    if (metric_name == name) return std::string(symbol);
  }
  return std::nullopt;
}

std::string derived_preset_symbol(const std::string& metric_name) {
  std::string out = "CAT_";
  bool prev_sep = true;
  for (char c : metric_name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(c))));
      prev_sep = false;
    } else if (!prev_sep) {
      out.push_back('_');
      prev_sep = true;
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::optional<PresetDefinition> make_preset(const MetricDefinition& metric,
                                            double round_tol) {
  if (!metric.composable) return std::nullopt;
  PresetDefinition preset;
  preset.symbol = canonical_preset_symbol(metric.metric_name)
                      .value_or(derived_preset_symbol(metric.metric_name));
  preset.description = metric.metric_name;
  preset.terms =
      drop_zero_terms(round_coefficients(metric.terms, round_tol));
  preset.fitness = metric.backward_error;
  return preset;
}

std::vector<PresetDefinition> make_presets(
    const std::vector<MetricDefinition>& metrics, double round_tol) {
  std::vector<PresetDefinition> out;
  for (const auto& m : metrics) {
    if (auto p = make_preset(m, round_tol)) out.push_back(std::move(*p));
  }
  return out;
}

std::string presets_to_table(const std::vector<PresetDefinition>& presets) {
  std::ostringstream os;
  os << "# symbol|description|combination|fitness\n";
  for (const auto& p : presets) {
    os << p.symbol << "|" << p.description << "|";
    for (std::size_t i = 0; i < p.terms.size(); ++i) {
      if (i > 0) os << (p.terms[i].coefficient < 0 ? "" : "+");
      os << std::setprecision(12) << p.terms[i].coefficient << "*"
         << p.terms[i].event_name;
    }
    os << "|" << std::scientific << std::setprecision(3) << p.fitness
       << std::defaultfloat << "\n";
  }
  return os.str();
}

namespace {

/// The double `v` printed with printf format `fmt` reads back as: the
/// preset document carries coefficients to 12 significant digits and the
/// fitness to 7, so float noise in the last bits never reaches importers.
/// A non-finite value (JSON has none) is written as null.
json::Value printed(double v, const char* fmt) {
  if (!std::isfinite(v)) return nullptr;
  char buf[40];
  std::snprintf(buf, sizeof buf, fmt, v);
  return std::strtod(buf, nullptr);
}

}  // namespace

std::string presets_to_json(const std::vector<PresetDefinition>& presets) {
  json::Value doc = json::Value::array();
  for (const auto& p : presets) {
    json::Value preset = json::Value::object();
    preset["symbol"] = p.symbol;
    preset["description"] = p.description;
    preset["fitness"] = printed(p.fitness, "%.6e");
    json::Value terms = json::Value::array();
    for (const auto& t : p.terms) {
      json::Value term = json::Value::object();
      term["event"] = t.event_name;
      term["coefficient"] = printed(t.coefficient, "%.12g");
      terms.push_back(std::move(term));
    }
    preset["terms"] = std::move(terms);
    doc.push_back(std::move(preset));
  }
  return json::dump(doc, 2) + "\n";
}

vpapi::DerivedEvent to_derived_event(const PresetDefinition& preset) {
  vpapi::DerivedEvent d;
  d.name = preset.symbol;
  d.description = preset.description;
  for (const auto& t : preset.terms) {
    d.terms.push_back({t.event_name, t.coefficient});
  }
  return d;
}

std::size_t register_presets(vpapi::Session& session,
                             const std::vector<PresetDefinition>& presets) {
  std::size_t registered = 0;
  for (const auto& p : presets) {
    if (session.register_preset(to_derived_event(p)) == vpapi::Status::ok) {
      ++registered;
    }
  }
  return registered;
}

}  // namespace catalyst::core
