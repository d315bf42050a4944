#include "modelgen/verify.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "core/campaign.hpp"
#include "core/contract.hpp"
#include "core/truth.hpp"

namespace catalyst::modelgen {

namespace {

/// Default truthfulness tolerance: scales with the noise-explained solve
/// error (sigma amplified by the capped basis conditioning), capped well
/// below the ~0.14 relative deviation of the smallest possible integer
///-coefficient misstatement for the default planted-coefficient range.
double derived_truth_tol(const GeneratorSpec& spec) {
  const double sigma = GeneratorSpec::kBaseRelSigma * spec.noise_level;
  return std::max(1e-6, std::min(0.08, 300.0 * sigma));
}

std::string build_repro_line(const GeneratorSpec& spec) {
  std::ostringstream out;
  out << "catalyst_verify one --seed " << spec.seed;
  // Exact default-value comparison: purely cosmetic flag elision.
  // catalyst-lint: allow(float-equality)
  if (spec.noise_level != 1.0) out << " --noise " << spec.noise_level;
  if (spec.orphan_dimension) {
    out << " --orphan --gamma " << spec.correlation_gamma;
  }
  return out.str();
}

const core::MetricDefinition* find_metric(
    const core::PipelineResult& result, const std::string& name) {
  for (const auto& metric : result.metrics) {
    if (metric.metric_name == name) return &metric;
  }
  return nullptr;
}

}  // namespace

const char* to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::exact: return "exact";
    case Verdict::alternative: return "alternative";
    case Verdict::degraded: return "degraded";
    case Verdict::wrong: return "wrong";
  }
  return "unknown";
}

RecoveryOutcome verify_recovery(const GeneratedModel& model,
                                const core::PipelineResult& result,
                                const VerifyOptions& options) {
  CATALYST_REQUIRE(model.signatures.size() == model.planted.size(),
                   "verify_recovery: model signatures/planted mismatch");
  const double tol = options.truth_tol > 0.0 ? options.truth_tol
                                             : derived_truth_tol(model.spec);
  RecoveryOutcome outcome;
  outcome.seed = model.spec.seed;
  outcome.repro_line = build_repro_line(model.spec);
  outcome.kept_events = result.noise.kept.size();
  outcome.selected_events = result.xhat_events.size();

  for (std::size_t i = 0; i < model.planted.size(); ++i) {
    const core::PlantedComposition& planted = model.planted[i];
    MetricVerdict verdict;
    verdict.metric_name = planted.metric_name;

    const core::MetricDefinition* metric =
        find_metric(result, planted.metric_name);
    if (metric == nullptr) {
      verdict.verdict = Verdict::degraded;
      verdict.detail = "metric absent from pipeline output";
      outcome.metrics.push_back(std::move(verdict));
      continue;
    }
    verdict.fitness = metric->backward_error;
    verdict.composable = metric->composable;
    verdict.rounded_terms = core::drop_zero_terms(
        core::round_coefficients(metric->terms));

    if (!metric->composable) {
      // The pipeline ANNOUNCED it cannot express this metric: detectable
      // degradation, never a silent failure.
      verdict.verdict = Verdict::degraded;
      std::ostringstream detail;
      detail << "non-composable (fitness " << metric->backward_error << ")";
      verdict.detail = detail.str();
      outcome.metrics.push_back(std::move(verdict));
      continue;
    }

    const core::CompositionMatch match =
        core::match_planted_composition(verdict.rounded_terms, planted);
    if (match.matches) {
      verdict.verdict = Verdict::exact;
    } else {
      // Truthfulness is judged on the UNROUNDED solution -- the pipeline's
      // actual answer.  Rounding is a presentation step and may legally
      // erase a small-but-real coefficient (e.g. s = 2*ones expressed as
      // 0.02 x a huge-norm event); that must not read as a lie.  Terms with
      // numerically-zero coefficients are dropped first: an unused event
      // contributes nothing, representable or not.
      std::vector<core::MetricTerm> used_terms;
      for (const core::MetricTerm& term : metric->terms) {
        if (std::abs(term.coefficient) > 1e-9) used_terms.push_back(term);
      }
      const core::CompositionMatch truthful = core::composition_is_truthful(
          used_terms, model.representations, model.signatures[i], tol);
      if (truthful.matches) {
        verdict.verdict = Verdict::alternative;
        verdict.detail = "truthful non-planted composition: " + match.mismatch;
      } else {
        verdict.verdict = Verdict::wrong;
        verdict.detail = "composable but untruthful: " + truthful.mismatch;
      }
    }
    outcome.metrics.push_back(std::move(verdict));
  }

  outcome.overall = Verdict::exact;
  for (const MetricVerdict& v : outcome.metrics) {
    outcome.overall = worse(outcome.overall, v.verdict);
  }
  return outcome;
}

RecoveryOutcome run_and_verify(const GeneratedModel& model,
                               const VerifyOptions& options) {
  const pmu::Machine machine = model.machine();
  const core::PipelineResult result = core::run_pipeline(
      machine, model.benchmark, model.signatures, model.options);
  return verify_recovery(model, result, options);
}

RecoveryOutcome run_and_verify_sampled(const GeneratedModel& model,
                                       vpapi::CollectionMode mode,
                                       const vpapi::SampleSchedule& schedule,
                                       const VerifyOptions& options) {
  const pmu::Machine machine = model.machine();
  core::CampaignOptions campaign;
  campaign.pipeline = model.options;
  campaign.collection_mode = mode;
  campaign.sample_schedule = schedule;
  const core::PipelineResult result =
      core::run_campaign(machine, model.benchmark, model.signatures, campaign)
          .result;
  VerifyOptions adjusted = options;
  if (adjusted.truth_tol <= 0.0 && mode != vpapi::CollectionMode::counting) {
    // Sampled measurements carry a KNOWN phase-attribution bias: a kernel
    // boundary is interpolated between samples up to one period apart, so
    // per-kernel values -- and any signature composed from them -- are only
    // determined to a relative error of order period/span.  Judging
    // truthfulness tighter than the data permits would brand bias-shifted
    // but faithful compositions as silent lies.  The bound is capped below
    // the ~0.14 relative deviation of the smallest integer-coefficient
    // misstatement, so a genuine coefficient lie still reads `wrong`; past
    // the cap the pipeline's own composability flag (-> degraded) is the
    // load-bearing detector, which the collection-modes oracle sweep pins.
    const double ratio = static_cast<double>(schedule.period_ns) /
                         static_cast<double>(schedule.kernel_span_ns);
    adjusted.truth_tol = std::max(derived_truth_tol(model.spec),
                                  std::min(0.13, 1.5 * ratio));
  }
  return verify_recovery(model, result, adjusted);
}

std::string RecoveryOutcome::repro() const { return repro_line; }

std::string RecoveryOutcome::describe() const {
  std::ostringstream out;
  out << "seed " << seed << ": overall " << to_string(overall) << " (kept "
      << kept_events << ", selected " << selected_events << ")\n";
  for (const MetricVerdict& v : metrics) {
    out << "  " << v.metric_name << ": " << to_string(v.verdict)
        << " fitness=" << v.fitness;
    if (!v.detail.empty()) out << " -- " << v.detail;
    out << "\n";
  }
  out << "  repro: " << repro_line << "\n";
  return out.str();
}

GeneratedModel reorder_events(const GeneratedModel& model,
                              std::uint64_t permutation_seed) {
  GeneratedModel transformed = model;
  std::mt19937_64 rng(permutation_seed);
  std::shuffle(transformed.machine_spec.events.begin(),
               transformed.machine_spec.events.end(), rng);
  return transformed;
}

GeneratedModel rescale_slots(const GeneratedModel& model, double factor) {
  CATALYST_REQUIRE(factor > 0.0, "rescale_slots: factor must be > 0");
  GeneratedModel transformed = model;
  for (cat::KernelSlot& slot : transformed.benchmark.slots) {
    slot.normalizer *= factor;
    for (pmu::Activity& activity : slot.thread_activities) {
      for (auto& [signal, value] : activity) value *= factor;
    }
  }
  return transformed;
}

GeneratedModel reseed_noise(const GeneratedModel& model,
                            std::uint64_t noise_seed) {
  GeneratedModel transformed = model;
  transformed.machine_spec.noise_seed = noise_seed;
  return transformed;
}

GeneratedModel with_collection_threads(const GeneratedModel& model,
                                       int threads) {
  CATALYST_REQUIRE(threads >= 1,
                   "with_collection_threads: need at least one thread");
  GeneratedModel transformed = model;
  transformed.options.collection_threads = threads;
  return transformed;
}

OutcomeEquivalence equivalent_outcomes(const RecoveryOutcome& a,
                                       const RecoveryOutcome& b) {
  if (a.metrics.size() != b.metrics.size()) {
    return {false, "different metric counts"};
  }
  for (const MetricVerdict& va : a.metrics) {
    const MetricVerdict* vb = nullptr;
    for (const MetricVerdict& candidate : b.metrics) {
      if (candidate.metric_name == va.metric_name) {
        vb = &candidate;
        break;
      }
    }
    if (vb == nullptr) {
      return {false, "metric " + va.metric_name + " missing from one side"};
    }
    if (va.verdict != vb->verdict) {
      return {false, "metric " + va.metric_name + ": " +
                         to_string(va.verdict) + " vs " +
                         to_string(vb->verdict)};
    }
  }
  return {true, {}};
}

}  // namespace catalyst::modelgen
