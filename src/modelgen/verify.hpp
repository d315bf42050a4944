// catalyst/modelgen -- the ground-truth recovery oracle.
//
// verify_recovery() judges a pipeline run against the planted truth carried
// by a GeneratedModel and classifies every planted metric:
//
//   exact        rounded coefficients equal the planted integers and every
//                selected event is a documented equivalence-class member of
//                its dimension;
//   alternative  a different but TRUTHFUL composition (the terms' exact
//                basis representations reproduce the signature), e.g. a
//                scaled decoy covering a dimension at coefficient c/k;
//   degraded     the pipeline itself flagged the metric non-composable
//                (low fitness) -- detectable degradation, the acceptable
//                failure mode under heavy noise or orphaned dimensions;
//   wrong        flagged composable but NOT truthful -- a silent lie.  The
//                harness's core assertion is that this never happens.
//
// The metamorphic transforms produce models whose recovery outcome must be
// equivalent to the original's: event reordering, uniform slot rescaling,
// benign-noise reseeding, and collection thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "modelgen/generator.hpp"
#include "vpapi/sampling.hpp"

namespace catalyst::modelgen {

/// Ordered by severity; `worse` keeps the maximum.
enum class Verdict { exact = 0, alternative = 1, degraded = 2, wrong = 3 };

const char* to_string(Verdict verdict);
inline Verdict worse(Verdict a, Verdict b) { return a > b ? a : b; }

struct MetricVerdict {
  std::string metric_name;
  Verdict verdict = Verdict::degraded;
  double fitness = 0.0;      ///< Eq. 5 backward error reported by the run.
  bool composable = false;
  std::vector<core::MetricTerm> rounded_terms;  ///< Non-zero rounded terms.
  std::string detail;        ///< Why this verdict (mismatch / classification).
};

struct VerifyOptions {
  /// Tolerance of the truthfulness check (relative 2-norm of the composed
  /// signature error).  0 derives it from the model's noise profile: well
  /// below the smallest integer-coefficient misstatement, well above the
  /// noise-explained solve error.
  double truth_tol = 0.0;
};

/// The judged outcome of one pipeline run over one generated model.
struct RecoveryOutcome {
  std::uint64_t seed = 0;                ///< Provenance for repro lines.
  /// Ready-made one-line reproduction command (seed + non-default knobs),
  /// filled in by verify_recovery.
  std::string repro_line;
  std::vector<MetricVerdict> metrics;    ///< Parallel to model.planted.
  Verdict overall = Verdict::exact;      ///< Worst per-metric verdict.
  std::size_t kept_events = 0;           ///< Survived the RNMSE filter.
  std::size_t selected_events = 0;       ///< QRCP-selected (Xhat columns).

  bool all_exact() const { return overall == Verdict::exact; }
  bool any_wrong() const { return overall == Verdict::wrong; }
  /// One-line reproduction command for a failing case.
  std::string repro() const;
  /// Multi-line human summary (verdict per metric + repro line).
  std::string describe() const;
};

/// Judges an existing pipeline result against the model's planted truth.
RecoveryOutcome verify_recovery(const GeneratedModel& model,
                                const core::PipelineResult& result,
                                const VerifyOptions& options = {});

/// Convenience: registers the machine, runs the full pipeline with the
/// model's derived options, and judges the result.
RecoveryOutcome run_and_verify(const GeneratedModel& model,
                               const VerifyOptions& options = {});

/// run_and_verify through the sampling collector: measurements are the
/// per-phase synthesis of each run's sample trace (vpapi/sampling.hpp)
/// instead of boundary reads, then judged against the same planted truth.
/// This is the counting-vs-sampling recovery oracle: `schedule` controls
/// the attribution-error magnitude, and the acceptable outcomes are exact /
/// alternative (fine periods) or degraded (coarse periods) -- never wrong,
/// because dithering turns attribution error into repetition variance the
/// RNMSE filter can see.
RecoveryOutcome run_and_verify_sampled(const GeneratedModel& model,
                                       vpapi::CollectionMode mode,
                                       const vpapi::SampleSchedule& schedule,
                                       const VerifyOptions& options = {});

// --- metamorphic transforms ------------------------------------------------
// Each returns a transformed copy whose recovery outcome must be equivalent
// to the original's (see equivalent_outcomes).

/// Shuffles the machine's event registration order (seeded permutation).
/// Per-event readings are unchanged: collection noise is keyed by event
/// NAME, not registration index.
GeneratedModel reorder_events(const GeneratedModel& model,
                              std::uint64_t permutation_seed);
/// Multiplies every slot's activity AND normalizer by `factor` (> 0):
/// normalized measurements are invariant up to counter-rounding jitter.
GeneratedModel rescale_slots(const GeneratedModel& model, double factor);
/// Re-keys the machine's benign noise streams.
GeneratedModel reseed_noise(const GeneratedModel& model,
                            std::uint64_t noise_seed);
/// Changes the pipeline's thread count (the engine guarantees bit-identical
/// results for any value).  The generated options leave it at the default
/// (half the hardware threads), so a metamorphic check pins both sides -- e.g.
/// a base at 4 and a variant at 1 -- to compare two counts on any host.
GeneratedModel with_threads(const GeneratedModel& model, int threads);

struct OutcomeEquivalence {
  bool equivalent = false;
  std::string detail;  ///< First difference found, empty when equivalent.
};

/// Metamorphic equivalence: same per-metric verdicts (matched by name) and,
/// for exact/alternative verdicts, identical rounded compositions up to the
/// planted equivalence classes (both sides were already judged against the
/// same truth, so verdict equality is the load-bearing check).
OutcomeEquivalence equivalent_outcomes(const RecoveryOutcome& a,
                                       const RecoveryOutcome& b);

}  // namespace catalyst::modelgen
