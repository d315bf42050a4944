// catalyst/modelgen -- generator specification for synthetic CPU models.
//
// A GeneratorSpec is the complete, seeded description of one synthetic
// machine + benchmark + planted-metric bundle: every byte of the generated
// model is a pure function of the spec, so a failing case reproduces from
// its printed seed alone.  The geometry knobs (basis dimensions, event
// counts, counter slots) and the adversarial-decoy census mirror the
// structures that make the paper's analysis hard on real hardware:
// duplicated counters, integer-scaled aliases, derived sums, correlated
// near-copies, pure-noise counters, a huge-norm cycles-style trap, and
// events outside the expectation basis entirely.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"

namespace catalyst::modelgen {

/// Everything generate() needs; all fields have sensible defaults so
/// `GeneratorSpec{seed}` is a valid random model.
struct GeneratorSpec {
  /// Master seed: the ONLY source of randomness for the generated model.
  std::uint64_t seed = 1;

  // --- geometry ------------------------------------------------------------
  std::size_t min_dims = 3;     ///< Basis dimensions, drawn in [min, max].
  std::size_t max_dims = 6;
  std::size_t extra_slots = 3;  ///< Slots = dims + U(1..extra_slots).
  std::size_t max_aliases = 2;  ///< Extra exact unit copies per dim: U(0..).
  std::size_t min_counters = 2; ///< Physical counters, drawn in [min, max].
  std::size_t max_counters = 8;
  double iterations = 1e4;      ///< Per-slot iteration count (normalizer).

  // --- adversarial decoys --------------------------------------------------
  std::size_t scaled_decoys = 2;      ///< Integer-scaled (2..4x) unit copies.
  std::size_t derived_decoys = 2;     ///< Sums of two distinct dimensions.
  std::size_t correlated_decoys = 2;  ///< Unit + gamma x another dimension.
  /// Cross-dimension leakage of correlated decoys.  Below half the QRCP
  /// rounding tolerance alpha the leak rounds away and the decoy becomes an
  /// equally valid representative of its dimension (it joins the
  /// equivalence class); above, it must never be selected over a clean
  /// unit event.
  double correlation_gamma = 0.25;
  std::size_t noise_decoys = 2;   ///< Spiky interrupt-style counters.
  std::size_t dead_decoys = 1;    ///< Counters that always read zero.
  bool huge_norm_decoy = true;    ///< Cycles-style large-norm trap column.
  std::size_t scaffold_events = 2; ///< Events outside the basis span
                                   ///< (dropped at the projection stage).

  // --- noise profile -------------------------------------------------------
  /// Relative jitter of countable events is kBaseRelSigma * noise_level.
  /// 0 = noise-free; ~1 = benign (recovery must be exact); >= ~40 pushes
  /// max RNMSE past the derived tau and recovery must degrade DETECTABLY
  /// (events filtered, planted metrics reported non-composable) -- never
  /// silently wrong.
  double noise_level = 1.0;

  // --- planted metrics -----------------------------------------------------
  std::size_t num_metrics = 3;
  int max_coefficient = 3;  ///< Planted coefficients in [-max, max].

  /// Degradation study: strip every unit event (and alias) of one
  /// dimension, leaving at best a correlated decoy to cover it.  Planted
  /// metrics touching the orphaned dimension can then only be recovered
  /// through the decoy (alternative covering) or must report low fitness.
  bool orphan_dimension = false;

  /// Base relative sigma at noise_level 1: large enough to survive the
  /// integer rounding of counter readings (iterations * sigma >= a few
  /// counts), small enough that projected coordinates stay within the QRCP
  /// rounding tolerance.
  static constexpr double kBaseRelSigma = 2e-4;

  /// Throws std::invalid_argument on nonsensical geometry (zero dims,
  /// min > max, non-positive iterations, negative censuses...).
  void validate() const;

  /// Pipeline thresholds matched to the generated noise profile: tau admits
  /// the benign jitter with ~30x margin, alpha rounds sub-noise leakage
  /// away, and the projection / fitness cutoffs follow the paper's
  /// relaxed-threshold regime (Sections IV / V-E).
  core::PipelineOptions derive_options() const;

  // --- edge-geometry presets (degenerate-path tests) -----------------------
  /// Every countable event drowned in noise: the RNMSE filter empties the
  /// kept set and the pipeline must degrade gracefully end to end.
  static GeneratorSpec edge_all_noise(std::uint64_t seed);
  /// A single-dimension basis with a single unit event and no decoys.
  static GeneratorSpec edge_single_dim(std::uint64_t seed);
  /// One dimension orphaned (no unit events), covered at best by a
  /// correlated decoy with the given leakage.
  static GeneratorSpec edge_orphan(std::uint64_t seed, double gamma);

  // --- scale presets (real-catalog-sized stress geometries) ---------------
  /// ~5k-event machine: 48 basis dimensions with up to ~200 exact aliases
  /// per dimension (expected events ~ dims * (1 + max_aliases/2)).  The
  /// event-selection matrix has thousands of columns, the size real PMU
  /// catalogs give Algorithm 2.
  static GeneratorSpec scale_5k(std::uint64_t seed);
  /// ~10k-event machine: 64 dimensions, up to ~300 aliases per dimension
  /// (perfbench's scale_10k workload and BM_SpecializedQrcp).
  static GeneratorSpec scale_10k(std::uint64_t seed);
};

}  // namespace catalyst::modelgen
