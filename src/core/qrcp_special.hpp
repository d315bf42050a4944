// catalyst/core -- the specialized column-pivoted QR of Section V
// (Algorithm 2 of the paper).
//
// Classic QRCP pivots on the largest trailing column norm, which on event
// data prefers huge, analytically irrelevant columns (cycle counters).
// Algorithm 2 instead prefers columns *closest to the ideal basis
// dimensions*: each candidate column is rounded to the nearest multiple of
// a noise tolerance alpha and scored so that entries of exactly 0 cost
// nothing, entries >= 1 cost their magnitude, and fractional entries are
// punished by their reciprocal; the column with the MINIMUM score is the
// pivot.  Ties break toward the smallest norm, then input order.
//
// Two implementation choices pin down the parts Algorithm 2's pseudocode
// leaves open:
//   * scores and tie-break norms are computed on the ORIGINAL columns --
//     closeness to a basis dimension is intrinsic to the event, and scoring
//     partially-orthogonalized residuals would let combination columns
//     masquerade as basis-aligned once their overlap with earlier picks has
//     been eliminated;
//   * eligibility at step i uses the UPDATED trailing residual: a candidate
//     whose residual norm is below beta = ||(alpha, ..., alpha)||_2 is
//     linearly dependent on the selected events (up to noise) and is
//     disregarded.  When no candidate remains eligible the factorization
//     terminates; the selected prefix is the independent event set X-hat.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace catalyst::core {

/// R(u) = alpha * floor(u / alpha + 0.5): u rounded to the nearest multiple
/// of alpha (the paper's noise-tolerant rounding).
double round_to_tolerance(double u, double alpha);

/// Sc(v) for one magnitude v = |entry|:  v if v >= 1, 1/v if 0 < v < 1,
/// 0 if v == 0.
double score_entry(double v);

/// Pivot score of a column: sum of Sc(|R(u)|) over its entries.
double column_score(std::span<const double> column, double alpha);

/// Pivot-selection rule, for ablation studies.
enum class PivotRule {
  /// Paper-faithful (default): score/tie-break on the ORIGINAL columns,
  /// eligibility on the updated residual norm.
  original_score,
  /// The naive reading of Algorithm 2: score the UPDATED trailing residual.
  /// Kept for the ablation benches -- it lets combination columns
  /// masquerade as basis-aligned once their overlap with earlier picks has
  /// been eliminated (e.g. taken+unconditional posing as the unconditional
  /// dimension).
  updated_score,
  /// Classic Algorithm 1 pivoting (largest updated residual norm) under the
  /// same beta termination -- the Section II failure mode, and the library's
  /// only classic QRCP.
  max_norm,
};

/// Result of the specialized QRCP.
struct SpecialQrcpResult {
  /// Indices into the ORIGINAL column order of the selected, linearly
  /// independent columns, in pivot order (the first `rank` entries of the
  /// paper's permutation array pi).
  std::vector<linalg::index_t> selected;
  /// Number of selected columns (== selected.size()).
  linalg::index_t rank = 0;
  /// Pivot scores at the time each column was selected (diagnostics).
  std::vector<double> pivot_scores;
};

/// Runs Algorithm 2 on X (basis-dims x events) with noise tolerance alpha.
/// Returns the chosen column set; use Matrix::select_columns on the ORIGINAL
/// X to materialize X-hat (the algorithm orthogonalizes internally only to
/// guarantee independence).
///
/// Under original_score the pivot key (score, rounded norm, index) of every
/// column is fixed on the original X; only eligibility changes from step to
/// step.  A column's residual is its distance to the span of the columns
/// picked so far, and that span only grows, so the residual norm can only
/// shrink: a column found below beta never becomes eligible again.  The
/// pivot at step k is therefore the first still-eligible column in key
/// order, and the factorization is a left-looking walk: sort the columns by
/// key once, visit them in that order, bring each visited column up to date
/// with the k reflectors stored so far, keep it if its tail norm reaches
/// beta and skip it otherwise, and stop at rank min(m, n).  Only the
/// visited columns are ever touched.  Rounding can still lift a residual by
/// a few ulps, so a column that misses beta by less than the rounding
/// bound of its updates is re-checked at later steps; selections and pivot
/// scores are those of the eager loop that re-tests every column at every
/// step.  The two ablation rules score updated residuals and keep that
/// eager loop.
SpecialQrcpResult specialized_qrcp(
    const linalg::Matrix& x, double alpha,
    PivotRule rule = PivotRule::original_score);

}  // namespace catalyst::core
