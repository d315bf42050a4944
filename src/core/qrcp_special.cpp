#include "core/qrcp_special.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/contract.hpp"
#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace catalyst::core {

double round_to_tolerance(double u, double alpha) {
  return alpha * std::floor(u / alpha + 0.5);
}

double score_entry(double v) {
  if (v == 0.0) return 0.0;
  if (v >= 1.0) return v;
  return 1.0 / v;
}

double column_score(std::span<const double> column, double alpha) {
  double score = 0.0;
  for (double u : column) {
    score += score_entry(std::fabs(round_to_tolerance(u, alpha)));
  }
  return score;
}

namespace {

// Per-column intrinsic properties, computed once on the ORIGINAL matrix:
// "closeness to the expectation basis" is a property of the event itself,
// not of its partially-orthogonalized residual -- otherwise a combination
// column (e.g. taken + unconditional) would masquerade as basis-aligned
// once some of its components have been eliminated.
struct ColumnTraits {
  double score = 0.0;  // Sc-sum of the alpha-rounded original column
  // 2-norm of the alpha-rounded original column.  Rounding the tie-break
  // norm keeps measurement noise from deciding between semantically
  // identical columns (two aliases of the same counter); exact ties then
  // fall back to input order, which is deterministic.
  double norm = 0.0;
};

std::vector<ColumnTraits> column_traits(const linalg::Matrix& x,
                                        double alpha) {
  const auto m = static_cast<std::size_t>(x.rows());
  std::vector<ColumnTraits> traits(static_cast<std::size_t>(x.cols()));
  std::vector<double> rounded(m);
  for (linalg::index_t j = 0; j < x.cols(); ++j) {
    const auto col = x.col(j);
    double score = 0.0;  // column_score(col, alpha), rounding once
    for (std::size_t i = 0; i < m; ++i) {
      rounded[i] = round_to_tolerance(col[i], alpha);
      score += score_entry(std::fabs(rounded[i]));
    }
    traits[static_cast<std::size_t>(j)] = {score, linalg::nrm2(rounded)};
  }
  return traits;
}

// The pivot order: minimum score, ties -> smallest rounded norm, then the
// smallest original index.  Indices are distinct, so the order is total.
struct KeyLess {
  const std::vector<ColumnTraits>& traits;
  bool operator()(linalg::index_t a, linalg::index_t b) const {
    const ColumnTraits& ta = traits[static_cast<std::size_t>(a)];
    const ColumnTraits& tb = traits[static_cast<std::size_t>(b)];
    if (ta.score != tb.score) return ta.score < tb.score;
    if (ta.norm != tb.norm) return ta.norm < tb.norm;
    return a < b;
  }
};

// The Householder reflectors of the columns picked so far, stored like a
// packed QR: reflector k acts on rows [k, m), its essential part sits in
// rows [k+1, m) of column k.
class Reflectors {
 public:
  Reflectors(linalg::index_t m, linalg::index_t kmax)
      : v_(m, kmax), taus_(static_cast<std::size_t>(kmax), 0.0) {}

  // Brings `col` from `applied` reflectors up to all of them, in order.
  // Each application is apply_reflector_left's per-column arithmetic, so
  // the column matches, bit for bit, the one an eager right-looking update
  // would hold after the same steps.
  void update(std::span<double> col, linalg::index_t applied) const {
    for (linalg::index_t r = applied; r < k_; ++r) {
      linalg::apply_reflector_vec(
          col, r, v_.col(r).subspan(static_cast<std::size_t>(r + 1)),
          taus_[static_cast<std::size_t>(r)]);
    }
  }

  // Makes the next reflector, k, from a column brought up to date with
  // reflectors [0, k): it annihilates rows [k + 1, m) of `col`.
  void append(std::span<double> col) {
    auto head = col.subspan(static_cast<std::size_t>(k_));
    const linalg::Reflector h = linalg::make_reflector(head);
    auto dst = v_.col(k_);
    std::copy(head.begin() + 1, head.end(),
              dst.begin() + static_cast<std::ptrdiff_t>(k_ + 1));
    taus_[static_cast<std::size_t>(k_)] = h.tau;
    ++k_;
  }

 private:
  linalg::Matrix v_;
  std::vector<double> taus_;
  linalg::index_t k_ = 0;
};

// A visited column that missed beta by less than the rounding drift bound:
// kept up to date and re-checked at every later step (see walk_qrcp).
struct NearMiss {
  linalg::index_t orig = 0;
  std::vector<double> col;
  linalg::index_t applied = 0;
};

double tail_norm(std::span<const double> col, linalg::index_t k) {
  return linalg::nrm2(col.subspan(static_cast<std::size_t>(k)));
}

void record_pivot(obs::Span& span, SpecialQrcpResult& res,
                  linalg::index_t orig, double score) {
  res.selected.push_back(orig);
  res.pivot_scores.push_back(score);
  span.arg("col", orig);
  span.arg("score", score);
  obs::observe(obs::names::kQrcpPivotScore, score);
}

// Algorithm 2 under original_score as a left-looking walk in key order (see
// the header).  In floating point a residual norm can grow by rounding, so
// a column that misses beta by less than its drift bound is not dropped but
// kept on the near-miss list and re-checked, before the walk moves on, at
// every later step: exactly the columns the eager loop could still pick.
void walk_qrcp(const linalg::Matrix& x, double alpha, double beta,
               SpecialQrcpResult& res) {
  const linalg::index_t m = x.rows();
  const linalg::index_t n = x.cols();
  const linalg::index_t kmax = std::min(m, n);
  const std::vector<ColumnTraits> traits = column_traits(x, alpha);
  std::vector<linalg::index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), linalg::index_t{0});
  std::sort(order.begin(), order.end(), KeyLess{traits});

  // Every reflector application is backward stable: the computed column
  // is within c * m * eps * ||x_j|| of an exact orthogonal update, whose
  // tail norm cannot grow.  64 covers c, the kmax updates still to come
  // and the rounding of nrm2 itself with room to spare.
  const double drift_per_norm = 64.0 * static_cast<double>(m) *
                                static_cast<double>(kmax) *
                                std::numeric_limits<double>::epsilon();
  Reflectors refl(m, kmax);
  std::vector<NearMiss> near;
  std::vector<double> col(static_cast<std::size_t>(m));
  std::size_t next = 0;  // first unvisited position in `order`
  for (linalg::index_t k = 0; k < kmax; ++k) {
    obs::Span pivot_span("qrcp.pivot");
    pivot_span.arg("i", k);
    bool picked = false;
    for (auto it = near.begin(); it != near.end(); ++it) {
      refl.update(it->col, it->applied);
      it->applied = k;
      if (tail_norm(it->col, k) < beta) continue;
      record_pivot(pivot_span, res, it->orig,
                   traits[static_cast<std::size_t>(it->orig)].score);
      refl.append(it->col);
      near.erase(it);
      picked = true;
      break;
    }
    while (!picked && next < order.size()) {
      const linalg::index_t j = order[next++];
      const auto src = x.col(j);
      std::copy(src.begin(), src.end(), col.begin());
      refl.update(col, 0);
      const double t = tail_norm(col, k);
      if (t >= beta) {
        record_pivot(pivot_span, res, j,
                     traits[static_cast<std::size_t>(j)].score);
        refl.append(col);
        picked = true;
      } else if (t >= beta - drift_per_norm * (linalg::nrm2(src) + beta)) {
        near.push_back({j, col, k});
      }
    }
    if (!picked) break;
  }
}

// The two ablation rules re-score the updated residuals at every step, so
// they keep the eager right-looking loop: each step recomputes every
// trailing residual norm and applies the new reflector to every trailing
// column of a working copy of X.
void eager_qrcp(const linalg::Matrix& x, double alpha, double beta,
                PivotRule rule, SpecialQrcpResult& res) {
  linalg::Matrix a = x;
  const linalg::index_t m = a.rows();
  const linalg::index_t n = a.cols();
  const linalg::index_t kmax = std::min(m, n);
  const std::vector<ColumnTraits> traits = column_traits(x, alpha);
  std::vector<linalg::index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), linalg::index_t{0});
  for (linalg::index_t i = 0; i < kmax; ++i) {
    obs::Span pivot_span("qrcp.pivot");
    pivot_span.arg("i", i);
    // Minimum (score, norm, original index) over the eligible trailing
    // columns; -1 = none eligible.
    linalg::index_t pivot = -1;
    double best_score = 0.0;
    double best_norm = 0.0;
    for (linalg::index_t j = i; j < n; ++j) {
      const auto tail = a.col(j).subspan(static_cast<std::size_t>(i));
      const double norm = linalg::nrm2(tail);
      if (norm < beta) continue;  // dependent or noise-level
      const double score =
          rule == PivotRule::updated_score ? column_score(tail, alpha) : -norm;
      if (pivot == -1 || score < best_score ||
          (score == best_score &&
           (norm < best_norm ||
            (norm == best_norm &&
             perm[static_cast<std::size_t>(j)] <
                 perm[static_cast<std::size_t>(pivot)])))) {
        pivot = j;
        best_score = score;
        best_norm = norm;
      }
    }
    if (pivot == -1) break;
    if (pivot != i) {
      a.swap_cols(i, pivot);
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[static_cast<std::size_t>(pivot)]);
    }
    const linalg::index_t orig = perm[static_cast<std::size_t>(i)];
    record_pivot(pivot_span, res, orig,
                 traits[static_cast<std::size_t>(orig)].score);

    // Orthogonalization step: annihilate below the diagonal of column i and
    // update the trailing columns, so later scores and the beta cutoff act
    // on the component NOT already explained by the selected events.
    auto ci = a.col(i);
    auto head = ci.subspan(static_cast<std::size_t>(i));
    const linalg::Reflector h = linalg::make_reflector(head);
    linalg::apply_reflector_left(a, i, i + 1, head.subspan(1), h.tau);
    ci[static_cast<std::size_t>(i)] = h.beta;
  }
}

}  // namespace

SpecialQrcpResult specialized_qrcp(const linalg::Matrix& x, double alpha,
                                   PivotRule rule) {
  CATALYST_REQUIRE_AS(alpha > 0.0, std::invalid_argument,
                      "specialized_qrcp: alpha must be positive");
  CATALYST_ASSUME_FINITE_AS(x.data(), std::invalid_argument,
                            "specialized_qrcp: X has NaN/Inf entries");
  SpecialQrcpResult res;
  const linalg::index_t n = x.cols();
  // beta = norm of the all-alpha vector of the full column length.
  const double beta = alpha * std::sqrt(static_cast<double>(x.rows()));
  if (rule == PivotRule::original_score) {
    walk_qrcp(x, alpha, beta, res);
  } else {
    eager_qrcp(x, alpha, beta, rule, res);
  }
  res.rank = static_cast<linalg::index_t>(res.selected.size());
  // Pivot-consistency postconditions: the selected original-column indices
  // must be unique, in range, and as many as the reported rank.
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  for (linalg::index_t j : res.selected) {
    CATALYST_ENSURE(j >= 0 && j < n,
                    "specialized_qrcp: selected column out of range");
    CATALYST_ENSURE(!seen[static_cast<std::size_t>(j)],
                    "specialized_qrcp: column selected twice");
    seen[static_cast<std::size_t>(j)] = true;
  }
  CATALYST_ENSURE(res.rank == static_cast<linalg::index_t>(res.selected.size()),
                  "specialized_qrcp: rank != number of selected columns");
  CATALYST_ENSURE(res.pivot_scores.size() == res.selected.size(),
                  "specialized_qrcp: one pivot score per selected column "
                  "required");
  return res;
}

}  // namespace catalyst::core
