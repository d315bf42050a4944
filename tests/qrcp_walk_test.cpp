// Differential tests of the specialized QRCP against the eager reference.
//
// reference_qrcp below is the right-looking loop the library ran before the
// left-looking walk replaced it: at every step it recomputes the residual
// norm of every trailing column, picks the minimum (score, norm, index)
// among those at or above beta, and applies the new reflector to every
// trailing column.  specialized_qrcp must select the same columns with the
// same pivot scores:
//   * under original_score (the walk) on all six paper categories, 200
//     default modelgen seeds and the scale_5k / scale_10k presets;
//   * under the two ablation rules on the categories and the seeds;
//   * on random matrices with columns planted within rounding distance of
//     beta, where a walk that drops every column below beta for good could
//     diverge from the eager loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/qrcp_special.hpp"
#include "linalg/blas.hpp"
#include "linalg/householder.hpp"
#include "linalg/qr.hpp"
#include "linalg/random.hpp"
#include "modelgen/modelgen.hpp"
#include "seed_util.hpp"
#include "service/catalog.hpp"

namespace catalyst::core {
namespace {

using linalg::index_t;
using linalg::Matrix;
using testing::seed_banner;
using testing::sweep_seeds;

SpecialQrcpResult reference_qrcp(const Matrix& x, double alpha,
                                 PivotRule rule) {
  SpecialQrcpResult res;
  Matrix a = x;
  const index_t m = a.rows();
  const index_t n = a.cols();
  const double beta = alpha * std::sqrt(static_cast<double>(m));
  std::vector<double> score(static_cast<std::size_t>(n));
  std::vector<double> norm(static_cast<std::size_t>(n));
  std::vector<double> rounded(static_cast<std::size_t>(m));
  for (index_t j = 0; j < n; ++j) {
    const auto col = x.col(j);
    for (std::size_t i = 0; i < rounded.size(); ++i) {
      rounded[i] = round_to_tolerance(col[i], alpha);
    }
    score[static_cast<std::size_t>(j)] = column_score(col, alpha);
    norm[static_cast<std::size_t>(j)] = linalg::nrm2(rounded);
  }
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), index_t{0});
  for (index_t i = 0; i < std::min(m, n); ++i) {
    index_t pivot = -1;
    double best_score = 0.0;
    double best_norm = 0.0;
    for (index_t j = i; j < n; ++j) {
      const auto tail = a.col(j).subspan(static_cast<std::size_t>(i));
      const double t = linalg::nrm2(tail);
      if (t < beta) continue;
      const auto orig = static_cast<std::size_t>(perm[static_cast<std::size_t>(j)]);
      double s = score[orig];
      double nm = norm[orig];
      if (rule == PivotRule::updated_score) {
        s = column_score(tail, alpha);
        nm = t;
      } else if (rule == PivotRule::max_norm) {
        s = -t;
        nm = t;
      }
      const auto best_orig =
          pivot == -1 ? index_t{0} : perm[static_cast<std::size_t>(pivot)];
      if (pivot == -1 || s < best_score ||
          (s == best_score &&
           (nm < best_norm ||
            (nm == best_norm && perm[static_cast<std::size_t>(j)] <
                                    best_orig)))) {
        pivot = j;
        best_score = s;
        best_norm = nm;
      }
    }
    if (pivot == -1) break;
    a.swap_cols(i, pivot);
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(pivot)]);
    const index_t orig = perm[static_cast<std::size_t>(i)];
    res.selected.push_back(orig);
    res.pivot_scores.push_back(score[static_cast<std::size_t>(orig)]);
    auto head = a.col(i).subspan(static_cast<std::size_t>(i));
    const linalg::Reflector h = linalg::make_reflector(head);
    linalg::apply_reflector_left(a, i, i + 1, head.subspan(1), h.tau);
    head[0] = h.beta;
  }
  res.rank = static_cast<index_t>(res.selected.size());
  return res;
}

::testing::AssertionResult SameAsReference(const Matrix& x, double alpha,
                                           PivotRule rule) {
  const SpecialQrcpResult got = specialized_qrcp(x, alpha, rule);
  const SpecialQrcpResult want = reference_qrcp(x, alpha, rule);
  if (got.selected != want.selected) {
    auto failure = ::testing::AssertionFailure();
    failure << "selected differ (rank " << got.rank << " vs " << want.rank
            << ")";
    const std::size_t k = std::min(got.selected.size(), want.selected.size());
    for (std::size_t i = 0; i < k; ++i) {
      if (got.selected[i] != want.selected[i]) {
        failure << ", first at step " << i << ": " << got.selected[i]
                << " vs " << want.selected[i];
        break;
      }
    }
    return failure;
  }
  if (got.rank != want.rank) {
    return ::testing::AssertionFailure() << "rank differs";
  }
  for (std::size_t i = 0; i < want.pivot_scores.size(); ++i) {
    if (std::memcmp(&got.pivot_scores[i], &want.pivot_scores[i],
                    sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "pivot score " << i << ": " << got.pivot_scores[i] << " vs "
             << want.pivot_scores[i];
    }
  }
  return ::testing::AssertionSuccess() << "rank " << got.rank;
}

constexpr PivotRule kAllRules[] = {PivotRule::original_score,
                                   PivotRule::updated_score,
                                   PivotRule::max_norm};

const char* rule_name(PivotRule rule) {
  switch (rule) {
    case PivotRule::original_score: return "original_score";
    case PivotRule::updated_score: return "updated_score";
    case PivotRule::max_norm: return "max_norm";
  }
  return "?";
}

TEST(QrcpWalk, MatchesEagerOnEveryCategory) {
  for (const char* category : {"cpu_flops", "gpu_flops", "branch", "dcache",
                               "icache", "gpu_dcache"}) {
    const auto setup = service::category_setup(category);
    ASSERT_TRUE(setup.has_value()) << category;
    const auto machine = service::machine_by_name(setup->default_machine);
    const PipelineResult result = run_pipeline(
        *machine, setup->benchmark, setup->signatures, setup->options);
    ASSERT_GT(result.qr.rank, 0) << category;
    for (PivotRule rule : kAllRules) {
      EXPECT_TRUE(SameAsReference(result.projection.x, setup->options.alpha,
                                  rule))
          << category << " " << rule_name(rule);
    }
  }
}

PipelineResult run_model(const modelgen::GeneratorSpec& spec,
                         double* alpha) {
  const modelgen::GeneratedModel model = modelgen::generate(spec);
  const pmu::Machine machine = model.machine();
  *alpha = model.options.alpha;
  return run_pipeline(machine, model.benchmark, model.signatures,
                      model.options);
}

TEST(QrcpWalk, MatchesEagerOnDefaultModelgenSeeds) {
  for (std::uint64_t seed : sweep_seeds(1, 200)) {
    modelgen::GeneratorSpec spec;
    spec.seed = seed;
    double alpha = 0.0;
    const PipelineResult result = run_model(spec, &alpha);
    for (PivotRule rule : kAllRules) {
      EXPECT_TRUE(SameAsReference(result.projection.x, alpha, rule))
          << seed_banner(seed) << rule_name(rule);
    }
  }
}

TEST(QrcpWalk, MatchesEagerOnScale5k) {
  double alpha = 0.0;
  const PipelineResult result =
      run_model(modelgen::GeneratorSpec::scale_5k(2024), &alpha);
  EXPECT_TRUE(SameAsReference(result.projection.x, alpha,
                              PivotRule::original_score));
}

TEST(QrcpWalk, MatchesEagerOnScale10k) {
  double alpha = 0.0;
  const PipelineResult result =
      run_model(modelgen::GeneratorSpec::scale_10k(2024), &alpha);
  EXPECT_TRUE(SameAsReference(result.projection.x, alpha,
                              PivotRule::original_score));
}

// The key of column j of `a` (score, rounded norm), as the walk orders it.
std::pair<double, double> key_of(const Matrix& a, index_t j, double alpha) {
  linalg::Vector rounded(static_cast<std::size_t>(a.rows()));
  for (index_t i = 0; i < a.rows(); ++i) {
    rounded[static_cast<std::size_t>(i)] = round_to_tolerance(a(i, j), alpha);
  }
  return {column_score(a.col(j), alpha), linalg::nrm2(rounded)};
}

// Columns whose computed residual, once the columns before them in key
// order are picked, is within two ulps of beta.  Layout (m rows):
//   * r basis columns with entries +-[1, 2]: the smallest scores, picked
//     first;
//   * q planted columns B c + rho z, entries up to 4r: visited next.  z is
//     orthonormal to every other column's direction, so the exact residual
//     stays rho whatever is picked later, and rho is tuned until the
//     residual computed with the basis reflectors lands on beta; the later
//     reflectors then move the computed value by an ulp either way;
//   * s later columns with entries +-[5r, 6r]: genuine new directions,
//     visited last, whose reflectors keep stirring the planted residuals.
// alpha is large (0.25 or 0.5) so that one ulp of the combination part
// B c is about one ulp of beta: the residual can be tuned that finely.
Matrix planted_near_beta(std::uint64_t seed, double alpha) {
  std::mt19937_64 rng(seed);
  const auto draw = [&rng](index_t lo, index_t span) {
    return lo + static_cast<index_t>(rng() % static_cast<std::uint64_t>(span));
  };
  const index_t r = draw(2, 3);
  const index_t q = draw(1, 4);
  const index_t s = draw(1, 3);
  const index_t m = r + q + s + draw(0, 3);
  std::uniform_real_distribution<double> unit(1.0, 2.0);
  const auto signed_unit = [&] { return (rng() % 2 ? 1.0 : -1.0) * unit(rng); };
  Matrix basis(m, r);
  for (double& v : basis.data()) v = signed_unit();
  Matrix later(m, s);
  for (double& v : later.data()) v = static_cast<double>(r) * (4.0 + unit(rng));
  for (double& v : later.data()) v *= rng() % 2 ? 1.0 : -1.0;
  // Orthonormal directions outside span(basis, later): the trailing columns
  // of Q from a QR of [basis, later, random].
  Matrix all(m, m);
  for (index_t j = 0; j < r; ++j) all.set_col(j, basis.col(j));
  for (index_t j = 0; j < s; ++j) all.set_col(r + j, later.col(j));
  const Matrix extra = linalg::random_gaussian(m, m - r - s, seed ^ 0x5eed);
  for (index_t j = 0; j < m - r - s; ++j) all.set_col(r + s + j, extra.col(j));
  const Matrix qfull = linalg::QrFactorization(all).q_thin();
  // The basis in key order: its QR holds the reflectors a planted column
  // meets first, with the walk's per-column arithmetic.
  std::vector<index_t> order(static_cast<std::size_t>(r));
  std::iota(order.begin(), order.end(), index_t{0});
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return key_of(basis, a, alpha) < key_of(basis, b, alpha);
  });
  const linalg::QrFactorization basis_qr(basis.select_columns(order));

  const double beta = alpha * std::sqrt(static_cast<double>(m));
  std::uniform_real_distribution<double> coef(1.0, 2.0);
  std::uniform_int_distribution<int> ulps(-2, 2);
  std::vector<linalg::Vector> cols;
  for (index_t j = 0; j < r; ++j) {
    cols.emplace_back(basis.col(j).begin(), basis.col(j).end());
  }
  for (index_t p = 0; p < q; ++p) {
    linalg::Vector combination(static_cast<std::size_t>(m), 0.0);
    for (index_t j = 0; j < r; ++j) {
      linalg::axpy((rng() % 2 ? 1.0 : -1.0) * coef(rng), basis.col(j),
                   combination);
    }
    const double target =
        beta * (1.0 + std::numeric_limits<double>::epsilon() * ulps(rng));
    double rho = beta;
    linalg::Vector v;
    for (int iter = 0; iter < 4; ++iter) {
      v = combination;
      linalg::axpy(rho, qfull.col(r + s + p), v);
      linalg::Vector residual = v;
      basis_qr.apply_qt(residual);
      rho *= target / linalg::nrm2(std::span<const double>(residual).subspan(
                          static_cast<std::size_t>(r)));
    }
    cols.push_back(std::move(v));
  }
  for (index_t j = 0; j < s; ++j) {
    cols.emplace_back(later.col(j).begin(), later.col(j).end());
  }
  // Shuffle so key order, not input order, decides the visit order.
  std::shuffle(cols.begin(), cols.end(), rng);
  return Matrix::from_columns(cols);
}

TEST(QrcpWalk, PlantedNearBetaColumnsMatchEager) {
  for (std::uint64_t seed : sweep_seeds(1, 3000)) {
    const double alpha = seed % 2 == 0 ? 0.5 : 0.25;
    const Matrix x = planted_near_beta(seed, alpha);
    ASSERT_TRUE(SameAsReference(x, alpha, PivotRule::original_score))
        << seed_banner(seed);
  }
}

TEST(QrcpWalk, RandomMatricesMatchEagerUnderEveryRule) {
  for (std::uint64_t seed : sweep_seeds(1, 100)) {
    const Matrix x = linalg::random_gaussian(12, 200, seed);
    for (PivotRule rule : kAllRules) {
      EXPECT_TRUE(SameAsReference(x, 5e-4, rule))
          << seed_banner(seed) << rule_name(rule);
    }
  }
}

}  // namespace
}  // namespace catalyst::core
