// The block least-squares solve against the one-right-hand-side solve it
// replaced.  `reference_lstsq` and `reference_stderr` below are that solve
// and the per-signature standard errors, kept verbatim: one Householder QR
// per right-hand side, Eq. 5 through backward_error(), one more QR for the
// standard errors.  The block solve factors A once; every column of its
// result must be the bytes the reference gives for that column alone --
// solutions, residual norms, backward errors and rank flags -- and so must
// the projection and metric synthesis built on it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "linalg/audit.hpp"
#include "linalg/linalg.hpp"
#include "pmu/pmu.hpp"
#include "seed_util.hpp"

namespace catalyst {
namespace {

using catalyst::testing::seed_banner;
using catalyst::testing::sweep_seeds;
using linalg::index_t;
using linalg::Matrix;
using linalg::Vector;

// --- the reference: one factorization per right-hand side -----------------

linalg::LstsqResult reference_lstsq(const Matrix& a,
                                    std::span<const double> b,
                                    double rcond = 1e-12) {
  linalg::LstsqResult out;
  const linalg::QrFactorization qr(a);
  Vector y(b.begin(), b.end());
  qr.apply_qt(y);
  const auto& diag = qr.r_diagonal_abs();
  const double dmax =
      diag.empty() ? 0.0 : *std::max_element(diag.begin(), diag.end());
  const double tol = rcond * dmax;
  out.x.assign(y.begin(), y.begin() + a.cols());
  const auto n = static_cast<index_t>(out.x.size());
  for (index_t i = n - 1; i >= 0; --i) {
    double s = out.x[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) {
      s -= qr.packed()(i, j) * out.x[static_cast<std::size_t>(j)];
    }
    const double d = qr.packed()(i, i);
    if (std::fabs(d) <= tol) {
      out.x[static_cast<std::size_t>(i)] = 0.0;
      out.rank_deficient = true;
    } else {
      out.x[static_cast<std::size_t>(i)] = s / d;
    }
  }
  Vector r(b.begin(), b.end());
  linalg::gemv(-1.0, a, out.x, 1.0, r);
  out.residual_norm = linalg::nrm2(r);
  out.backward_error = linalg::backward_error(a, out.x, b);
  return out;
}

std::vector<double> reference_stderr(const Matrix& xhat,
                                     std::span<const double> y,
                                     std::span<const double> s) {
  const index_t m = xhat.rows();
  const index_t n = xhat.cols();
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  if (m <= n || n == 0) return out;
  Vector r(s.begin(), s.end());
  linalg::gemv(-1.0, xhat, y, 1.0, r);
  const double rnorm = linalg::nrm2(r);
  const double sigma2 = rnorm * rnorm / static_cast<double>(m - n);
  const linalg::QrFactorization qr(xhat);
  for (index_t i = 0; i < n; ++i) {
    Vector e(static_cast<std::size_t>(n), 0.0);
    e[static_cast<std::size_t>(i)] = 1.0;
    try {
      linalg::trsv_upper_t(qr.packed(), e);
    } catch (const linalg::SingularError&) {
      continue;
    }
    out[static_cast<std::size_t>(i)] = std::sqrt(sigma2) * linalg::nrm2(e);
  }
  return out;
}

// --- comparison helpers ---------------------------------------------------

::testing::AssertionResult SameBytes(std::span<const double> a,
                                     std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double))
                        != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "element " << i << ": " << a[i] << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBytes(double a, double b) {
  return SameBytes(std::span<const double>(&a, 1),
                   std::span<const double>(&b, 1));
}

/// Every column of the block solve of (a, b) on `threads` workers against
/// the reference.
void expect_block_matches_reference(const Matrix& a, const Matrix& b,
                                    const std::string& what,
                                    int threads = 1) {
  const linalg::LstsqBlockResult block =
      linalg::lstsq(a, b, linalg::kLstsqRcond, threads);
  ASSERT_EQ(block.x.rows(), a.cols()) << what;
  ASSERT_EQ(block.x.cols(), b.cols()) << what;
  ASSERT_EQ(block.residual_norms.size(), static_cast<std::size_t>(b.cols()));
  ASSERT_EQ(block.backward_errors.size(), static_cast<std::size_t>(b.cols()));
  for (index_t j = 0; j < b.cols(); ++j) {
    const auto ref = reference_lstsq(a, b.col(j));
    const auto jj = static_cast<std::size_t>(j);
    EXPECT_TRUE(SameBytes(block.x.col(j), ref.x)) << what << " column " << j;
    EXPECT_TRUE(SameBytes(block.residual_norms[jj], ref.residual_norm))
        << what << " column " << j;
    EXPECT_TRUE(SameBytes(block.backward_errors[jj], ref.backward_error))
        << what << " column " << j;
    EXPECT_EQ(block.rank_deficient, ref.rank_deficient)
        << what << " column " << j;
  }
}

/// Columns mixing planted solutions, noise and exact zeros.
Matrix right_hand_sides(const Matrix& a, index_t count, std::uint64_t seed) {
  const Matrix noise = linalg::random_gaussian(a.rows(), count, seed + 1);
  const Matrix planted = linalg::random_gaussian(a.cols(), count, seed + 2);
  Matrix b = linalg::matmul(a, planted);
  for (index_t j = 0; j < count; ++j) {
    const double scale = j % 3 == 0 ? 0.0 : std::ldexp(1.0, -10 * int(j % 4));
    for (index_t i = 0; i < a.rows(); ++i) b(i, j) += scale * noise(i, j);
  }
  for (index_t i = 0; i < a.rows(); ++i) b(i, count - 1) = 0.0;
  return b;
}

TEST(LstsqBlock, TallSystemsMatchPerColumnSolve) {
  for (std::uint64_t seed : sweep_seeds(1, 10)) {
    const Matrix a = linalg::random_gaussian(40, 12, seed);
    expect_block_matches_reference(a, right_hand_sides(a, 9, seed),
                                   seed_banner(seed) + "tall");
  }
}

TEST(LstsqBlock, RankDeficientSystemsMatchPerColumnSolve) {
  for (std::uint64_t seed : sweep_seeds(1, 10)) {
    Matrix a = linalg::random_gaussian(30, 8, seed);
    a.set_col(5, a.col(2));                    // a repeated column
    a.set_col(7, Vector(30, 0.0));             // a dead column
    const Matrix b = right_hand_sides(a, 6, seed);
    ASSERT_TRUE(linalg::lstsq(a, b).rank_deficient) << seed_banner(seed);
    expect_block_matches_reference(a, b, seed_banner(seed) + "deficient");
  }
}

TEST(LstsqBlock, ProjectionSizedSystemsMatchPerColumnSolve) {
  // 71 x 64: the slots x ideal-events shape of the generated 10k-event
  // model's expectation basis.
  for (std::uint64_t seed : sweep_seeds(1, 3)) {
    const Matrix a = linalg::random_gaussian(71, 64, seed);
    expect_block_matches_reference(a, right_hand_sides(a, 40, seed),
                                   seed_banner(seed) + "71x64");
  }
}

TEST(LstsqBlock, EmptyBlockFactorsButSolvesNothing) {
  const Matrix a = linalg::random_gaussian(5, 3, 9);
  const auto block = linalg::lstsq(a, Matrix(5, 0));
  EXPECT_EQ(block.x.rows(), 3);
  EXPECT_EQ(block.x.cols(), 0);
  EXPECT_TRUE(block.residual_norms.empty());
  EXPECT_THROW(linalg::lstsq(a, Matrix(4, 2)), linalg::DimensionError);
}

TEST(LstsqBlock, EveryColumnIsAudited) {
  const Matrix a = linalg::random_gaussian(10, 4, 3);
  const Matrix b = right_hand_sides(a, 5, 3);
  linalg::audit::EnabledGuard guard(true);
  linalg::audit::reset_counts();
  const auto block = linalg::lstsq(a, b);
  EXPECT_FALSE(block.rank_deficient);
  EXPECT_EQ(linalg::audit::counts().lstsq, 5u);
}

TEST(LstsqBlock, ChunkedSolveMatchesSerialSolve) {
  // Three full chunks and a ragged fourth: every thread count gives the
  // serial block's bytes (itself pinned to the per-column reference
  // above), and every column is audited exactly once on the worker pool.
  const index_t cols = 3 * linalg::kLstsqChunkColumns + 5;
  for (std::uint64_t seed : sweep_seeds(1, 3)) {
    const Matrix a = linalg::random_gaussian(71, 64, seed);
    const Matrix b = right_hand_sides(a, cols, seed);
    const linalg::LstsqBlockResult serial = linalg::lstsq(a, b);
    for (int threads : {2, 3, 4}) {
      linalg::audit::EnabledGuard guard(true);
      linalg::audit::reset_counts();
      const linalg::LstsqBlockResult chunked =
          linalg::lstsq(a, b, linalg::kLstsqRcond, threads);
      EXPECT_EQ(linalg::audit::counts().lstsq, static_cast<std::size_t>(cols))
          << seed_banner(seed) << "threads=" << threads;
      EXPECT_TRUE(SameBytes(chunked.x.data(), serial.x.data()))
          << seed_banner(seed) << "threads=" << threads;
      EXPECT_TRUE(SameBytes(chunked.residual_norms, serial.residual_norms))
          << seed_banner(seed) << "threads=" << threads;
      EXPECT_TRUE(SameBytes(chunked.backward_errors, serial.backward_errors))
          << seed_banner(seed) << "threads=" << threads;
      EXPECT_EQ(chunked.rank_deficient, serial.rank_deficient);
    }
  }
}

TEST(LstsqBlock, PanelAndChunkEdgesMatchPerColumnSolve) {
  // The solve runs 8-column panels inside 256-column chunks: a lone column,
  // a short, a whole and a long panel, a chunk short, whole and one over,
  // and two chunks and a column -- each at 1 and 3 threads.
  const Matrix a = linalg::random_gaussian(24, 10, 5);
  for (const index_t width : {1, 7, 8, 9, 255, 256, 257, 513}) {
    const Matrix b =
        right_hand_sides(a, width, static_cast<std::uint64_t>(width));
    for (const int threads : {1, 3}) {
      expect_block_matches_reference(
          a, b,
          "width " + std::to_string(width) + " threads " +
              std::to_string(threads),
          threads);
    }
  }
}

TEST(LstsqBlock, DegeneratePanelsMatchPerColumnSolve) {
  // Column 0 is already (alpha, 0, ..., 0), so its reflector has tau == 0;
  // column 5 repeats column 2, so R(5,5) is at rounding scale and its
  // component is regularized to zero.  The right-hand sides add a +0.0 and
  // a -0.0 column: the sign of every zero must come through.
  for (std::uint64_t seed : sweep_seeds(1, 4)) {
    Matrix a = linalg::random_gaussian(30, 8, seed);
    for (index_t i = 1; i < a.rows(); ++i) a(i, 0) = 0.0;
    a.set_col(5, a.col(2));
    ASSERT_EQ(linalg::QrFactorization(a).taus()[0], 0.0) << seed_banner(seed);
    Matrix b = right_hand_sides(a, 19, seed);
    b.set_col(3, Vector(30, 0.0));
    b.set_col(4, Vector(30, -0.0));
    ASSERT_TRUE(linalg::lstsq(a, b).rank_deficient) << seed_banner(seed);
    for (const int threads : {1, 3}) {
      expect_block_matches_reference(
          a, b, seed_banner(seed) + "threads " + std::to_string(threads),
          threads);
    }
  }
}

// --- the stages built on it -----------------------------------------------

TEST(LstsqBlock, SolveMetricsMatchesPerSignatureSolve) {
  for (std::uint64_t seed : sweep_seeds(1, 8)) {
    // Tall (standard errors defined), square (all zero) and a repeated
    // column (a coefficient whose variance is not identified).
    Matrix deficient = linalg::random_gaussian(9, 4, seed + 7);
    deficient.set_col(3, deficient.col(1));
    for (const Matrix& xhat : {linalg::random_gaussian(9, 4, seed),
                               linalg::random_gaussian(5, 5, seed + 3),
                               deficient}) {
      const Matrix s = right_hand_sides(xhat, 6, seed);
      std::vector<core::MetricSignature> sigs;
      for (index_t j = 0; j < s.cols(); ++j) {
        sigs.push_back({"m" + std::to_string(j), s.col_copy(j)});
      }
      std::vector<std::string> names;
      for (index_t i = 0; i < xhat.cols(); ++i) {
        names.push_back("E" + std::to_string(i));
      }
      const auto defs = core::solve_metrics(xhat, names, sigs, 1e-6);
      ASSERT_EQ(defs.size(), sigs.size());
      for (std::size_t j = 0; j < sigs.size(); ++j) {
        const auto ref = reference_lstsq(xhat, sigs[j].coordinates);
        const auto& def = defs[j];
        EXPECT_EQ(def.metric_name, sigs[j].name);
        ASSERT_EQ(def.terms.size(), names.size());
        for (std::size_t i = 0; i < names.size(); ++i) {
          EXPECT_EQ(def.terms[i].event_name, names[i]);
          EXPECT_TRUE(SameBytes(def.terms[i].coefficient, ref.x[i]))
              << seed_banner(seed) << "signature " << j << " term " << i;
        }
        EXPECT_TRUE(SameBytes(def.backward_error, ref.backward_error))
            << seed_banner(seed) << "signature " << j;
        EXPECT_EQ(def.composable, ref.backward_error <= 1e-6);
        EXPECT_TRUE(SameBytes(def.coefficient_stderrs,
                              reference_stderr(xhat, ref.x,
                                               sigs[j].coordinates)))
            << seed_banner(seed) << "signature " << j;
      }
    }
  }
}

TEST(LstsqBlock, PipelineProjectionMatchesPerEventSolve) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  const auto result =
      core::run_pipeline(machine, bench, core::cpu_flops_signatures());
  const auto& proj = result.projection;
  ASSERT_EQ(proj.xe.cols(), result.noise.averaged.cols());
  ASSERT_GT(proj.xe.cols(), 0);
  std::vector<index_t> representable;
  for (index_t e = 0; e < proj.xe.cols(); ++e) {
    const auto ref =
        reference_lstsq(bench.basis.e, result.noise.averaged.col(e));
    EXPECT_TRUE(SameBytes(proj.xe.col(e), ref.x)) << "event " << e;
    EXPECT_TRUE(SameBytes(proj.backward_errors[static_cast<std::size_t>(e)],
                          ref.backward_error))
        << "event " << e;
    if (ref.backward_error <= core::PipelineOptions{}.projection_max_error) {
      representable.push_back(e);
    }
  }
  EXPECT_EQ(proj.representable, representable);
  EXPECT_EQ(proj.x, proj.xe.select_columns(representable));
}

}  // namespace
}  // namespace catalyst
