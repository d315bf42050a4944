// Unit tests for basis projection, signature tables, metric synthesis and
// coefficient rounding (Sections III-B and VI).
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "core/normalize.hpp"
#include "linalg/blas.hpp"
#include "linalg/random.hpp"
#include "core/report.hpp"
#include "core/signatures.hpp"

namespace catalyst::core {
namespace {

// --- normalize_events -----------------------------------------------------------

TEST(Normalize, ProjectsExactEventOntoBasis) {
  // Basis: two ideal events over 4 slots.
  linalg::Matrix e = linalg::Matrix::from_columns({
      {24, 48, 96, 0},
      {0, 0, 0, 12},
  });
  // Raw event measuring "first ideal + 2 x second ideal".
  const auto meas = linalg::Matrix::from_columns({{24, 48, 96, 24}});
  auto res = normalize_events(e, meas, 1e-6);
  ASSERT_EQ(res.backward_errors.size(), 1u);
  EXPECT_EQ(res.representable, std::vector<linalg::index_t>{0});
  EXPECT_NEAR(res.xe(0, 0), 1.0, 1e-10);
  EXPECT_NEAR(res.xe(1, 0), 2.0, 1e-10);
  EXPECT_EQ(res.x, res.xe);
}

TEST(Normalize, RejectsUnrepresentableEvent) {
  linalg::Matrix e = linalg::Matrix::from_columns({{24, 48, 96, 0}});
  // A constant vector is far from any multiple of (24,48,96,0).
  const auto meas = linalg::Matrix::from_columns({{50, 50, 50, 50}});
  auto res = normalize_events(e, meas, 1e-3);
  EXPECT_TRUE(res.representable.empty());
  EXPECT_EQ(res.x.cols(), 0);
  EXPECT_EQ(res.x.rows(), 1);
}

TEST(Normalize, ThresholdControlsAdmission) {
  linalg::Matrix e = linalg::Matrix::from_columns({{1, 0, 0}, {0, 1, 0}});
  // The second event has a slight residual.
  const auto meas =
      linalg::Matrix::from_columns({{2.0, 1.0, 0.0}, {1.0, 0.0, 0.05}});
  auto strict = normalize_events(e, meas, 1e-6);
  EXPECT_EQ(strict.representable, std::vector<linalg::index_t>{0});
  EXPECT_EQ(strict.x, strict.xe.select_columns(strict.representable));
  auto lenient = normalize_events(e, meas, 0.1);
  EXPECT_EQ(lenient.representable, (std::vector<linalg::index_t>{0, 1}));
  EXPECT_EQ(lenient.x, lenient.xe);
}

TEST(Normalize, ValidatesArguments) {
  linalg::Matrix e(3, 2);
  EXPECT_THROW(normalize_events(e, linalg::Matrix(2, 1), 0.1),
               std::invalid_argument);
  EXPECT_THROW(normalize_events(e, linalg::Matrix(3, 1), -0.1),
               std::invalid_argument);
}

// --- signatures -------------------------------------------------------------------

TEST(Signatures, TableIDimensionsAndDpOps) {
  auto sigs = cpu_flops_signatures();
  ASSERT_EQ(sigs.size(), 6u);
  for (const auto& s : sigs) EXPECT_EQ(s.coordinates.size(), 16u);
  // DP Ops from Section III-B:
  EXPECT_EQ(sigs[4].name, "DP Ops.");
  EXPECT_EQ(sigs[4].coordinates,
            (linalg::Vector{0, 0, 0, 0, 1, 2, 4, 8, 0, 0, 0, 0, 2, 4, 8, 16}));
}

TEST(Signatures, TableIIAllHpOps) {
  auto sigs = gpu_flops_signatures();
  ASSERT_EQ(sigs.size(), 6u);
  for (const auto& s : sigs) EXPECT_EQ(s.coordinates.size(), 15u);
  EXPECT_EQ(sigs[3].name, "All HP Ops.");
  EXPECT_EQ(sigs[3].coordinates,
            (linalg::Vector{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0}));
}

TEST(Signatures, TableIIIRelations) {
  auto sigs = branch_signatures();
  ASSERT_EQ(sigs.size(), 7u);
  // Not Taken = Retired - Taken;  Correctly Predicted = Retired - Mispred.
  EXPECT_EQ(sigs[2].coordinates, (linalg::Vector{0, 1, -1, 0, 0}));
  EXPECT_EQ(sigs[4].coordinates, (linalg::Vector{0, 1, 0, 0, -1}));
}

TEST(Signatures, TableIVRelations) {
  auto sigs = dcache_signatures();
  ASSERT_EQ(sigs.size(), 6u);
  // L2 Misses = L1 Misses - L2 Hits.
  EXPECT_EQ(sigs[4].coordinates, (linalg::Vector{1, 0, -1, 0}));
}

// --- solve_metrics, one signature -------------------------------------------

MetricDefinition solve_one(const linalg::Matrix& xhat,
                           const std::vector<std::string>& names,
                           const MetricSignature& signature) {
  auto defs = solve_metrics(xhat, names, {signature});
  EXPECT_EQ(defs.size(), 1u);
  return defs.at(0);
}

TEST(SolveMetric, ExactCompositionHasTinyError) {
  // Xhat columns: two events, identity-aligned.
  linalg::Matrix xhat = linalg::Matrix::from_columns({{1, 0}, {0, 1}});
  MetricSignature s{"sum", {1, 1}};
  auto def = solve_one(xhat, {"E1", "E2"}, s);
  EXPECT_TRUE(def.composable);
  EXPECT_NEAR(def.terms[0].coefficient, 1.0, 1e-12);
  EXPECT_NEAR(def.terms[1].coefficient, 1.0, 1e-12);
  EXPECT_LT(def.backward_error, 1e-14);
}

TEST(SolveMetric, ImpossibleMetricSaturatesErrorAtOne) {
  // Signature entirely outside the column space, as for "All Branches
  // Executed" in Table VII.
  linalg::Matrix xhat = linalg::Matrix::from_columns({{0, 1, 0}, {0, 0, 1}});
  MetricSignature s{"CE", {1, 0, 0}};
  auto def = solve_one(xhat, {"E1", "E2"}, s);
  EXPECT_FALSE(def.composable);
  EXPECT_NEAR(def.backward_error, 1.0, 1e-10);
}

TEST(SolveMetric, FmaStyleCompromiseGivesPoint8) {
  // One event with the (1, 2) structure; target only the FMA half (0, 2):
  // least squares gives y = 0.8, the Table V pattern.
  linalg::Matrix xhat = linalg::Matrix::from_columns({{1, 2}});
  MetricSignature s{"FMA instrs", {0, 2}};
  auto def = solve_one(xhat, {"FP"}, s);
  EXPECT_NEAR(def.terms[0].coefficient, 0.8, 1e-12);
  EXPECT_FALSE(def.composable);
  EXPECT_GT(def.backward_error, 0.1);
}

TEST(SolveMetric, ValidatesShapes) {
  linalg::Matrix xhat(3, 2);
  MetricSignature s{"m", {1, 0, 0}};
  EXPECT_THROW(solve_metrics(xhat, {"only-one"}, {s}), std::invalid_argument);
  MetricSignature bad{"m", {1, 0}};
  EXPECT_THROW(solve_metrics(xhat, {"a", "b"}, {s, bad}),
               std::invalid_argument);
}

TEST(SolveMetrics, SolvesAllSignatures) {
  linalg::Matrix xhat = linalg::Matrix::from_columns({{1, 0}, {0, 1}});
  auto defs = solve_metrics(xhat, {"A", "B"},
                            {{"m1", {1, 0}}, {"m2", {3, -2}}});
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_NEAR(defs[1].terms[0].coefficient, 3.0, 1e-12);
  EXPECT_NEAR(defs[1].terms[1].coefficient, -2.0, 1e-12);
}

// --- coefficient standard errors -------------------------------------------------

TEST(CoefficientStderr, ZeroForExactOverdeterminedFit) {
  linalg::Matrix xhat = linalg::Matrix::from_columns({{1, 0, 1}, {0, 1, 1}});
  linalg::Vector y{2.0, 3.0};
  linalg::Vector s = linalg::matvec(xhat, y);
  const auto se = solve_one(xhat, {"A", "B"}, {"m", s}).coefficient_stderrs;
  ASSERT_EQ(se.size(), 2u);
  EXPECT_NEAR(se[0], 0.0, 1e-12);
  EXPECT_NEAR(se[1], 0.0, 1e-12);
}

TEST(CoefficientStderr, ZeroWhenNoResidualDegreesOfFreedom) {
  linalg::Matrix xhat = linalg::Matrix::identity(3);
  linalg::Vector s{1, 2, 3.5};
  const auto se =
      solve_one(xhat, {"A", "B", "C"}, {"m", s}).coefficient_stderrs;
  EXPECT_EQ(se, (std::vector<double>{0, 0, 0}));
}

TEST(CoefficientStderr, ScalesWithResidualNoise) {
  // Same system solved against two signatures with different residual
  // magnitudes: stderr must scale linearly.
  linalg::Matrix xhat = linalg::random_gaussian(30, 4, 77);
  linalg::Vector y(4, 1.0);
  linalg::Vector clean = linalg::matvec(xhat, y);
  auto perturbed = [&](double eps) {
    linalg::Vector s = clean;
    for (std::size_t i = 0; i < s.size(); ++i) {
      s[i] += eps * ((i % 2 == 0) ? 1.0 : -1.0);
    }
    return MetricSignature{"m", s};
  };
  const auto defs = solve_metrics(xhat, {"A", "B", "C", "D"},
                                  {perturbed(1e-3), perturbed(1e-1)});
  const auto& se_small = defs[0].coefficient_stderrs;
  const auto& se_big = defs[1].coefficient_stderrs;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(se_big[i], 10.0 * se_small[i]);
    EXPECT_NEAR(se_big[i] / se_small[i], 100.0, 1.0);
  }
}

TEST(CoefficientStderr, ValidatesShapes) {
  // One standard error per Xhat column; a label count that does not match
  // the columns is refused before any is computed.
  linalg::Matrix xhat = linalg::random_gaussian(4, 2, 5);
  MetricSignature s{"m", {1, 2, 3, 4}};
  EXPECT_EQ(solve_one(xhat, {"A", "B"}, s).coefficient_stderrs.size(), 2u);
  EXPECT_THROW(solve_metrics(xhat, {"A"}, {s}), std::invalid_argument);
}

TEST(CoefficientStderr, AttachedToMetricDefinitions) {
  linalg::Matrix xhat = linalg::Matrix::from_columns({{1, 2, 0}, {0, 1, 1}});
  const auto def =
      solve_one(xhat, {"A", "B"}, MetricSignature{"m", {1, 2.1, 1}});
  ASSERT_EQ(def.coefficient_stderrs.size(), 2u);
  EXPECT_GT(def.coefficient_stderrs[0], 0.0);  // inexact fit -> nonzero
}

// --- coefficient rounding -----------------------------------------------------------

TEST(RoundCoefficients, SnapsNearIntegers) {
  std::vector<MetricTerm> terms{{"a", 1.00001}, {"b", 0.9996},
                                {"c", -1.002}, {"d", 0.00256}};
  auto rounded = round_coefficients(terms, 0.05);
  EXPECT_DOUBLE_EQ(rounded[0].coefficient, 1.0);
  EXPECT_DOUBLE_EQ(rounded[1].coefficient, 1.0);
  EXPECT_DOUBLE_EQ(rounded[2].coefficient, -1.0);
  EXPECT_DOUBLE_EQ(rounded[3].coefficient, 0.0);
}

TEST(RoundCoefficients, LeavesGenuineFractionsAlone) {
  std::vector<MetricTerm> terms{{"a", 0.8}, {"b", 0.5}};
  auto rounded = round_coefficients(terms, 0.02);
  EXPECT_DOUBLE_EQ(rounded[0].coefficient, 0.8);
  EXPECT_DOUBLE_EQ(rounded[1].coefficient, 0.5);
}

TEST(RoundCoefficients, RejectsNegativeTolerance) {
  EXPECT_THROW(round_coefficients({}, -0.1), std::invalid_argument);
}

TEST(DropZeroTerms, RemovesOnlyZeros) {
  std::vector<MetricTerm> terms{{"a", 1.0}, {"b", 0.0}, {"c", -2.0}};
  auto d = drop_zero_terms(terms);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].event_name, "a");
  EXPECT_EQ(d[1].event_name, "c");
}

// --- report formatting ---------------------------------------------------------------

TEST(Report, FormatCombination) {
  std::vector<MetricTerm> terms{{"E1", 1.0}, {"E2", -2.0}, {"E3", 0.0}};
  EXPECT_EQ(format_combination(terms), "1 x E1 - 2 x E2");
  EXPECT_EQ(format_combination({{"E", -1.5}}), "-1.5 x E");
  EXPECT_EQ(format_combination({}), "(none)");
  EXPECT_EQ(format_combination({{"E", 0.0}}), "(none)");
}

TEST(Report, MetricTableMentionsComposability) {
  MetricDefinition def;
  def.metric_name = "Test Metric";
  def.terms = {{"E", 1.0}};
  def.backward_error = 1e-16;
  def.composable = true;
  const auto text = format_metric_table("T", {def});
  EXPECT_NE(text.find("Test Metric"), std::string::npos);
  EXPECT_NE(text.find("[composable]"), std::string::npos);
}

TEST(Report, SignatureTableListsBasisAndRows) {
  const auto text = format_signature_table(
      "Table III", {"CE", "CR", "T", "D", "M"}, branch_signatures());
  EXPECT_NE(text.find("CE, CR, T, D, M"), std::string::npos);
  EXPECT_NE(text.find("Mispredicted Branches."), std::string::npos);
}

}  // namespace
}  // namespace catalyst::core
