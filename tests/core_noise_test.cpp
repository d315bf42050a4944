// Unit tests for the Section IV noise analysis (max RNMSE, tau filter,
// across-thread median).
#include "core/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace catalyst::core {
namespace {

TEST(Rnmse, IdenticalVectorsHaveZeroError) {
  std::vector<double> m{10, 20, 30};
  EXPECT_DOUBLE_EQ(rnmse(m, m), 0.0);
}

TEST(Rnmse, MatchesHandComputedValue) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{1, 2, 4};
  // ||a-b|| = 1; N = 3; means 2 and 7/3 -> denom = sqrt(3 * 2 * 7/3).
  EXPECT_NEAR(rnmse(a, b), 1.0 / std::sqrt(14.0), 1e-14);
}

TEST(Rnmse, IsSymmetric) {
  std::vector<double> a{5, 0, 2};
  std::vector<double> b{4, 1, 2};
  EXPECT_DOUBLE_EQ(rnmse(a, b), rnmse(b, a));
}

TEST(Rnmse, ZeroMeanDefinesUnitError) {
  std::vector<double> zero{0, 0, 0};
  std::vector<double> nonzero{1, 2, 3};
  EXPECT_DOUBLE_EQ(rnmse(zero, nonzero), 1.0);
  EXPECT_DOUBLE_EQ(rnmse(nonzero, zero), 1.0);
}

TEST(Rnmse, BothAllZeroIsZeroError) {
  std::vector<double> zero{0, 0, 0};
  EXPECT_DOUBLE_EQ(rnmse(zero, zero), 0.0);
}

TEST(Rnmse, RejectsMismatchedOrEmpty) {
  std::vector<double> a{1, 2};
  std::vector<double> b{1};
  EXPECT_THROW(rnmse(a, b), std::invalid_argument);
  std::vector<double> e;
  EXPECT_THROW(rnmse(e, e), std::invalid_argument);
}

TEST(Rnmse, ScaleInvariant) {
  // Multiplying both vectors by c scales num by c and denom by c.
  std::vector<double> a{10, 20, 31};
  std::vector<double> b{11, 19, 30};
  std::vector<double> a2{1000, 2000, 3100};
  std::vector<double> b2{1100, 1900, 3000};
  EXPECT_NEAR(rnmse(a, b), rnmse(a2, b2), 1e-12);
}

TEST(MaxRnmse, TakesWorstPair) {
  const vpapi::Measurements reps{{{1, 2, 3}, {1, 2, 3}, {1, 2, 30}}};
  const double worst = max_rnmse(reps, 0);
  EXPECT_DOUBLE_EQ(worst, rnmse(reps.row(0, 0), reps.row(0, 2)));
  EXPECT_GT(worst, 0.0);
}

TEST(MaxRnmse, NeedsTwoReps) {
  EXPECT_THROW(max_rnmse(vpapi::Measurements{{{1, 2}}}, 0),
               std::invalid_argument);
}

TEST(FilterNoise, SplitsCleanNoisyAndZero) {
  std::vector<std::string> names{"clean", "noisy", "zero"};
  const vpapi::Measurements meas{
      {{10, 20}, {10, 20}},       // identical -> variability 0
      {{10, 20}, {14, 26}},       // noticeably noisy
      {{0, 0}, {0, 0}},           // all zero -> discarded
  };
  auto res = filter_noise(names, meas, 1e-10);
  ASSERT_EQ(res.variabilities.size(), 3u);
  EXPECT_FALSE(res.variabilities[0].all_zero);
  EXPECT_DOUBLE_EQ(res.variabilities[0].max_rnmse, 0.0);
  EXPECT_GT(res.variabilities[1].max_rnmse, 1e-2);
  EXPECT_TRUE(res.variabilities[2].all_zero);
  ASSERT_EQ(res.kept, (std::vector<std::size_t>{0}));
  ASSERT_EQ(res.averaged.cols(), 1);
  EXPECT_EQ(res.averaged.col_copy(0), (std::vector<double>{10, 20}));
}

TEST(FilterNoise, LenientTauKeepsNoisyEvents) {
  std::vector<std::string> names{"noisy"};
  const vpapi::Measurements meas{{{10, 20}, {11, 21}}};
  auto strict = filter_noise(names, meas, 1e-10);
  EXPECT_TRUE(strict.kept.empty());
  auto lenient = filter_noise(names, meas, 1e-1);
  ASSERT_EQ(lenient.kept.size(), 1u);
  // Kept events carry the repetition average, one column each.
  EXPECT_EQ(lenient.averaged.rows(), 2);
  EXPECT_EQ(lenient.averaged.col_copy(0), (std::vector<double>{10.5, 20.5}));
}

TEST(FilterNoise, AllZeroDiscardedEvenWithZeroVariability) {
  auto res = filter_noise({"z"}, {{{0, 0}, {0, 0}}}, 1.0);
  EXPECT_TRUE(res.kept.empty());
  EXPECT_TRUE(res.variabilities[0].all_zero);
}

TEST(FilterNoise, RejectsBadArgs) {
  EXPECT_THROW(filter_noise({"a"}, {}, 0.1), std::invalid_argument);
  EXPECT_THROW(filter_noise({"a"}, {{{1.0}, {1.0}}}, -0.1),
               std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(Median, RobustToOneOutlier) {
  EXPECT_DOUBLE_EQ(median({10, 10, 1e9}), 10.0);
}

TEST(Median, ThrowsOnEmpty) {
  EXPECT_THROW(median({}), std::invalid_argument);
}

class RnmseNoiseLevels : public ::testing::TestWithParam<double> {};

TEST_P(RnmseNoiseLevels, TracksRelativeNoiseMagnitude) {
  // Perturbing one vector by relative eps yields RNMSE of order eps.
  const double eps = GetParam();
  std::vector<double> a{100, 200, 300, 400};
  std::vector<double> b = a;
  for (double& v : b) v *= (1.0 + eps);
  const double r = rnmse(a, b);
  EXPECT_GT(r, eps * 0.5);
  EXPECT_LT(r, eps * 2.5);
}

INSTANTIATE_TEST_SUITE_P(Levels, RnmseNoiseLevels,
                         ::testing::Values(1e-8, 1e-6, 1e-4, 1e-2));

}  // namespace
}  // namespace catalyst::core
