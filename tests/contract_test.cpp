// Tests for the catalyst::contract layer: macro semantics, the three
// violation policies, the numeric helpers, and the acceptance-criterion
// scenario -- a NaN measurement is rejected at the pipeline boundary with a
// contract violation instead of propagating into the QR stage.
#include "core/contract.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"

namespace catalyst {
namespace {

using contract::ContractViolation;
using contract::PolicyGuard;
using contract::ViolationPolicy;

TEST(ContractMacros, PassingChecksAreSilent) {
  EXPECT_NO_THROW(CATALYST_REQUIRE(1 + 1 == 2, "arithmetic works"));
  EXPECT_NO_THROW(CATALYST_ENSURE(true, "ok"));
  EXPECT_NO_THROW(CATALYST_INVARIANT(true, "ok"));
  EXPECT_NO_THROW(CATALYST_ASSUME_FINITE(1.5, "finite scalar"));
}

TEST(ContractMacros, FailingChecksThrowContractViolation) {
  EXPECT_THROW(CATALYST_REQUIRE(false, "nope"), ContractViolation);
  EXPECT_THROW(CATALYST_ENSURE(false, "nope"), ContractViolation);
  EXPECT_THROW(CATALYST_INVARIANT(false, "nope"), ContractViolation);
}

TEST(ContractMacros, TypedVariantsThrowTheRequestedException) {
  EXPECT_THROW(CATALYST_REQUIRE_AS(false, std::invalid_argument, "msg"),
               std::invalid_argument);
  EXPECT_THROW(CATALYST_ENSURE_AS(false, std::domain_error, "msg"),
               std::domain_error);
  EXPECT_THROW(CATALYST_INVARIANT_AS(false, std::logic_error, "msg"),
               std::logic_error);
}

TEST(ContractMacros, MessageCarriesKindExpressionLocationAndText) {
  try {
    CATALYST_REQUIRE(2 < 1, "two is not less than one");
    FAIL() << "expected a throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos) << what;
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("contract_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("two is not less than one"), std::string::npos) << what;
  }
}

TEST(ContractMacros, MessageExpressionIsLazilyEvaluated) {
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("built");
  };
  CATALYST_REQUIRE(true, expensive());
  EXPECT_EQ(evaluations, 0);
  EXPECT_THROW(CATALYST_REQUIRE(false, expensive()), ContractViolation);
  EXPECT_EQ(evaluations, 1);
}

TEST(ContractPolicy, DefaultIsThrow) {
  EXPECT_EQ(contract::violation_policy(), ViolationPolicy::throw_exception);
}

TEST(ContractPolicy, LogAndContinueSwallowsAndCounts) {
  PolicyGuard guard(ViolationPolicy::log_and_continue);
  const std::size_t before = contract::logged_violation_count();
  EXPECT_NO_THROW(CATALYST_REQUIRE(false, "logged, not thrown"));
  EXPECT_NO_THROW(CATALYST_ENSURE_AS(false, std::invalid_argument, "ditto"));
  EXPECT_EQ(contract::logged_violation_count(), before + 2);
}

TEST(ContractPolicy, GuardRestoresPreviousPolicy) {
  const ViolationPolicy before = contract::violation_policy();
  {
    PolicyGuard guard(ViolationPolicy::log_and_continue);
    EXPECT_EQ(contract::violation_policy(),
              ViolationPolicy::log_and_continue);
  }
  EXPECT_EQ(contract::violation_policy(), before);
}

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, AbortWithTracePolicyAborts) {
  EXPECT_DEATH(
      {
        contract::set_violation_policy(ViolationPolicy::abort_with_trace);
        CATALYST_REQUIRE(false, "fatal by policy");
      },
      "precondition violated");
}

TEST(ContractHelpers, AllFiniteVariants) {
  EXPECT_TRUE(contract::all_finite(0.0));
  EXPECT_FALSE(contract::all_finite(std::nan("")));
  EXPECT_FALSE(
      contract::all_finite(std::numeric_limits<double>::infinity()));
  const std::vector<double> good{1.0, -2.0, 0.0};
  EXPECT_TRUE(contract::all_finite(good));
  std::vector<double> bad = good;
  bad[1] = -std::numeric_limits<double>::infinity();
  EXPECT_FALSE(contract::all_finite(bad));
}

TEST(ContractHelpers, SingularToleranceScalesWithDimensionAndDiagonal) {
  const double eps = std::numeric_limits<double>::epsilon();
  EXPECT_DOUBLE_EQ(contract::singular_tolerance(1, 1.0), eps);
  EXPECT_DOUBLE_EQ(contract::singular_tolerance(4, 2.0), 8.0 * eps);
  // Degenerate n is clamped so the tolerance never collapses to zero scale.
  EXPECT_DOUBLE_EQ(contract::singular_tolerance(0, 1.0), eps);
}

TEST(AssumeFinite, RejectsNanAndInfInRanges) {
  std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_NO_THROW(CATALYST_ASSUME_FINITE(v, "clean vector"));
  v[2] = std::nan("");
  EXPECT_THROW(CATALYST_ASSUME_FINITE(v, "dirty vector"), ContractViolation);
  v[2] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(
      CATALYST_ASSUME_FINITE_AS(v, std::invalid_argument, "dirty vector"),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Acceptance scenario: an injected NaN measurement must be rejected at the
// pipeline boundary, before the noise filter and QR stages can see it.
// ---------------------------------------------------------------------------

class NanInjection : public ::testing::Test {
 protected:
  // A real branch-category measurement set, then one reading corrupted.
  static vpapi::Measurements clean_measurements(
      std::vector<std::string>* names) {
    const pmu::Machine machine = pmu::saphira_cpu();
    const cat::Benchmark bench = cat::branch_benchmark();
    core::PipelineOptions opt;
    const core::PipelineResult res = core::run_pipeline(
        machine, bench, core::branch_signatures(), opt);
    *names = res.all_event_names;
    return res.measurements;
  }
};

TEST_F(NanInjection, NanMeasurementIsRejectedBeforeQr) {
  std::vector<std::string> names;
  auto measurements = clean_measurements(&names);
  ASSERT_NE(measurements.size(), 0u);
  measurements.row(0, 0)[0] = std::nan("");

  const cat::Benchmark bench = cat::branch_benchmark();
  core::PipelineOptions opt;
  try {
    core::analyze_measurements(bench.basis.e, names, std::move(measurements),
                               core::branch_signatures(), opt);
    FAIL() << "NaN measurement must not reach the QR stage";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("finite-assumption"), std::string::npos) << what;
    EXPECT_NE(what.find(names[0]), std::string::npos) << what;
  }
}

TEST_F(NanInjection, InfMeasurementIsRejectedToo) {
  std::vector<std::string> names;
  auto measurements = clean_measurements(&names);
  ASSERT_NE(measurements.size(), 0u);
  measurements.row(measurements.size() - 1, measurements.repetitions() - 1)
      .back() = std::numeric_limits<double>::infinity();

  const cat::Benchmark bench = cat::branch_benchmark();
  core::PipelineOptions opt;
  EXPECT_THROW(core::analyze_measurements(bench.basis.e, names,
                                          std::move(measurements),
                                          core::branch_signatures(), opt),
               ContractViolation);
}

TEST_F(NanInjection, CleanMeasurementsStillAnalyze) {
  std::vector<std::string> names;
  auto measurements = clean_measurements(&names);
  const cat::Benchmark bench = cat::branch_benchmark();
  core::PipelineOptions opt;
  const core::PipelineResult res = core::analyze_measurements(
      bench.basis.e, names, std::move(measurements),
      core::branch_signatures(), opt);
  EXPECT_EQ(res.xhat_events.size(), 4u);
}

}  // namespace
}  // namespace catalyst
