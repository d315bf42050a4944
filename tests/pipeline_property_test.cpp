// Property tests on the end-to-end pipeline: determinism, thread-count
// invariance (bytes at 1, 2, 3, 4 and the default thread count, on a paper
// benchmark and on a generated model big enough for a chunked projection),
// and structural invariants that must hold for ANY benchmark /
// machine combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>

#include "seed_util.hpp"

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "linalg/lstsq.hpp"
#include "linalg/svd.hpp"
#include "modelgen/generator.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

struct Combo {
  const char* machine;
  const char* benchmark;
};

class PipelineInvariants : public ::testing::TestWithParam<Combo> {
 protected:
  static pmu::Machine make_machine(const std::string& name) {
    if (name == "saphira") return pmu::saphira_cpu();
    if (name == "tempest") return pmu::tempest_gpu();
    return pmu::vesuvio_cpu();
  }
  static cat::Benchmark make_benchmark(const std::string& name) {
    if (name == "cpu_flops") return cat::cpu_flops_benchmark();
    if (name == "gpu_flops") return cat::gpu_flops_benchmark();
    return cat::branch_benchmark();
  }
  static std::vector<MetricSignature> make_signatures(
      const std::string& name) {
    if (name == "cpu_flops") return cpu_flops_signatures();
    if (name == "gpu_flops") return gpu_flops_signatures();
    return branch_signatures();
  }

  PipelineResult run() const {
    const auto combo = GetParam();
    return run_pipeline(make_machine(combo.machine),
                        make_benchmark(combo.benchmark),
                        make_signatures(combo.benchmark));
  }
};

TEST_P(PipelineInvariants, StagesOnlyShrinkTheEventSet) {
  const auto result = run();
  EXPECT_LE(result.noise.kept.size(), result.all_event_names.size());
  EXPECT_LE(result.projection.representable.size(),
            result.noise.kept.size());
  EXPECT_LE(result.xhat_events.size(),
            result.projection.representable.size());
}

TEST_P(PipelineInvariants, SelectionBoundedByBasisDimension) {
  const auto result = run();
  EXPECT_LE(static_cast<linalg::index_t>(result.xhat_events.size()),
            result.xhat.rows());
}

TEST_P(PipelineInvariants, XhatHasFullColumnRank) {
  const auto result = run();
  if (result.xhat.cols() == 0) GTEST_SKIP();
  EXPECT_EQ(linalg::numerical_rank(result.xhat, 1e-8), result.xhat.cols());
}

TEST_P(PipelineInvariants, SelectedEventsAreDistinct) {
  const auto result = run();
  std::set<std::string> uniq(result.xhat_events.begin(),
                             result.xhat_events.end());
  EXPECT_EQ(uniq.size(), result.xhat_events.size());
}

TEST_P(PipelineInvariants, EveryMetricHasOneTermPerSelectedEvent) {
  const auto result = run();
  for (const auto& m : result.metrics) {
    EXPECT_EQ(m.terms.size(), result.xhat_events.size()) << m.metric_name;
    EXPECT_GE(m.backward_error, 0.0);
    // Eq. 5 is bounded by ||s|| / ||s|| = 1 at the zero solution; the
    // least-squares solution can only do better (up to roundoff).
    EXPECT_LE(m.backward_error, 1.0 + 1e-9) << m.metric_name;
  }
}

TEST_P(PipelineInvariants, DeterministicAcrossRuns) {
  const auto r1 = run();
  const auto r2 = run();
  EXPECT_EQ(r1.xhat_events, r2.xhat_events);
  ASSERT_EQ(r1.metrics.size(), r2.metrics.size());
  for (std::size_t i = 0; i < r1.metrics.size(); ++i) {
    EXPECT_EQ(r1.metrics[i].backward_error, r2.metrics[i].backward_error);
    for (std::size_t t = 0; t < r1.metrics[i].terms.size(); ++t) {
      EXPECT_EQ(r1.metrics[i].terms[t].coefficient,
                r2.metrics[i].terms[t].coefficient);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Combos, PipelineInvariants,
    ::testing::Values(Combo{"saphira", "cpu_flops"},
                      Combo{"saphira", "branch"},
                      Combo{"vesuvio", "cpu_flops"},
                      Combo{"vesuvio", "branch"},
                      Combo{"tempest", "gpu_flops"}),
    [](const ::testing::TestParamInfo<Combo>& param_info) {
      return std::string(param_info.param.machine) + "_" +
             param_info.param.benchmark;
    });

TEST(PipelineInvariance, SlotPermutationDoesNotChangeSelection) {
  // Reversing the order of benchmark slots permutes E's rows and every
  // measurement vector identically; the selected events and metric
  // solutions must not change.
  const pmu::Machine machine = pmu::saphira_cpu();
  cat::Benchmark bench = cat::branch_benchmark();
  cat::Benchmark reversed = bench;
  std::reverse(reversed.slots.begin(), reversed.slots.end());
  for (linalg::index_t r = 0; r < bench.basis.e.rows(); ++r) {
    reversed.basis.e.set_row(bench.basis.e.rows() - 1 - r,
                             bench.basis.e.row_copy(r));
  }
  const auto a = run_pipeline(machine, bench, branch_signatures());
  const auto b = run_pipeline(machine, reversed, branch_signatures());
  EXPECT_EQ(a.xhat_events, b.xhat_events);
  ASSERT_EQ(a.metrics.size(), b.metrics.size());
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_NEAR(a.metrics[i].backward_error, b.metrics[i].backward_error,
                1e-12);
    for (std::size_t t = 0; t < a.metrics[i].terms.size(); ++t) {
      EXPECT_NEAR(a.metrics[i].terms[t].coefficient,
                  b.metrics[i].terms[t].coefficient, 1e-9);
    }
  }
}

// The reversal above is one fixed permutation; this sweeps seeded RANDOM
// slot permutations (replayable via CATALYST_SEED, see seed_util.hpp).
class RandomSlotPermutation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomSlotPermutation, AnySlotOrderKeepsSelectionAndMetrics) {
  const std::uint64_t seed = GetParam();
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  std::vector<std::size_t> perm(bench.slots.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);

  cat::Benchmark permuted = bench;
  for (std::size_t i = 0; i < perm.size(); ++i) {
    permuted.slots[i] = bench.slots[perm[i]];
    permuted.basis.e.set_row(
        static_cast<linalg::index_t>(i),
        bench.basis.e.row_copy(static_cast<linalg::index_t>(perm[i])));
  }

  const auto a = run_pipeline(machine, bench, branch_signatures());
  const auto b = run_pipeline(machine, permuted, branch_signatures());
  EXPECT_EQ(a.xhat_events, b.xhat_events) << testing::seed_banner(seed);
  ASSERT_EQ(a.metrics.size(), b.metrics.size()) << testing::seed_banner(seed);
  for (std::size_t i = 0; i < a.metrics.size(); ++i) {
    EXPECT_NEAR(a.metrics[i].backward_error, b.metrics[i].backward_error,
                1e-12)
        << testing::seed_banner(seed) << a.metrics[i].metric_name;
    for (std::size_t t = 0; t < a.metrics[i].terms.size(); ++t) {
      EXPECT_NEAR(a.metrics[i].terms[t].coefficient,
                  b.metrics[i].terms[t].coefficient, 1e-9)
          << testing::seed_banner(seed) << a.metrics[i].metric_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSlotPermutation,
                         ::testing::ValuesIn(testing::sweep_seeds(1, 8)));

// --- thread-count invariance ----------------------------------------------
// Collection and the chunked projection solve run on the worker pool
// (core::parallel_for); every thread count must give the serial run's
// bytes.

::testing::AssertionResult SameBytes(std::span<const double> a,
                                     std::span<const double> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "bytes differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBytes(double a, double b) {
  return SameBytes(std::span<const double>(&a, 1),
                   std::span<const double>(&b, 1));
}

/// Runs `run(threads)` at 1 thread and at 2, 3, 4 and the default (half
/// the hardware threads), and compares measurements, projection xe
/// and backward errors, the selected events and every metric's terms and
/// backward error byte for byte.  Returns the serial result.
template <typename Run>
PipelineResult ExpectSameBytesAtEveryThreadCount(const Run& run) {
  PipelineResult serial = run(1);
  for (int threads : {2, 3, 4, 0}) {
    const std::string what = "threads=" + std::to_string(threads);
    const PipelineResult other = run(threads);
    EXPECT_EQ(other.all_event_names, serial.all_event_names) << what;
    EXPECT_TRUE(SameBytes(other.measurements.values(),
                          serial.measurements.values()))
        << what << ": measurements";
    EXPECT_TRUE(SameBytes(other.projection.xe.data(),
                          serial.projection.xe.data()))
        << what << ": projection.xe";
    EXPECT_TRUE(SameBytes(other.projection.backward_errors,
                          serial.projection.backward_errors))
        << what << ": projection backward errors";
    EXPECT_EQ(other.qr.selected, serial.qr.selected) << what;
    EXPECT_EQ(other.xhat_events, serial.xhat_events) << what;
    if (other.metrics.size() != serial.metrics.size()) {
      ADD_FAILURE() << what << ": metric count differs";
      continue;
    }
    for (std::size_t m = 0; m < serial.metrics.size(); ++m) {
      const MetricDefinition& a = serial.metrics[m];
      const MetricDefinition& b = other.metrics[m];
      EXPECT_EQ(b.metric_name, a.metric_name) << what;
      EXPECT_TRUE(SameBytes(b.backward_error, a.backward_error))
          << what << " " << a.metric_name << " backward error";
      if (b.terms.size() != a.terms.size()) {
        ADD_FAILURE() << what << " " << a.metric_name << ": term count";
        continue;
      }
      for (std::size_t t = 0; t < a.terms.size(); ++t) {
        EXPECT_EQ(b.terms[t].event_name, a.terms[t].event_name) << what;
        EXPECT_TRUE(SameBytes(b.terms[t].coefficient, a.terms[t].coefficient))
            << what << " " << a.metric_name << " term " << t;
      }
    }
  }
  return serial;
}

TEST(PipelineThreading, CollectionThreadsDoNotChangeResults) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  const PipelineResult serial =
      ExpectSameBytesAtEveryThreadCount([&](int threads) {
        PipelineOptions options;
        options.threads = threads;
        return run_pipeline(machine, bench, branch_signatures(), options);
      });
  EXPECT_FALSE(serial.qr.selected.empty());
}

TEST(ThreadCount, PipelineBitIdentical) {
  // Several hundred events on narrow counter files: many collection
  // groups, and enough noise survivors for at least three projection
  // chunks.
  modelgen::GeneratorSpec spec;
  spec.seed = 25;
  spec.min_dims = 8;
  spec.max_dims = 8;
  spec.max_aliases = 180;
  spec.min_counters = 4;
  spec.max_counters = 6;
  const modelgen::GeneratedModel model = modelgen::generate(spec);
  const pmu::Machine machine = model.machine();
  const PipelineResult serial =
      ExpectSameBytesAtEveryThreadCount([&](int threads) {
        PipelineOptions options = model.options;
        options.threads = threads;
        return run_pipeline(machine, model.benchmark, model.signatures,
                            options);
      });
  EXPECT_GT(serial.noise.kept.size(),
            static_cast<std::size_t>(2 * linalg::kLstsqChunkColumns));
  EXPECT_FALSE(serial.qr.selected.empty());
  EXPECT_FALSE(serial.metrics.empty());
}

TEST(PipelineValidation, RejectsBadOptions) {
  const pmu::Machine machine = pmu::vesuvio_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  PipelineOptions opt;
  opt.repetitions = 1;
  EXPECT_THROW(run_pipeline(machine, bench, branch_signatures(), opt),
               std::invalid_argument);
  cat::Benchmark empty;
  EXPECT_THROW(run_pipeline(machine, empty, branch_signatures()),
               std::invalid_argument);
  PipelineOptions negative_threads;
  negative_threads.threads = -1;
  EXPECT_THROW(
      run_pipeline(machine, bench, branch_signatures(), negative_threads),
      std::invalid_argument);
}

TEST(PipelineAccessors, AveragedMeasurementLookup) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  const auto result = run_pipeline(machine, bench, branch_signatures());
  const auto found =
      result.averaged_measurement("BR_INST_RETIRED:COND");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size(), bench.slots.size());
  EXPECT_FALSE(result.averaged_measurement("NOT_AN_EVENT").has_value());
}

}  // namespace
}  // namespace catalyst::core
