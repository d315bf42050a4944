// audit_pipeline: the full paper pipeline runs under enabled numerical
// audits.  Every QR factorization and least-squares solve in the analysis
// verifies its own output (orthogonality, triangularity, reconstruction,
// optimality); the test asserts the hooks actually fired and that auditing
// does not change any result.
#include <gtest/gtest.h>

#include <cmath>

#include "cat/cat.hpp"
#include "core/core.hpp"
#include "linalg/audit.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::core {
namespace {

PipelineResult run_branch(bool audited) {
  linalg::audit::EnabledGuard guard(audited);
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  PipelineOptions opt;
  return run_pipeline(machine, bench, branch_signatures(), opt);
}

TEST(AuditPipeline, BranchPipelinePassesAllAuditsAndHooksFire) {
  linalg::audit::reset_counts();
  PipelineResult res;
  ASSERT_NO_THROW(res = run_branch(true));
  EXPECT_EQ(res.xhat_events.size(), 4u);
  const auto counts = linalg::audit::counts();
  // Every surviving event and every signature is one column of a block
  // lstsq, each column audited for optimality; each block factors its
  // matrix once, so exactly two QR audits run: one of E, one of Xhat.
  EXPECT_GT(counts.lstsq, 10u);
  EXPECT_EQ(counts.orthogonality, 2u);
  EXPECT_EQ(counts.orthogonality, counts.triangularity);
  EXPECT_EQ(counts.orthogonality, counts.factorization);
}

TEST(AuditPipeline, AuditingDoesNotChangeResults) {
  const PipelineResult plain = run_branch(false);
  const PipelineResult audited = run_branch(true);
  ASSERT_EQ(plain.xhat_events, audited.xhat_events);
  ASSERT_EQ(plain.metrics.size(), audited.metrics.size());
  for (std::size_t i = 0; i < plain.metrics.size(); ++i) {
    const auto& mp = plain.metrics[i];
    const auto& ma = audited.metrics[i];
    EXPECT_EQ(mp.metric_name, ma.metric_name);
    EXPECT_EQ(mp.composable, ma.composable);
    // Bit-identical, not approximately equal: audits only read.
    EXPECT_EQ(mp.backward_error, ma.backward_error) << mp.metric_name;
    ASSERT_EQ(mp.terms.size(), ma.terms.size());
    for (std::size_t t = 0; t < mp.terms.size(); ++t) {
      EXPECT_EQ(mp.terms[t].coefficient, ma.terms[t].coefficient)
          << mp.metric_name << " / " << mp.terms[t].event_name;
    }
  }
}

TEST(AuditPipeline, CpuFlopsPipelinePassesAudits) {
  linalg::audit::EnabledGuard guard(true);
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  PipelineOptions opt;
  PipelineResult res;
  ASSERT_NO_THROW(
      res = run_pipeline(machine, bench, cpu_flops_signatures(), opt));
  EXPECT_EQ(res.xhat_events.size(), 8u);
}

TEST(AuditPipeline, DcachePipelinePassesAudits) {
  linalg::audit::EnabledGuard guard(true);
  const pmu::Machine machine = pmu::saphira_cpu();
  cat::DcacheOptions dopt;
  dopt.threads = 3;
  const cat::Benchmark bench = cat::dcache_benchmark(dopt);
  PipelineOptions opt;
  opt.tau = 1e-1;
  opt.alpha = 5e-2;
  opt.projection_max_error = 1e-1;
  opt.fitness_threshold = 5e-2;
  ASSERT_NO_THROW(run_pipeline(machine, bench, dcache_signatures(), opt));
}

}  // namespace
}  // namespace catalyst::core
