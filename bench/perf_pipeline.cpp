// google-benchmark macrobenchmarks for the analysis pipeline: collection,
// noise filtering, per-stage costs, and each category end to end.
//
// scripts/run_bench.sh runs this binary with --benchmark_out and records the
// JSON at the repo root (BENCH_pipeline.json) for per-PR perf tracking.
#include <benchmark/benchmark.h>

#include "cachesim/cachesim.hpp"
#include "cat/cat.hpp"
#include "core/core.hpp"
#include "pmu/pmu.hpp"
#include "vpapi/collector.hpp"

namespace {

using namespace catalyst;

void BM_MeasureAllCpuFlops(benchmark::State& state) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto acts = cat::cpu_flops_benchmark().single_thread_activities();
  for (auto _ : state) {
    auto all = pmu::measure_all(machine, acts, 0);
    benchmark::DoNotOptimize(all.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(machine.num_events()) *
                          static_cast<std::int64_t>(acts.size()));
}
BENCHMARK(BM_MeasureAllCpuFlops);

void BM_MultiplexedCollection(benchmark::State& state) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto acts = cat::cpu_flops_benchmark().single_thread_activities();
  for (auto _ : state) {
    vpapi::CollectionPlan plan;
    plan.repetitions = 2;
    auto res = vpapi::collect(machine, machine.event_names(), acts, plan);
    benchmark::DoNotOptimize(res.repetitions.data());
  }
}
BENCHMARK(BM_MultiplexedCollection);

void BM_CollectionThreads(benchmark::State& state) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto acts = cat::cpu_flops_benchmark().single_thread_activities();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    vpapi::CollectionPlan plan;
    plan.repetitions = 4;
    plan.threads = threads;
    auto res = vpapi::collect(machine, machine.event_names(), acts, plan);
    benchmark::DoNotOptimize(res.repetitions.data());
  }
}
BENCHMARK(BM_CollectionThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_TimeDivisionMultiplexing(benchmark::State& state) {
  // One PAPI-style time-division-multiplexed set holding every event: the
  // duty-cycle bookkeeping (O(1) slot lookup in read()) dominates here.
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto acts = cat::cpu_flops_benchmark().single_thread_activities();
  const auto names = machine.event_names();
  for (auto _ : state) {
    auto res = vpapi::collect_multiplexed(machine, names, acts, 1);
    benchmark::DoNotOptimize(res.repetitions.data());
  }
}
BENCHMARK(BM_TimeDivisionMultiplexing)->Unit(benchmark::kMillisecond);

void BM_SessionEventSetSetup(benchmark::State& state) {
  // Event-set construction: name resolution (Machine::find) plus counter
  // allocation (find_slot), once per (repetition x group) collection unit.
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto names = machine.event_names();
  for (auto _ : state) {
    vpapi::Session session(machine);
    const int set = session.create_eventset();
    session.enable_multiplexing(set);
    for (const auto& name : names) session.add_event(set, name);
    benchmark::DoNotOptimize(session.counters_in_use(set));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_SessionEventSetSetup);

void BM_NoiseFilter(benchmark::State& state) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const auto acts = cat::cpu_flops_benchmark().single_thread_activities();
  std::vector<std::string> names = machine.event_names();
  std::vector<std::vector<std::vector<double>>> meas(names.size());
  for (std::size_t e = 0; e < names.size(); ++e) {
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      meas[e].push_back(
          pmu::measure_vector(machine, machine.event(e), acts, rep));
    }
  }
  for (auto _ : state) {
    auto res = core::filter_noise(names, meas, 1e-10);
    benchmark::DoNotOptimize(res.kept.data());
  }
}
BENCHMARK(BM_NoiseFilter);

void BM_PointerChase(benchmark::State& state) {
  cachesim::CacheHierarchy hierarchy(cachesim::HierarchyConfig::saphira());
  cachesim::ChaseConfig cfg;
  cfg.num_pointers = static_cast<std::uint64_t>(state.range(0));
  cfg.stride_bytes = 64;
  cfg.warmup_traversals = 1;
  cfg.measured_traversals = 1;
  for (auto _ : state) {
    hierarchy.reset();
    auto res = cachesim::run_chase(hierarchy, cfg);
    benchmark::DoNotOptimize(res.total_accesses);
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          static_cast<std::int64_t>(cfg.num_pointers));
}
BENCHMARK(BM_PointerChase)->Arg(1 << 9)->Arg(1 << 13)->Arg(1 << 17);

void BM_PipelineCpuFlops(benchmark::State& state) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::cpu_flops_benchmark();
  const auto sigs = core::cpu_flops_signatures();
  for (auto _ : state) {
    auto res = core::run_pipeline(machine, bench, sigs);
    benchmark::DoNotOptimize(res.metrics.data());
  }
}
BENCHMARK(BM_PipelineCpuFlops)->Unit(benchmark::kMillisecond);

void BM_PipelineGpuFlops(benchmark::State& state) {
  const pmu::Machine machine = pmu::tempest_gpu();
  const cat::Benchmark bench = cat::gpu_flops_benchmark();
  const auto sigs = core::gpu_flops_signatures();
  for (auto _ : state) {
    auto res = core::run_pipeline(machine, bench, sigs);
    benchmark::DoNotOptimize(res.metrics.data());
  }
}
BENCHMARK(BM_PipelineGpuFlops)->Unit(benchmark::kMillisecond);

void BM_PipelineBranch(benchmark::State& state) {
  const pmu::Machine machine = pmu::saphira_cpu();
  const cat::Benchmark bench = cat::branch_benchmark();
  const auto sigs = core::branch_signatures();
  for (auto _ : state) {
    auto res = core::run_pipeline(machine, bench, sigs);
    benchmark::DoNotOptimize(res.metrics.data());
  }
}
BENCHMARK(BM_PipelineBranch)->Unit(benchmark::kMillisecond);

void BM_DcacheBenchmarkBuild(benchmark::State& state) {
  cat::DcacheOptions opt;
  opt.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto bench = cat::dcache_benchmark(opt);
    benchmark::DoNotOptimize(bench.slots.data());
  }
}
BENCHMARK(BM_DcacheBenchmarkBuild)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
