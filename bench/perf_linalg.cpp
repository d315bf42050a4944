// google-benchmark microbenchmarks for the dense linear algebra substrate:
// the kernels on the analysis hot path (QR, QRCP, least squares) plus the
// specialized pivoting scheme, across the matrix shapes the pipeline
// actually produces (tall measurement matrices, small basis systems, and
// the 64 x 11240 X of the scale_10k preset).
// scripts/run_bench.sh runs this binary with --benchmark_out and records the
// JSON at the repo root (BENCH_linalg.json) for per-PR perf tracking.
#include <benchmark/benchmark.h>

#include "core/pipeline.hpp"
#include "core/qrcp_special.hpp"
#include "linalg/linalg.hpp"
#include "modelgen/generator.hpp"

namespace {

using namespace catalyst;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<linalg::index_t>(state.range(0));
  const linalg::Matrix a = linalg::random_gaussian(n, n, 1);
  const linalg::Matrix b = linalg::random_gaussian(n, n, 2);
  linalg::Matrix c(n, n);
  for (auto _ : state) {
    linalg::gemm(1.0, a, false, b, false, 0.0, c);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_QrFactorization(benchmark::State& state) {
  const auto m = static_cast<linalg::index_t>(state.range(0));
  const linalg::index_t n = m / 2;
  const linalg::Matrix a = linalg::random_gaussian(m, n, 3);
  for (auto _ : state) {
    linalg::QrFactorization qr(a);
    benchmark::DoNotOptimize(qr.packed().data().data());
  }
}
BENCHMARK(BM_QrFactorization)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_SpecializedQrcpRandom(benchmark::State& state) {
  const auto cols = static_cast<linalg::index_t>(state.range(0));
  const linalg::Matrix a = linalg::random_gaussian(16, cols, 5);
  for (auto _ : state) {
    auto res = core::specialized_qrcp(a, 5e-4);
    benchmark::DoNotOptimize(res.rank);
  }
}
BENCHMARK(BM_SpecializedQrcpRandom)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// The X the pipeline hands to QRCP on the scale_10k preset (model seed
// 2024, 64 x 11240), built once on first use.
struct Scale10k {
  linalg::Matrix x;
  double alpha = 0.0;
};

const Scale10k& scale_10k() {
  static const Scale10k fixture = [] {
    const auto model =
        modelgen::generate(modelgen::GeneratorSpec::scale_10k(2024));
    const auto result = core::run_pipeline(model.machine(), model.benchmark,
                                           model.signatures, model.options);
    return Scale10k{result.projection.x, model.options.alpha};
  }();
  return fixture;
}

// Arg = PivotRule: original_score runs the left-looking walk, max_norm the
// eager right-looking loop on the same X.
void BM_SpecializedQrcp(benchmark::State& state) {
  const Scale10k& fixture = scale_10k();
  const auto rule = static_cast<core::PivotRule>(state.range(0));
  for (auto _ : state) {
    auto res = core::specialized_qrcp(fixture.x, fixture.alpha, rule);
    benchmark::DoNotOptimize(res.rank);
  }
  state.counters["cols"] = static_cast<double>(fixture.x.cols());
}
BENCHMARK(BM_SpecializedQrcp)
    ->Arg(static_cast<int>(core::PivotRule::original_score))
    ->Arg(static_cast<int>(core::PivotRule::max_norm))
    ->Unit(benchmark::kMillisecond);

void BM_Lstsq(benchmark::State& state) {
  const auto m = static_cast<linalg::index_t>(state.range(0));
  const linalg::index_t n = 16;  // basis dimension
  const linalg::Matrix a = linalg::random_gaussian(m, n, 6);
  const linalg::Vector b = [&] {
    linalg::Vector v(static_cast<std::size_t>(m));
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = double(i % 7) - 3.0;
    return v;
  }();
  for (auto _ : state) {
    auto res = linalg::lstsq(a, b);
    benchmark::DoNotOptimize(res.x.data());
  }
}
BENCHMARK(BM_Lstsq)->Arg(16)->Arg(48)->Arg(128)->Arg(512);

void BM_NormTwoEstimate(benchmark::State& state) {
  const linalg::Matrix a = linalg::random_gaussian(48, 16, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::norm_two_estimate(a));
  }
}
BENCHMARK(BM_NormTwoEstimate);

// Tall Gaussian (3n x n) matrices, plus 71 x 64: the expectation basis of
// the scale_10k preset, whose generator takes 500 spectra of that shape.
void svd_shapes(benchmark::internal::Benchmark* b) {
  for (const int n : {8, 16, 32, 64}) b->Args({3 * n, n});
  b->Args({71, 64});
}

void BM_JacobiSvd(benchmark::State& state) {
  const linalg::Matrix a =
      linalg::random_gaussian(state.range(0), state.range(1), 8);
  for (auto _ : state) {
    auto res = linalg::svd(a);
    benchmark::DoNotOptimize(res.singular_values.data());
  }
}
BENCHMARK(BM_JacobiSvd)->Apply(svd_shapes);

// The values-only twin of BM_JacobiSvd: the same sweeps without U and V.
void BM_SingularValues(benchmark::State& state) {
  const linalg::Matrix a =
      linalg::random_gaussian(state.range(0), state.range(1), 8);
  for (auto _ : state) {
    auto sv = linalg::singular_values(a);
    benchmark::DoNotOptimize(sv.data());
  }
}
BENCHMARK(BM_SingularValues)->Apply(svd_shapes);

void BM_PivotRules(benchmark::State& state) {
  const linalg::Matrix a = linalg::random_gaussian(16, 512, 9);
  const auto rule = static_cast<core::PivotRule>(state.range(0));
  for (auto _ : state) {
    auto res = core::specialized_qrcp(a, 5e-4, rule);
    benchmark::DoNotOptimize(res.rank);
  }
}
BENCHMARK(BM_PivotRules)
    ->Arg(static_cast<int>(core::PivotRule::original_score))
    ->Arg(static_cast<int>(core::PivotRule::updated_score))
    ->Arg(static_cast<int>(core::PivotRule::max_norm));

}  // namespace

BENCHMARK_MAIN();
