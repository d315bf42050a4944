#include "core/validate.hpp"

#include <cmath>
#include <stdexcept>

#include "vpapi/vpapi.hpp"

namespace catalyst::core {

ValidationReport validate_metric(
    const pmu::Machine& machine, const cat::Benchmark& benchmark,
    const PresetDefinition& preset, std::span<const double> signature,
    const std::vector<cat::MixedWorkload>& mixes) {
  ValidationReport report;
  report.metric_name = preset.description;

  vpapi::Session session(machine);
  if (session.register_preset(to_derived_event(preset)) !=
      vpapi::Status::ok) {
    throw std::invalid_argument("validate_metric: preset rejected: " +
                                preset.symbol);
  }

  double err_sum = 0.0;
  for (std::size_t w = 0; w < mixes.size(); ++w) {
    const auto& mix = mixes[w];
    const int set = session.create_eventset();
    if (session.add_event(set, preset.symbol) != vpapi::Status::ok) {
      throw std::runtime_error("validate_metric: preset does not fit the "
                               "physical counters: " + preset.symbol);
    }
    session.start(set);
    // Each workload is its own run: distinct noise coordinates.
    session.run_kernel(machine.densify(mix.activity), /*repetition=*/w,
                       /*kernel_index=*/0);
    session.stop(set);
    std::vector<double> vals;
    session.read(set, vals);
    session.destroy_eventset(set);

    ValidationSample sample;
    sample.workload = mix.name;
    sample.predicted = vals.at(0);
    sample.ground_truth =
        cat::ground_truth_metric(benchmark.basis, signature, mix.activity);
    sample.relative_error = std::fabs(sample.predicted - sample.ground_truth) /
                            std::max(std::fabs(sample.ground_truth), 1.0);
    err_sum += sample.relative_error;
    report.max_relative_error =
        std::max(report.max_relative_error, sample.relative_error);
    report.samples.push_back(std::move(sample));
  }
  if (!mixes.empty()) {
    report.mean_relative_error = err_sum / static_cast<double>(mixes.size());
  }
  return report;
}

std::vector<ValidationReport> validate_all(
    const pmu::Machine& machine, const cat::Benchmark& benchmark,
    const std::vector<MetricDefinition>& metrics,
    const std::vector<MetricSignature>& signatures, std::size_t num_workloads,
    std::uint64_t seed) {
  const auto mixes =
      cat::random_mixed_workloads(benchmark, num_workloads, seed);
  std::vector<ValidationReport> reports;
  for (const auto& metric : metrics) {
    auto preset = make_preset(metric);
    if (!preset) continue;  // non-composable: nothing to validate
    const MetricSignature* signature = nullptr;
    for (const auto& s : signatures) {
      if (s.name == metric.metric_name) signature = &s;
    }
    if (!signature) continue;
    reports.push_back(validate_metric(machine, benchmark, *preset,
                                      signature->coordinates, mixes));
  }
  return reports;
}

}  // namespace catalyst::core
