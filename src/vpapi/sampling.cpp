#include "vpapi/sampling.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/contract.hpp"

namespace catalyst::vpapi {

const char* to_string(CollectionMode mode) noexcept {
  switch (mode) {
    case CollectionMode::counting: return "counting";
    case CollectionMode::sampling: return "sampling";
    case CollectionMode::strobed: return "strobed";
  }
  return "unknown";
}

CollectionMode collection_mode_from_string(const std::string& name) {
  if (name == "counting") return CollectionMode::counting;
  if (name == "sampling") return CollectionMode::sampling;
  if (name == "strobed") return CollectionMode::strobed;
  throw std::invalid_argument("unknown collection mode '" + name +
                              "' (counting|sampling|strobed)");
}

void SampleSchedule::validate() const {
  const auto require = [](bool ok, const char* message) {
    if (!ok) throw std::invalid_argument(message);
  };
  require(kernel_span_ns > 0,
          "SampleSchedule: kernel_span_ns must be positive");
  require(period_ns > 0, "SampleSchedule: period_ns must be positive");
  require(short_period_ns > 0,
          "SampleSchedule: short_period_ns must be positive");
  require(short_period_ns <= period_ns,
          "SampleSchedule: the strobed short period must not exceed the "
          "long period");
}

std::vector<std::uint64_t> sample_times(const SampleSchedule& schedule,
                                        CollectionMode mode,
                                        std::uint64_t offset_ns,
                                        std::uint64_t total_ns) {
  std::vector<std::uint64_t> times;
  if (total_ns == 0) return times;
  if (mode != CollectionMode::counting) {
    // Strobed alternates long, short, long, ... (perf's period/alt-period);
    // plain sampling is the degenerate all-long schedule.
    std::uint64_t t = offset_ns;
    bool long_next = true;
    while (true) {
      t += (mode == CollectionMode::strobed && !long_next)
               ? schedule.short_period_ns
               : schedule.period_ns;
      long_next = !long_next;
      if (t >= total_ns) break;
      times.push_back(t);
    }
  }
  // The closing snapshot at the run's end is unconditional: it carries the
  // aggregate totals and anchors the last boundary exactly.
  times.push_back(total_ns);
  return times;
}

std::uint64_t dither_offset(const pmu::Machine& machine,
                            const SampleSchedule& schedule,
                            CollectionMode mode, std::uint64_t run_id) {
  if (!schedule.dither) return 0;
  // Keyed like a noise draw: (machine seed, stream tag, mode, run id) so
  // the offset reproduces in isolation and never collides with the reading
  // streams (distinct tag).
  static const std::uint64_t kStreamTag =
      pmu::fnv1a("catalyst.sampling.dither");
  const std::uint64_t key =
      machine.noise_seed() ^ kStreamTag ^
      pmu::mix64(run_id * 3u + static_cast<std::uint64_t>(mode));
  const double u = pmu::uniform_from_key(pmu::mix64(key));
  return static_cast<std::uint64_t>(
      u * static_cast<double>(schedule.period_ns));
}

void reconstruct_run_phases(const RunTrace& run, std::uint64_t kernel_span_ns,
                            Measurements& out,
                            const std::vector<std::size_t>& rows,
                            std::size_t repetition) {
  const std::size_t kernels = out.slots();
  CATALYST_REQUIRE_AS(kernel_span_ns > 0 && kernels > 0,
                      std::invalid_argument,
                      "reconstruct_run_phases: empty kernel geometry");
  CATALYST_REQUIRE_AS(!run.samples.empty(), std::invalid_argument,
                      "reconstruct_run_phases: trace has no samples");
  const std::size_t n = run.events.size();
  const auto outside = [&out](std::size_t e) { return e >= out.size(); };
  CATALYST_REQUIRE_AS(rows.size() == n && repetition < out.repetitions() &&
                          std::ranges::none_of(rows, outside),
                      std::invalid_argument,
                      "reconstruct_run_phases: destination rows do not match "
                      "the run's events");
  const std::uint64_t total_ns = kernel_span_ns * kernels;
  CATALYST_REQUIRE_AS(run.samples.back().t_ns == total_ns,
                      std::invalid_argument,
                      "reconstruct_run_phases: trace does not close at the "
                      "run's end");
  std::uint64_t prev_t = 0;
  for (const SamplePoint& s : run.samples) {
    CATALYST_REQUIRE_AS(s.values.size() == n, std::invalid_argument,
                        "reconstruct_run_phases: sample width mismatch");
    CATALYST_REQUIRE_AS(s.t_ns > prev_t || (&s == &run.samples.front() &&
                                            s.t_ns > 0),
                        std::invalid_argument,
                        "reconstruct_run_phases: non-increasing sample "
                        "times");
    prev_t = s.t_ns;
  }

  // Cumulative count at each nominal kernel boundary, linearly
  // interpolated between the bracketing samples (the run start is an
  // implicit (t=0, v=0) sample).  Phase k's value is the difference of
  // consecutive boundary estimates; since the cumulative samples are
  // non-decreasing, so is the interpolant, and every phase value is >= 0.
  std::vector<double> prev_boundary(n, 0.0);
  std::vector<double> boundary(n, 0.0);
  std::size_t si = 0;
  for (std::size_t k = 1; k <= kernels; ++k) {
    const std::uint64_t boundary_t = kernel_span_ns * k;
    while (run.samples[si].t_ns < boundary_t) ++si;  // closes at total_ns
    const std::uint64_t t1 = si == 0 ? 0 : run.samples[si - 1].t_ns;
    const std::uint64_t t2 = run.samples[si].t_ns;
    const double w = static_cast<double>(boundary_t - t1) /
                     static_cast<double>(t2 - t1);
    for (std::size_t e = 0; e < n; ++e) {
      const double v1 = si == 0 ? 0.0 : run.samples[si - 1].values[e];
      const double v2 = run.samples[si].values[e];
      boundary[e] = v1 + (v2 - v1) * w;
      out.row(rows[e], repetition)[k - 1] = boundary[e] - prev_boundary[e];
    }
    std::swap(prev_boundary, boundary);
  }
}

RunTrace sample_run(const pmu::Machine& machine,
                    const std::vector<std::string>& events,
                    const std::vector<std::size_t>& event_indices,
                    const std::vector<std::vector<double>>& signals,
                    CollectionMode mode, const SampleSchedule& schedule,
                    std::uint64_t repetition, std::uint64_t run_id,
                    faults::Clock* clock) {
  const std::size_t n = events.size();
  const std::size_t kernels = signals.size();
  const std::uint64_t total_ns = schedule.kernel_span_ns * kernels;

  // Whole-kernel readings at this unit's noise coordinates -- identical to
  // what a counting-mode session would read -- and their prefix sums over
  // the kernel sequence.
  std::vector<std::vector<double>> prefix(n);
  std::vector<std::vector<double>> readings(n);
  for (std::size_t e = 0; e < n; ++e) {
    const std::size_t mi = event_indices[e];
    const pmu::EventDefinition& event = machine.event(mi);
    readings[e].reserve(kernels);
    prefix[e].assign(kernels + 1, 0.0);
    for (std::size_t k = 0; k < kernels; ++k) {
      const double r = pmu::measure_from_ideal(
          machine, event, machine.ideal(mi, signals[k]), run_id, k);
      readings[e].push_back(r);
      prefix[e][k + 1] = prefix[e][k] + r;
    }
  }

  // Virtual-time pacing: one Clock sleep per kernel span.  Trace values and
  // timestamps are pure arithmetic over the schedule -- the clock only makes
  // real campaigns strobe in wall time (FakeClock in tests).
  if (clock != nullptr) {
    for (std::size_t k = 0; k < kernels; ++k) {
      clock->sleep_for(std::chrono::nanoseconds(schedule.kernel_span_ns));
    }
  }

  RunTrace trace;
  trace.repetition = repetition;
  trace.run_id = run_id;
  trace.events = events;
  const std::uint64_t offset = dither_offset(machine, schedule, mode, run_id);
  const std::vector<std::uint64_t> times =
      sample_times(schedule, mode, offset, total_ns);
  trace.samples.reserve(times.size());
  for (const std::uint64_t t : times) {
    SamplePoint point;
    point.t_ns = t;
    point.values.reserve(n);
    const std::uint64_t k_full = t / schedule.kernel_span_ns;
    const std::size_t k_idx =
        static_cast<std::size_t>(std::min<std::uint64_t>(k_full, kernels));
    const double frac =
        k_idx >= kernels
            ? 0.0
            : static_cast<double>(t - k_full * schedule.kernel_span_ns) /
                  static_cast<double>(schedule.kernel_span_ns);
    for (std::size_t e = 0; e < n; ++e) {
      // Real counters hold integers: the in-flight kernel's partial
      // contribution is truncated, which is exactly the quantization a
      // timer-driven sampler sees.
      const double partial = k_idx >= kernels ? 0.0 : frac * readings[e][k_idx];
      point.values.push_back(std::floor(prefix[e][k_idx] + partial));
    }
    trace.samples.push_back(std::move(point));
  }
  return trace;
}

}  // namespace catalyst::vpapi
