// Tests for time-sliced sampling and strobed collection
// (vpapi/sampling.hpp, run by the vpapi/collector.hpp driver): schedule
// shape, deterministic dithering, per-phase synthesis, and the
// byte-identical-across-threads determinism the virtual timeline
// guarantees.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "faults/faults.hpp"
#include "vpapi/collector.hpp"
#include "vpapi/sampling.hpp"
#include "vpapi/scheduler.hpp"

namespace catalyst::vpapi {
namespace {

// 2 physical counters, 6 deterministic noise-free events (value = k * x).
pmu::Machine sampling_machine() {
  pmu::Machine m("samp", 2, 17);
  for (int k = 1; k <= 6; ++k) {
    m.add_event({"E" + std::to_string(k), "",
                 {{"x", static_cast<double>(k)}}, {}});
  }
  return m;
}

std::vector<pmu::Activity> bursty_kernels(std::size_t n) {
  std::vector<pmu::Activity> acts;
  for (std::size_t k = 0; k < n; ++k) {
    acts.push_back({{"x", k % 3 == 0 ? 100.0 : 7.0}});
  }
  return acts;
}

std::vector<std::string> six_events() {
  return {"E1", "E2", "E3", "E4", "E5", "E6"};
}

/// A plan for `n` repetitions in `mode` on `threads` workers.
CollectionPlan plan(std::size_t n,
                    CollectionMode mode = CollectionMode::counting,
                    const SampleSchedule& schedule = {}, int threads = 1) {
  CollectionPlan p;
  p.repetitions = n;
  p.mode = mode;
  p.schedule = schedule;
  p.threads = threads;
  return p;
}

TEST(SampleSchedule, ValidateRejectsDegenerateSpans) {
  SampleSchedule s;
  EXPECT_NO_THROW(s.validate());
  s.kernel_span_ns = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.period_ns = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.short_period_ns = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.short_period_ns = s.period_ns + 1;  // short must not exceed long
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(SampleTimes, UniformSamplingGrid) {
  SampleSchedule s;
  s.kernel_span_ns = 1000;
  s.period_ns = 300;
  const auto times = sample_times(s, CollectionMode::sampling, 0, 3000);
  const std::vector<std::uint64_t> expected{300,  600,  900,  1200, 1500,
                                            1800, 2100, 2400, 2700, 3000};
  EXPECT_EQ(times, expected);
}

TEST(SampleTimes, StrobedAlternatesLongShort) {
  SampleSchedule s;
  s.kernel_span_ns = 1000;
  s.period_ns = 300;
  s.short_period_ns = 100;
  const auto times = sample_times(s, CollectionMode::strobed, 0, 2000);
  // long, short, long, short, ... then the unconditional closing sample.
  const std::vector<std::uint64_t> expected{300, 400, 700, 800, 1100,
                                            1200, 1500, 1600, 1900, 2000};
  EXPECT_EQ(times, expected);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_GT(times[i], times[i - 1]);
  }
}

TEST(SampleTimes, AlwaysClosesAtTotal) {
  SampleSchedule s;
  s.kernel_span_ns = 1000;
  s.period_ns = 450;
  for (const CollectionMode mode :
       {CollectionMode::counting, CollectionMode::sampling,
        CollectionMode::strobed}) {
    for (const std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{449}}) {
      const auto times = sample_times(s, mode, offset, 1700);
      ASSERT_FALSE(times.empty());
      EXPECT_EQ(times.back(), 1700u);
      for (std::size_t i = 1; i < times.size(); ++i) {
        EXPECT_GT(times[i], times[i - 1]);
      }
    }
  }
  EXPECT_TRUE(sample_times(s, CollectionMode::sampling, 0, 0).empty());
  // Counting mode never slices: the closing snapshot is the whole schedule.
  EXPECT_EQ(sample_times(s, CollectionMode::counting, 0, 1700).size(), 1u);
}

TEST(DitherOffset, DeterministicBoundedAndOffable) {
  const auto m = sampling_machine();
  SampleSchedule s;
  std::set<std::uint64_t> distinct;
  for (std::uint64_t run = 0; run < 20; ++run) {
    const std::uint64_t a =
        dither_offset(m, s, CollectionMode::sampling, run);
    const std::uint64_t b =
        dither_offset(m, s, CollectionMode::sampling, run);
    EXPECT_EQ(a, b) << "dither must be a pure function of its key";
    EXPECT_LT(a, s.period_ns);
    distinct.insert(a);
  }
  // The draws are keyed per run: a population of 20 cannot collapse.
  EXPECT_GT(distinct.size(), 1u);
  // Mode participates in the key, so sampling and strobed runs decorrelate.
  bool any_mode_difference = false;
  for (std::uint64_t run = 0; run < 20; ++run) {
    any_mode_difference |=
        dither_offset(m, s, CollectionMode::sampling, run) !=
        dither_offset(m, s, CollectionMode::strobed, run);
  }
  EXPECT_TRUE(any_mode_difference);
  s.dither = false;
  EXPECT_EQ(dither_offset(m, s, CollectionMode::sampling, 3), 0u);
}

TEST(Reconstruct, ExactAtBoundaryAlignedSamples) {
  RunTrace run;
  run.events = {"E"};
  run.samples = {{100, {5.0}}, {200, {12.0}}, {300, {30.0}}};
  const auto rows = reconstruct_run_phases(run, 100, 3);
  ASSERT_EQ(rows.size(), 1u);
  const std::vector<double> expected{5.0, 7.0, 18.0};
  EXPECT_EQ(rows[0], expected);
}

TEST(Reconstruct, InterpolatesBetweenBracketingSamples) {
  // Samples at 150 and 300 over 3 kernels of span 100: boundary 100 is
  // interpolated against the implicit (0, 0) run start, boundary 200
  // between the two samples.
  RunTrace run;
  run.events = {"E"};
  run.samples = {{150, {9.0}}, {300, {30.0}}};
  const auto rows = reconstruct_run_phases(run, 100, 3);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0][0], 6.0);   // 9 * (100/150)
  EXPECT_DOUBLE_EQ(rows[0][1], 10.0);  // 9 + 21 * (50/150) - 6
  EXPECT_DOUBLE_EQ(rows[0][2], 14.0);  // 30 - 16
}

TEST(Reconstruct, RejectsMalformedTraces) {
  RunTrace run;
  run.events = {"E"};
  EXPECT_THROW(reconstruct_run_phases(run, 100, 3), std::invalid_argument);
  run.samples = {{100, {1.0}}, {300, {2.0}}};  // does not close at 200
  EXPECT_THROW(reconstruct_run_phases(run, 100, 2), std::invalid_argument);
  run.samples = {{100, {1.0, 9.0}}, {200, {2.0, 9.0}}};  // width mismatch
  EXPECT_THROW(reconstruct_run_phases(run, 100, 2), std::invalid_argument);
  run.samples = {{100, {1.0}}, {100, {2.0}}, {200, {3.0}}};  // stalled time
  EXPECT_THROW(reconstruct_run_phases(run, 100, 2), std::invalid_argument);
  run.samples = {{200, {2.0}}};
  EXPECT_THROW(reconstruct_run_phases(run, 0, 2), std::invalid_argument);
  EXPECT_THROW(reconstruct_run_phases(run, 100, 0), std::invalid_argument);
}

TEST(CollectSampled, CountingModeDelegatesBitIdentically) {
  // A schedule in a counting plan is ignored: no trace, counting readings.
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(5);
  SampleSchedule ignored;
  ignored.period_ns = 7;
  const auto counted = collect(m, six_events(), acts, plan(3));
  const auto sampled = collect(
      m, six_events(), acts, plan(3, CollectionMode::counting, ignored));
  ASSERT_EQ(sampled.repetitions.size(), counted.repetitions.size());
  for (std::size_t r = 0; r < counted.repetitions.size(); ++r) {
    EXPECT_EQ(sampled.repetitions[r].values, counted.repetitions[r].values);
  }
  EXPECT_EQ(sampled.runs_per_repetition, counted.runs_per_repetition);
  EXPECT_TRUE(sampled.trace.runs.empty());
  EXPECT_EQ(sampled.trace.mode, CollectionMode::counting);
}

TEST(CollectSampled, DividingPeriodReconstructsCountingExactly) {
  // Dither off and the period dividing the kernel span: every kernel
  // boundary lands exactly on a sample, the cumulative counts are integers
  // (noise-free integer readings), so the per-phase synthesis returns the
  // counting-mode values bit for bit.
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(5);
  SampleSchedule s;  // period 250us divides the 1ms span
  s.dither = false;
  const auto counted = collect(m, six_events(), acts, plan(2));
  const auto sampled = collect(m, six_events(), acts,
                               plan(2, CollectionMode::sampling, s));
  ASSERT_EQ(sampled.repetitions.size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(sampled.repetitions[r].values, counted.repetitions[r].values);
  }
  // Sampled units read no counters.
  for (const auto& e : sampled.report.events) {
    EXPECT_EQ(e.read_attempts, 0u);
    EXPECT_EQ(e.disposition, EventDisposition::clean);
  }
}

TEST(CollectSampled, ClosingSampleAnchorsRunTotalsExactly) {
  // Whatever the period, dither, or mode: the unconditional closing sample
  // carries the run's aggregate totals, so per-event sums over kernels
  // match grouped counting exactly even when per-kernel attribution is
  // smeared.
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(7);
  const auto counted = collect(m, six_events(), acts, plan(2));
  SampleSchedule coarse;
  coarse.period_ns = 3'300'000;  // > 3 kernel spans, deliberately unaligned
  coarse.short_period_ns = 700'000;
  for (const CollectionMode mode :
       {CollectionMode::sampling, CollectionMode::strobed}) {
    const auto sampled =
        collect(m, six_events(), acts, plan(2, mode, coarse));
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t e = 0; e < six_events().size(); ++e) {
        double truth = 0.0, est = 0.0;
        for (std::size_t k = 0; k < acts.size(); ++k) {
          truth += counted.repetitions[r].values[e][k];
          est += sampled.repetitions[r].values[e][k];
        }
        EXPECT_NEAR(est, truth, 1e-6) << "mode " << to_string(mode)
                                      << " rep " << r << " event " << e;
      }
    }
  }
}

TEST(CollectSampled, ByteIdenticalAcrossThreadCounts) {
  // The virtual timeline makes every sample a pure function of its
  // coordinates: 1 worker and 4 workers must produce identical traces AND
  // identical reconstructed data, down to the last bit.
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(9);
  SampleSchedule s;  // dither on: the offsets must reproduce too
  for (const CollectionMode mode :
       {CollectionMode::sampling, CollectionMode::strobed}) {
    const auto one = collect(m, six_events(), acts, plan(4, mode, s, 1));
    const auto four = collect(m, six_events(), acts, plan(4, mode, s, 4));
    ASSERT_EQ(one.repetitions.size(), four.repetitions.size());
    for (std::size_t r = 0; r < one.repetitions.size(); ++r) {
      EXPECT_EQ(one.repetitions[r].values, four.repetitions[r].values);
    }
    ASSERT_EQ(one.trace.runs.size(), four.trace.runs.size());
    for (std::size_t u = 0; u < one.trace.runs.size(); ++u) {
      const RunTrace& a = one.trace.runs[u];
      const RunTrace& b = four.trace.runs[u];
      EXPECT_EQ(a.repetition, b.repetition);
      EXPECT_EQ(a.run_id, b.run_id);
      EXPECT_EQ(a.events, b.events);
      ASSERT_EQ(a.samples.size(), b.samples.size());
      for (std::size_t i = 0; i < a.samples.size(); ++i) {
        EXPECT_EQ(a.samples[i].t_ns, b.samples[i].t_ns);
        EXPECT_EQ(a.samples[i].values, b.samples[i].values);
      }
    }
  }
}

TEST(CollectSampled, TraceOrderedByRepetitionThenRun) {
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(4);
  const auto sampled = collect(m, six_events(), acts,
                               plan(3, CollectionMode::sampling, {}, 4));
  const auto sched = schedule_event_sets(m, six_events());
  const std::size_t n_groups = sched.runs.size();
  ASSERT_EQ(sampled.trace.runs.size(), 3 * n_groups);
  EXPECT_EQ(sampled.trace.kernels, acts.size());
  for (std::size_t u = 0; u < sampled.trace.runs.size(); ++u) {
    const RunTrace& run = sampled.trace.runs[u];
    EXPECT_EQ(run.repetition, u / n_groups);
    EXPECT_EQ(run.run_id, u);
    EXPECT_EQ(run.events, sched.runs[u % n_groups].events);
    ASSERT_FALSE(run.samples.empty());
    EXPECT_EQ(run.samples.back().t_ns,
              sampled.trace.schedule.kernel_span_ns * acts.size());
  }
}

TEST(CollectSampled, RepetitionOffsetShiftsRunIds) {
  // Batch resume: offset r shifts the run-id noise coordinates exactly as
  // it does for counting, so a resumed sampling campaign is bit-identical
  // to an uninterrupted one.
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(4);
  const auto whole =
      collect(m, six_events(), acts, plan(2, CollectionMode::strobed));
  CollectionPlan second = plan(1, CollectionMode::strobed);
  second.repetition_offset = 1;
  const auto tail = collect(m, six_events(), acts, second);
  EXPECT_EQ(tail.repetitions[0].values, whole.repetitions[1].values);
  const std::size_t n_groups = whole.trace.runs.size() / 2;
  for (std::size_t g = 0; g < n_groups; ++g) {
    EXPECT_EQ(tail.trace.runs[g].run_id, whole.trace.runs[n_groups + g].run_id);
    EXPECT_EQ(tail.trace.runs[g].repetition, 1u);
  }
}

TEST(CollectSampled, FakeClockPacesOneSleepPerKernelSpan) {
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(5);
  SampleSchedule s;
  faults::FakeClock clock;
  CollectionPlan paced_plan = plan(2, CollectionMode::sampling, s);
  paced_plan.resilience.clock = &clock;
  const auto paced = collect(m, six_events(), acts, paced_plan);
  const auto sched = schedule_event_sets(m, six_events());
  const std::size_t expected_sleeps = 2 * sched.runs.size() * acts.size();
  ASSERT_EQ(clock.delays().size(), expected_sleeps);
  for (const auto& d : clock.delays()) {
    EXPECT_EQ(d, std::chrono::nanoseconds(s.kernel_span_ns));
  }
  // Pacing never touches the data: unpaced collection is identical.
  const auto unpaced =
      collect(m, six_events(), acts, plan(2, CollectionMode::sampling, s));
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(paced.repetitions[r].values, unpaced.repetitions[r].values);
  }
}

TEST(CollectSampled, RejectsBadArguments) {
  const auto m = sampling_machine();
  const auto acts = bursty_kernels(3);
  const CollectionMode mode = CollectionMode::sampling;
  EXPECT_THROW(collect(m, {"NOPE"}, acts, plan(1, mode)),
               std::invalid_argument);
  EXPECT_THROW(collect(m, six_events(), acts, plan(0, mode)),
               std::invalid_argument);
  EXPECT_THROW(collect(m, six_events(), acts, plan(1, mode, {}, 0)),
               std::invalid_argument);
  EXPECT_THROW(collect(m, six_events(), {}, plan(1, mode)),
               std::invalid_argument);
  SampleSchedule bad;
  bad.period_ns = 0;
  EXPECT_THROW(collect(m, six_events(), acts, plan(1, mode, bad)),
               std::invalid_argument);
  // A sampler has no per-kernel retry point: an armed fault plan is
  // refused up front, a disabled one is harmless.
  CollectionPlan faulty = plan(1, mode);
  const faults::FaultPlan mid = faults::FaultPlan::mid_rate();
  faulty.faults = &mid;
  EXPECT_THROW(collect(m, six_events(), acts, faulty), std::invalid_argument);
  const faults::FaultPlan off;
  faulty.faults = &off;
  EXPECT_NO_THROW(collect(m, six_events(), acts, faulty));
}

TEST(CollectionMode, StringRoundTrip) {
  EXPECT_EQ(collection_mode_from_string("counting"),
            CollectionMode::counting);
  EXPECT_EQ(collection_mode_from_string("sampling"),
            CollectionMode::sampling);
  EXPECT_EQ(collection_mode_from_string("strobed"), CollectionMode::strobed);
  for (const CollectionMode mode :
       {CollectionMode::counting, CollectionMode::sampling,
        CollectionMode::strobed}) {
    EXPECT_EQ(collection_mode_from_string(to_string(mode)), mode);
  }
  EXPECT_THROW(collection_mode_from_string("multiplexed"),
               std::invalid_argument);
}

}  // namespace
}  // namespace catalyst::vpapi
