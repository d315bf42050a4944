// catalyst/vpapi -- time-sliced sampling and strobed collection.
//
// Grouped counting reads every counter at every kernel boundary
// (start/read/reset per slot) -- the per-phase ground truth, but a luxury
// real campaigns rarely have.  Production samplers instead snapshot the
// running counters on a timer and attribute the deltas to program phases
// afterwards; gator's counter-strobing prototype refines this with an
// alternating long/short period pair (perf's period/alt-period), buying
// occasional fine-grained boundary resolution without the overhead of a
// uniformly short period.
//
// This module reproduces that collection style against the simulated PMU:
//
//   * Each (repetition, scheduled run) unit plays the kernel sequence on a
//     VIRTUAL timeline -- kernel k occupies
//     [k, k+1) x kernel_span_ns -- and records integer-quantized cumulative
//     counter snapshots at the schedule's sample times.  Virtual time is
//     arithmetic, not wall time: sample values and timestamps are pure
//     functions of (machine seed, event, run id, schedule), so traces are
//     byte-identical across worker-thread counts.  Wall-clock pacing, when
//     wanted, goes through an injectable faults::Clock (never a raw
//     std::chrono clock -- catalyst-lint: clock-in-sampling).
//
//   * The sample schedule is DITHERED per run: a deterministic per-run
//     phase offset (keyed like noise) shifts every sample time, so phase-
//     attribution error varies across repetitions and surfaces in the
//     pipeline's repetition-based RNMSE filter instead of hiding as a
//     systematic bias -- the same fix the multiplexer's phase rotation
//     applies to slice apportioning.
//
//   * Per-phase synthesis reconstructs per-kernel rows of the collection's
//     Measurements tensor from a trace alone: the cumulative count at each
//     nominal kernel boundary is linearly interpolated between the
//     bracketing samples, and phase k's value is the difference of
//     consecutive boundary estimates.  With periods well under the kernel
//     span the reconstruction converges to the counting-mode readings; as
//     the period grows past the span, boundary smearing degrades the values
//     -- the trade-off the collection-modes oracle sweep
//     (bench/ablation_collection_modes) quantifies against planted ground
//     truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "pmu/machine.hpp"
#include "pmu/measure.hpp"
#include "vpapi/measurements.hpp"

namespace catalyst::vpapi {

/// How a campaign turns kernel executions into measurements.
enum class CollectionMode : std::uint8_t {
  counting = 0,  ///< Read counters at every kernel boundary (the default).
  sampling = 1,  ///< Periodic snapshots at a uniform virtual-time period.
  strobed = 2,   ///< Alternating long/short periods (gator's prototype).
};

const char* to_string(CollectionMode mode) noexcept;
/// Parses "counting" / "sampling" / "strobed"; throws std::invalid_argument.
CollectionMode collection_mode_from_string(const std::string& name);

/// The virtual-time sample schedule.  All spans are nanoseconds of virtual
/// time; the defaults put four uniform samples in every kernel span.
struct SampleSchedule {
  std::uint64_t kernel_span_ns = 1'000'000;  ///< Virtual duration per kernel.
  std::uint64_t period_ns = 250'000;   ///< Sampling period / strobed long.
  std::uint64_t short_period_ns = 50'000;  ///< Strobed alternating short.
  /// Shift each run's sample times by a deterministic per-run offset in
  /// [0, period_ns).  On: attribution error decorrelates across
  /// repetitions (the RNMSE filter sees it).  Off: every run samples at
  /// identical times -- useful for pinning exact traces in tests.
  bool dither = true;

  /// Structural validation (positive spans, short <= long); throws
  /// std::invalid_argument under every contract policy.
  void validate() const;
};

/// One snapshot: virtual timestamp and the cumulative (since run start)
/// quantized readings of the run's events, in run-event order.
struct SamplePoint {
  std::uint64_t t_ns = 0;
  std::vector<double> values;
};

/// The sample trace of one (repetition, scheduled run) unit.
struct RunTrace {
  std::uint64_t repetition = 0;  ///< Repetition the unit belongs to.
  std::uint64_t run_id = 0;      ///< Noise coordinate of the run.
  std::vector<std::string> events;  ///< This run's events, slot order.
  std::vector<SamplePoint> samples;  ///< Time order; last is the run total.
};

/// A whole sweep's trace: every unit's samples plus the schedule that
/// produced them, ordered by (repetition, run) regardless of worker-thread
/// interleaving.
struct SampleTrace {
  CollectionMode mode = CollectionMode::counting;
  SampleSchedule schedule;
  std::size_t kernels = 0;  ///< Kernel slots per run.
  std::vector<RunTrace> runs;
};

/// Sample times for one run of `total_ns` virtual nanoseconds: strictly
/// increasing, all in (0, total_ns], and always ending with total_ns (the
/// closing snapshot doubles as the run's aggregate totals).  `offset_ns`
/// is the dither phase.  Exposed for the determinism tests.
std::vector<std::uint64_t> sample_times(const SampleSchedule& schedule,
                                        CollectionMode mode,
                                        std::uint64_t offset_ns,
                                        std::uint64_t total_ns);

/// The deterministic dither offset of run `run_id` (0 when
/// schedule.dither is off): a uniform draw keyed on (machine seed, mode,
/// run id), scaled to [0, period_ns).
std::uint64_t dither_offset(const pmu::Machine& machine,
                            const SampleSchedule& schedule,
                            CollectionMode mode, std::uint64_t run_id);

/// Per-phase synthesis for one run: run event i's per-kernel values,
/// reconstructed from the cumulative samples by boundary interpolation (see
/// file header), go to out.row(rows[i], repetition); out.slots() kernels.
/// Throws std::invalid_argument on an inconsistent trace or rows.
void reconstruct_run_phases(const RunTrace& run, std::uint64_t kernel_span_ns,
                            Measurements& out,
                            const std::vector<std::size_t>& rows,
                            std::size_t repetition);

/// One sampled (repetition, scheduled run) unit: plays the kernel sequence
/// on the virtual timeline at noise coordinate `run_id` and returns the
/// run's sample trace.  `events` are the run's members in slot order and
/// `event_indices` their machine indices; `signals[k]` is kernel k's
/// activity in the machine's dense signal ids (pmu::Machine::densify).
/// Readings at each kernel are the ones a counting session would read at
/// the same run id; reconstruct_run_phases turns the trace back into
/// per-kernel rows.  `clock` paces virtual time (one sleep per kernel
/// span); nullptr skips pacing -- values never depend on it.  The grouped
/// driver (vpapi/collector.hpp) runs one of these per unit in the sampling
/// and strobed modes.
RunTrace sample_run(const pmu::Machine& machine,
                    const std::vector<std::string>& events,
                    const std::vector<std::size_t>& event_indices,
                    const std::vector<std::vector<double>>& signals,
                    CollectionMode mode, const SampleSchedule& schedule,
                    std::uint64_t repetition, std::uint64_t run_id,
                    faults::Clock* clock);

}  // namespace catalyst::vpapi
