// catalyst/pmu -- the measurement engine.
//
// Turns (machine, event, kernel activity, repetition index) into the integer
// counter reading a real PMU would report: ideal linear functional, plus the
// event's noise model, rounded to a non-negative integer.
//
// Determinism contract: every noise draw comes from a stateless counter-based
// stream keyed on
//   fnv1a(event name) ^ machine seed ^ mix(repetition) ^ mix(kernel index)
// so any single reading can be reproduced in isolation; there is no hidden
// global state and no dependence on measurement order or thread scheduling.
// A reading changes if and only if one of those four coordinates changes --
// in particular it does NOT depend on whether the ideal value was evaluated
// fresh or served from an IdealTable, nor on which event set or session
// performed the measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pmu/machine.hpp"

namespace catalyst::pmu {

/// FNV-1a 64-bit hash (stable across platforms, unlike std::hash).
std::uint64_t fnv1a(const std::string& s) noexcept;

/// SplitMix64 finalizer; decorrelates structured integers (rep/kernel ids).
std::uint64_t mix64(std::uint64_t x) noexcept;

/// One uniform [0, 1) draw (53-bit resolution) from a stateless key -- the
/// single-draw sibling of the counter-based noise stream below.  The
/// fault-injection layer (catalyst::faults) builds its per-coordinate fault
/// decisions on this so faults obey the same determinism contract as noise.
double uniform_from_key(std::uint64_t key) noexcept;

/// One counter reading for `event` over `activity` at repetition `rep`,
/// kernel slot `kernel_index`.
double measure_event(const Machine& machine, const EventDefinition& event,
                     const Activity& activity, std::uint64_t rep,
                     std::uint64_t kernel_index);

/// Same reading, but with the ideal (noise-free, unrounded) value already in
/// hand.  `measure_event(m, e, act, r, k)` is exactly
/// `measure_from_ideal(m, e, e.ideal(act), r, k)`; collection paths that
/// revisit the same (event, kernel) pair across repetitions use this with an
/// IdealTable so the repetition-invariant functional is evaluated once.
double measure_from_ideal(const Machine& machine, const EventDefinition& event,
                          double ideal, std::uint64_t rep,
                          std::uint64_t kernel_index);

/// Precomputed ideal readings over a kernel sequence:
/// `ideal(e, k)` = machine event e's noise-free functional over
/// activities[k].  Ideal values are repetition-invariant, so one table built
/// up front serves every (repetition, group) unit of a collection sweep --
/// and, being immutable after construction, can be shared across worker
/// threads without synchronization.
class IdealTable {
 public:
  IdealTable() = default;

  /// Eagerly evaluates every event of the machine over `activities`.
  IdealTable(const Machine& machine, const std::vector<Activity>& activities);

  /// Eagerly evaluates only the listed machine event indices, on up to
  /// `threads` workers (the table is the same for any count); lookups for
  /// other events report !has() and callers fall back to evaluating fresh.
  IdealTable(const Machine& machine, const std::vector<Activity>& activities,
             const std::vector<std::size_t>& event_indices, int threads = 1);

  /// True when `event_index` has a precomputed row.
  bool has(std::size_t event_index) const noexcept {
    return event_index < row_of_.size() && row_of_[event_index] != kNoRow;
  }

  /// Precomputed ideal of event `event_index` over activities[kernel_index].
  /// Only valid when has(event_index) and kernel_index < num_kernels().
  double ideal(std::size_t event_index, std::size_t kernel_index) const {
    return values_[row_of_[event_index] * num_kernels_ + kernel_index];
  }

  std::size_t num_kernels() const noexcept { return num_kernels_; }

 private:
  static constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

  /// Evaluates the listed events' rows into values_, on up to `threads`
  /// workers; row_of_ must already map each of them to its row.
  void fill(const Machine& machine, const std::vector<Activity>& activities,
            const std::vector<std::size_t>& listed, int threads);

  std::vector<std::size_t> row_of_;  ///< Machine event -> row, or kNoRow.
  std::vector<double> values_;       ///< Rows x kernels, one block.
  std::size_t num_kernels_ = 0;
};

/// Measurement vector of one event across a sequence of kernel activities
/// (one entry per activity), at repetition `rep`.
std::vector<double> measure_vector(const Machine& machine,
                                   const EventDefinition& event,
                                   const std::vector<Activity>& activities,
                                   std::uint64_t rep);

/// Measurement matrix columns for every event of the machine:
/// result[e][k] = reading of event e over activities[k].
/// This is the "measure everything at once" shortcut used by tests; the
/// realistic multiplexed collection path lives in catalyst::vpapi.
std::vector<std::vector<double>> measure_all(
    const Machine& machine, const std::vector<Activity>& activities,
    std::uint64_t rep);

}  // namespace catalyst::pmu
