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
// in particular it does NOT depend on whether the ideal value came from the
// event's signal map (EventDefinition::ideal) or the machine's dense signal
// ids (Machine::ideal), nor on which event set or session performed the
// measurement.
#pragma once

#include <cstdint>
#include <string>

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
/// `measure_from_ideal(m, e, e.ideal(act), r, k)`; the collection paths
/// pass the machine's dense-id ideal (Machine::ideal), which has the same
/// bits.
double measure_from_ideal(const Machine& machine, const EventDefinition& event,
                          double ideal, std::uint64_t rep,
                          std::uint64_t kernel_index);

}  // namespace catalyst::pmu
