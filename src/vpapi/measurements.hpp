// catalyst/vpapi -- the measurement tensor.
//
// The paper's analysis works on one object: for every raw event, its
// per-slot reading vector at every repetition.  Measurements holds it as a
// single contiguous block in (event, repetition, slot) row-major order --
// the order archives list it and packed SUBMITs carry it -- and is the one
// in-memory layout from the collector to the analysis stages: collector
// units write their rows in place, the noise stages read an event's
// repetitions as one block, and a quarantine is one keep_events().
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace catalyst::vpapi {

class Measurements {
 public:
  Measurements() = default;
  /// A zero-filled events x repetitions x slots tensor.
  Measurements(std::size_t events, std::size_t repetitions, std::size_t slots)
      : Measurements(events, repetitions, slots,
                     std::vector<double>(events * repetitions * slots)) {}
  /// Adopts `values` in (event, repetition, slot) order; throws
  /// std::invalid_argument unless it holds events x repetitions x slots
  /// values.
  Measurements(std::size_t events, std::size_t repetitions, std::size_t slots,
               std::vector<double> values)
      : events_(events),
        reps_(repetitions),
        slots_(slots),
        values_(std::move(values)) {
    if (values_.size() != events * repetitions * slots) {
      throw std::invalid_argument(
          "Measurements: value block size != events x repetitions x slots");
    }
  }
  /// Literal form, one {{slot...} per repetition} block per event; throws
  /// std::invalid_argument on ragged input.
  Measurements(std::initializer_list<
               std::initializer_list<std::initializer_list<double>>>
                   blocks)
      : events_(blocks.size()),
        reps_(events_ == 0 ? 0 : blocks.begin()->size()),
        slots_(reps_ == 0 ? 0 : blocks.begin()->begin()->size()) {
    for (const auto& block : blocks) {
      bool ragged = block.size() != reps_;
      for (const auto& row : block) {
        ragged |= row.size() != slots_;
        values_.insert(values_.end(), row.begin(), row.end());
      }
      if (ragged) throw std::invalid_argument("Measurements: ragged literal");
    }
  }

  std::size_t size() const noexcept { return events_; }  ///< Event count.
  std::size_t repetitions() const noexcept { return reps_; }
  std::size_t slots() const noexcept { return slots_; }

  /// Event e's reading vector at repetition r (slots() values).
  std::span<double> row(std::size_t e, std::size_t r) noexcept {
    return {values_.data() + (e * reps_ + r) * slots_, slots_};
  }
  std::span<const double> row(std::size_t e, std::size_t r) const noexcept {
    return {values_.data() + (e * reps_ + r) * slots_, slots_};
  }
  /// Event e's repetitions() x slots() block, repetition-major.
  std::span<const double> event(std::size_t e) const noexcept {
    return {values_.data() + e * reps_ * slots_, reps_ * slots_};
  }
  /// The whole block, (event, repetition, slot) order.
  const std::vector<double>& values() const noexcept { return values_; }

  /// Drops every event e with keep[e] == 0, keeping the others in order;
  /// `keep` has one entry per event.
  void keep_events(const std::vector<char>& keep) {
    if (keep.size() != events_) {
      throw std::invalid_argument("Measurements: one keep flag per event");
    }
    const std::size_t block = reps_ * slots_;
    std::size_t kept = 0;
    for (std::size_t e = 0; e < events_; ++e) {
      if (keep[e] == 0) continue;
      if (kept != e) {
        std::copy_n(values_.begin() + e * block, block,
                    values_.begin() + kept * block);
      }
      ++kept;
    }
    events_ = kept;
    values_.resize(kept * block);
  }

  friend bool operator==(const Measurements&, const Measurements&) = default;

 private:
  std::size_t events_ = 0;
  std::size_t reps_ = 0;
  std::size_t slots_ = 0;
  std::vector<double> values_;
};

}  // namespace catalyst::vpapi
