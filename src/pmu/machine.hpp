// catalyst/pmu -- simulated machine models.
//
// A Machine is a named registry of raw events plus the PMU resource limits
// the collection layer (catalyst::vpapi) must respect.  Two builders ship
// with the library:
//   * saphira_cpu()  -- an Intel Sapphire-Rapids-flavoured CPU model,
//   * tempest_gpu()  -- an AMD MI250X-flavoured GPU model (8 devices).
// Both are synthetic: names and counting semantics follow the real parts
// closely enough for the paper's pipeline to face the same structure
// (aliases, linear combinations, zero columns, huge-norm cycle counters,
// noisy cache events), but no vendor data is used.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pmu/event.hpp"

namespace catalyst::pmu {

/// A simulated machine: its raw-event registry and PMU limits.
class Machine {
 public:
  Machine(std::string name, std::size_t physical_counters,
          std::uint64_t noise_seed);

  const std::string& name() const noexcept { return name_; }

  /// Number of events that can be measured in a single run.
  std::size_t physical_counters() const noexcept { return physical_counters_; }

  /// Base seed for all noise on this machine.
  std::uint64_t noise_seed() const noexcept { return noise_seed_; }

  /// Registers an event; throws std::invalid_argument on an empty or
  /// duplicate name or a non-finite coefficient.  Also caches fnv1a(name) on
  /// the event so the measurement hot path never re-hashes, indexes the name
  /// for O(1) find(), and interns each term's signal name into a dense
  /// signal id (see densify()).
  void add_event(EventDefinition event);

  std::size_t num_events() const noexcept { return events_.size(); }
  const std::vector<EventDefinition>& events() const noexcept {
    return events_;
  }
  const EventDefinition& event(std::size_t i) const { return events_.at(i); }

  /// Finds an event by exact name.  O(1): backed by a name -> index map
  /// maintained by add_event (hot in vpapi::Session::add_event, which runs
  /// once per (repetition x group) collection unit).
  std::optional<std::size_t> find(const std::string& name) const;

  /// All event names, in registration order.
  std::vector<std::string> event_names() const;

  /// Distinct signals the machine's events read.  Signal ids are 0 ..
  /// num_signals() - 1, in order of first appearance across add_event.
  std::size_t num_signals() const noexcept { return signal_ids_.size(); }

  /// Dense form of `activity`: entry i is the count of signal id i, 0.0
  /// where the activity lacks it.  Signals no event reads are dropped.
  std::vector<double> densify(const Activity& activity) const;

  /// Ideal (noise-free, unrounded) reading of event `event_index` over a
  /// dense activity.  The sum runs in term order like
  /// EventDefinition::ideal, and a finite coefficient times an absent
  /// signal's 0.0 leaves it unchanged, so
  /// ideal(e, densify(act)) has the bits of event(e).ideal(act).  Throws
  /// std::invalid_argument on a bad index or a span whose size is not
  /// num_signals().
  double ideal(std::size_t event_index, std::span<const double> signals) const;

 private:
  struct DenseTerm {
    std::uint32_t signal = 0;
    double coefficient = 0.0;
  };

  std::string name_;
  std::size_t physical_counters_;
  std::uint64_t noise_seed_;
  std::vector<EventDefinition> events_;
  std::unordered_map<std::string, std::size_t> index_;  ///< name -> events_ i.
  std::unordered_map<std::string, std::uint32_t> signal_ids_;
  /// Every event's terms by signal id, event after event; event e's are
  /// terms_[term_begin_[e], term_begin_[e + 1]).
  std::vector<DenseTerm> terms_;
  std::vector<std::size_t> term_begin_{0};
};

/// Builds the Sapphire-Rapids-flavoured CPU model (~350 events, 8 counters).
Machine saphira_cpu();

/// Builds the MI250X-flavoured GPU model (8 devices, ~1200 events).
/// Only device 0 executes work; events qualified with device=1..7 read zero
/// (mirroring the paper's footnote that metrics are defined for one device).
Machine tempest_gpu();

/// Builds the older-AMD-flavoured CPU model (~110 events, 6 counters):
/// a single combined SSE/AVX FLOPs counter (operations, both precisions),
/// no separate conditional-taken counter -- the machine on which
/// per-precision FLOP metrics are provably non-composable.
Machine vesuvio_cpu();

}  // namespace catalyst::pmu
