// catalyst/vpapi -- a PAPI-flavoured access layer over the simulated PMU.
//
// The paper collects event data "the PAPI way": create an event set, add up
// to `physical_counters` events, start, run the benchmark, stop, read.
// Because there are orders of magnitude more events than counters, the full
// event list must be multiplexed over many repeated benchmark runs -- the
// exact constraint that makes the paper's automated analysis necessary.
//
// Like PAPI, the session also supports *derived events* (presets): named
// linear combinations of raw events (PAPI_DP_OPS-style).  Adding a preset
// to an event set allocates one physical counter per distinct constituent
// raw event; raw events already counted in the set are shared rather than
// double-allocated, exactly as PAPI schedules preset constituents.
//
// The API mirrors PAPI's shape (integer event sets, status codes, explicit
// start/stop) without copying its C interface verbatim; it is a C++ layer
// with RAII ownership of event sets inside a Session.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "faults/faults.hpp"
#include "pmu/pmu.hpp"

namespace catalyst::vpapi {

/// PAPI-style status codes.
enum class Status {
  ok = 0,
  no_such_event,    ///< Name is neither a raw event nor a registered preset.
  conflict,         ///< Not enough physical counters left in the set.
  already_added,    ///< Event already in the set.
  is_running,       ///< Operation illegal while the set is running.
  not_running,      ///< stop/read require a started set.
  no_such_eventset, ///< Bad event-set handle.
  invalid_preset,   ///< Preset references unknown raw events / bad shape.
  transient,        ///< Transient failure (EBUSY/ECNFLCT-style); retryable.
};

/// Human-readable form of a status code.
std::string to_string(Status s);

/// One term of a derived event: coefficient x raw event.
struct DerivedTerm {
  std::string event_name;
  double coefficient = 0.0;
};

/// A derived event (preset): a named linear combination of raw events.
struct DerivedEvent {
  std::string name;
  std::string description;
  std::vector<DerivedTerm> terms;
};

/// A measurement session against one simulated machine.
///
/// Lifecycle per event set:
///   create_eventset -> add_event* -> start -> run_kernel* -> stop -> read
/// `run_kernel` stands in for "the instrumented code executed"; it accrues
/// counts for every counter of each *running* set, applying the machine's
/// per-event noise for the given (repetition, kernel) coordinates.
class Session {
 public:
  explicit Session(const pmu::Machine& machine);

  const pmu::Machine& machine() const noexcept { return *machine_; }

  // --- Event queries -------------------------------------------------------
  /// True for raw events and registered presets alike.
  bool query_event(const std::string& name) const;
  /// Raw events of the machine (presets are listed separately).
  std::vector<std::string> enumerate_events() const;
  /// Registered preset names.
  std::vector<std::string> enumerate_presets() const;
  /// Description of a raw event or preset; empty if unknown.
  std::string event_description(const std::string& name) const;

  // --- Presets ----------------------------------------------------------------
  /// Registers a derived event.  Fails with invalid_preset when the preset
  /// has no terms or references unknown raw events, with already_added when
  /// the name is taken (by a raw event or another preset).
  Status register_preset(const DerivedEvent& preset);

  // --- Event sets -----------------------------------------------------------
  /// Creates an empty event set and returns its handle.
  int create_eventset();

  /// Enables PAPI-style time-division multiplexing on a (non-running,
  /// still raw-counter-feasible) event set: more counters than the machine
  /// physically has may then be allocated; each run_kernel time-slice
  /// counts only `physical_counters` of them (round-robin) and the reading
  /// is scaled by the inverse duty cycle.  Readings become ESTIMATES whose
  /// error shrinks with the number of kernels run -- the multiplexing noise
  /// that motivates collecting each event group in its own run when
  /// accuracy matters (as the CAT collector does).
  Status enable_multiplexing(int set);

  /// True if multiplexing was enabled on the set.
  bool is_multiplexed(int set) const;

  /// Rotates the multiplex schedule so the set behaves as if `start_slice`
  /// time-slices had already elapsed: the round-robin window of the next
  /// run_kernel starts where slice `start_slice` of a continuous schedule
  /// would.  Fixes the naive multiplexer's residual apportioning bias: with
  /// the cursor pinned at 0 every repetition, the FIRST groups in rotation
  /// order collect ceil(slices/groups) slices and the last only
  /// floor(slices/groups) -- every repetition, for the same events --
  /// whenever the per-repetition slice count is not a multiple of the group
  /// count.  Callers that re-create the set per repetition (see
  /// collect_multiplexed) pass a per-repetition phase so the favoured group
  /// rotates and the extra slices spread evenly across events.
  /// Fails with is_running on a started set; a no-op for sets that are not
  /// oversubscribed.
  Status set_multiplex_phase(int set, std::uint64_t start_slice);

  /// Time-slices each added event's counter was live, in list_events order
  /// (presets report the minimum over their constituent raw events).  The
  /// apportioning regression tests read this to prove the slice shares are
  /// fair; zero for sets never run.
  std::vector<std::uint64_t> slice_counts(int set) const;

  /// Destroys a (non-running) event set.
  Status destroy_eventset(int set);

  /// Adds a raw event or preset.  Presets allocate counters for their
  /// constituent raw events, sharing counters with constituents already in
  /// the set.
  Status add_event(int set, const std::string& name);
  Status remove_event(int set, const std::string& name);

  /// Names currently in the set, in add order (presets by preset name).
  std::vector<std::string> list_events(int set) const;

  /// Physical counters currently allocated in the set.
  std::size_t counters_in_use(int set) const;

  Status start(int set);
  Status stop(int set);
  Status reset(int set);

  /// Accrues counts on all running sets for one kernel execution whose
  /// activity is `signals` in the machine's dense signal ids
  /// (pmu::Machine::densify).  Throws std::invalid_argument when
  /// signals.size() is not machine().num_signals().
  void run_kernel(std::span<const double> signals, std::uint64_t repetition,
                  std::uint64_t kernel_index);

  /// Reads accumulated values, one per added event in list_events order;
  /// preset entries return their linear combination.  Returns
  /// Status::transient when a dropped/stuck-counter fault hit any slot of
  /// the set since the last reset -- the typed error a resilient caller
  /// retries (see vpapi/collector.hpp).
  Status read(int set, std::vector<double>& values) const;

  // --- Fault injection (see faults/faults.hpp) -----------------------------
  /// Arms (or, with nullptr, disarms) fault injection for this session.
  /// The plan must outlive the session.  With no plan armed every path
  /// below is bit-identical to a fault-free session.
  void set_fault_context(const faults::FaultPlan* plan);

  /// Sets the (run, attempt) coordinates folded into every fault decision.
  /// The resilient driver bumps `attempt` before each retry so transient
  /// faults get an independent draw while the underlying NOISE stream --
  /// keyed on (event, run, kernel) only -- reproduces the identical
  /// reading on success.
  void set_fault_coordinates(std::uint64_t run, std::uint64_t attempt);

  const faults::FaultPlan* fault_plan() const noexcept { return fault_plan_; }

  /// Every fault injected since the last clear_fault_log(), in injection
  /// order.  The resilient driver drains this to attribute retries and
  /// build its CollectionReport.
  const std::vector<faults::FaultRecord>& fault_log() const noexcept {
    return fault_log_;
  }
  void clear_fault_log() { fault_log_.clear(); }

 private:
  struct Slot {
    std::size_t machine_index = 0;  ///< Raw event backing this counter.
    double count = 0.0;
    int refs = 0;                   ///< Items referencing this slot.
    std::uint64_t slices = 0;       ///< Time-slices this slot was counting.
  };
  struct Part {
    std::size_t machine_index = 0;
    double coefficient = 1.0;
  };
  struct Item {
    std::string name;
    std::vector<Part> parts;  ///< Raw item: single part with coefficient 1.
  };
  struct EventSet {
    std::vector<Slot> slots;
    std::vector<Item> items;
    /// machine index -> index into `slots` (-1 = no slot), sized to the
    /// machine's event count on first add_event; makes find_slot O(1)
    /// instead of a scan over the allocated slots (hot in read() for
    /// multiplexed sets, where every event of the machine owns a slot).
    std::vector<std::int32_t> slot_of;
    bool running = false;
    bool ever_started = false;
    bool destroyed = false;
    bool multiplexed = false;
    /// A dropped/stuck-counter fault hit a slot since the last reset; read()
    /// reports Status::transient until the set is reset.
    bool transient_read = false;
    std::size_t mux_cursor = 0;      ///< Round-robin slice position.
    std::uint64_t slices_total = 0;  ///< run_kernel calls while running.
  };

  EventSet* get(int set);
  const EventSet* get(int set) const;
  const DerivedEvent* find_preset(const std::string& name) const;
  static Slot* find_slot(EventSet& es, std::size_t machine_index);
  static const Slot* find_slot(const EventSet& es, std::size_t machine_index);

  /// Applies reading faults (drop/stuck/wrap/spike) to one slot measurement;
  /// returns the possibly-corrupted reading and marks the set's transient
  /// flag for drop/stuck.  Only called when a plan is armed.
  double apply_reading_faults(EventSet& es, const Slot& slot, double reading,
                              std::uint64_t kernel_index);

  const pmu::Machine* machine_;
  std::vector<EventSet> sets_;
  std::vector<DerivedEvent> presets_;

  // Fault-injection state (inert unless set_fault_context armed a plan).
  const faults::FaultPlan* fault_plan_ = nullptr;
  /// Per machine-event-index rates, resolved once from the plan (including
  /// per-event overrides) so the read hot path never does a name lookup.
  std::vector<faults::FaultRates> fault_rates_;
  std::uint64_t fault_run_ = 0;
  std::uint64_t fault_attempt_ = 0;
  std::vector<faults::FaultRecord> fault_log_;
};

}  // namespace catalyst::vpapi
