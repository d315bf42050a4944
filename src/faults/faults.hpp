// catalyst/faults -- deterministic seeded fault injection for the PMU stack.
//
// Real hardware-counter collection fails in stereotyped ways: 48-bit
// counters wrap, counters freeze, reads are dropped by the kernel driver,
// interrupts corrupt a reading with a spurious spike, and event-set
// programming hits transient EBUSY/ECNFLCT conditions.  This layer lets the
// collection stack experience all of those ON DEMAND, reproducibly: every
// fault decision is a pure function of
//   (plan seed, event name hash, fault kind, run id, kernel index, attempt)
// so a campaign replays bit-for-bit at any thread count, and a RETRY of the
// same reading (attempt + 1) sees an independent draw -- exactly the
// property a retrying driver needs for transient faults to clear.
//
// The plan is configuration only (immutable, shared across threads); no
// fault state lives here.  Injection happens inside vpapi::Session (the
// counter read engine) and recovery inside the vpapi collection driver.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

namespace catalyst::faults {

/// The fault taxonomy (see DESIGN.md "Robustness").
enum class FaultKind {
  wrap = 0,         ///< 48-bit counter wraparound: delta reported short by 2^w.
  stuck,            ///< Frozen counter: reading does not advance (reads 0).
  dropped_reading,  ///< Driver dropped the read: typed transient error.
  spike,            ///< Spurious corruption: reading gains a huge spike.
  add_event_busy,   ///< Transient PAPI_EBUSY/ECNFLCT from add_event.
  start_busy,       ///< Transient failure starting the event set.
};
inline constexpr std::size_t kNumFaultKinds = 6;

/// Short stable name ("wrap", "stuck", ...) used in reports.
std::string to_string(FaultKind kind);

/// Per-fault-kind probabilities, each evaluated independently per reading
/// (or per add_event/start call).  All zero = no faults.
struct FaultRates {
  double wrap = 0.0;
  double stuck = 0.0;
  double dropped_reading = 0.0;
  double spike = 0.0;
  double add_event_busy = 0.0;
  double start_busy = 0.0;

  double rate(FaultKind kind) const noexcept;
  bool any() const noexcept;
  bool operator==(const FaultRates&) const = default;
};

/// A complete, immutable fault campaign configuration.
struct FaultPlan {
  std::uint64_t seed = 0;  ///< Decorrelates whole campaigns.
  FaultRates rates;        ///< Default rates for every event.
  /// Per-event overrides (by raw event name); events absent here use
  /// `rates`.  An override with e.g. dropped_reading = 1.0 makes the event
  /// unrecoverable -- the quarantine path's test vector.
  std::unordered_map<std::string, FaultRates> per_event;
  /// Physical counter register width; wrapped deltas are short by 2^width.
  int counter_width_bits = 48;
  /// Plausibility ceiling for the resilient driver's reading screen.  The
  /// simulated machines' largest ideal readings are < 2^40; spikes land far
  /// above this, legitimate readings never do.
  double plausible_max = 35184372088832.0;  // 2^45
  /// Magnitude added to a reading by a spike fault (well above the screen).
  double spike_magnitude = 70368744177664.0;  // 2^46

  const FaultRates& rates_for(const std::string& event_name) const;
  /// True when any rate anywhere (default or override) is non-zero.
  bool enabled() const noexcept;

  /// The canonical mid-rate plan used by the `fault_pipeline` CI job:
  /// ~1% transient read failure and ~0.1% wrap/spike per reading --
  /// realistic rates under which Tables V-VIII must reproduce exactly.
  static FaultPlan mid_rate(std::uint64_t seed = 0xFA01);
};

/// Deterministic fault decision: does `kind` fire for this reading?
/// Pure function of (plan.seed, event_hash, kind, run, kernel, attempt);
/// callers pass the event's fnv1a name hash and the probability they
/// already resolved via rates_for (so per-event overrides apply).
bool fires(const FaultPlan& plan, std::uint64_t event_hash, FaultKind kind,
           std::uint64_t run, std::uint64_t kernel, std::uint64_t attempt,
           double rate);

/// 2^width_bits as a double (exact for width <= 53).
double counter_wrap_span(int width_bits);

/// Applies a wraparound to a reading: the per-kernel delta loses one full
/// counter span, going negative -- the uncorrected value a naive
/// before/after differencing of a wrapped 48-bit register produces.
double wrap_reading(const FaultPlan& plan, double reading);

/// Width-aware delta decoding: a negative delta means the register wrapped
/// between the two reads; add back counter spans until non-negative.
/// Recovers the true reading exactly (readings are integers < 2^53).
/// `wraps_corrected`, when given, is incremented per span added.
double unwrap_reading(int width_bits, double reading,
                      std::uint64_t* wraps_corrected = nullptr);

/// One injected fault, as logged by the session's read engine.
struct FaultRecord {
  FaultKind kind = FaultKind::wrap;
  /// Machine event index the fault hit; SIZE_MAX for set-level faults
  /// (start_busy is not tied to one event).
  std::size_t event_index = static_cast<std::size_t>(-1);
  std::uint64_t run = 0;
  std::uint64_t kernel = 0;
  std::uint64_t attempt = 0;

  bool operator==(const FaultRecord&) const = default;
};

/// Parses a CLI fault spec.  Accepted forms:
///   "off"                     -> disabled plan (all rates zero)
///   "mid"                     -> FaultPlan::mid_rate()
///   "mid,seed=7,drop=0.02"    -> mid-rate base with overrides
///   "wrap=0.001,spike=0.001"  -> zero base with the listed rates
/// Keys: seed, width, wrap, stuck, drop, spike, add, start, plausible_max.
/// Throws std::invalid_argument on unknown keys or malformed numbers.
FaultPlan parse_fault_plan(const std::string& spec);

/// One-line human-readable summary of a plan ("seed=64257 wrap=0.001 ...").
std::string describe(const FaultPlan& plan);

// --- retry pacing ----------------------------------------------------------

/// Capped exponential backoff schedule: attempt n sleeps
/// min(cap, base * 2^n).  Pure arithmetic; sleeping goes through Clock.
struct Backoff {
  std::chrono::nanoseconds base{std::chrono::microseconds(50)};
  std::chrono::nanoseconds cap{std::chrono::milliseconds(5)};

  std::chrono::nanoseconds delay(std::uint64_t attempt) const noexcept;
};

/// Injectable time source for retry pacing and span timestamps.  Production
/// uses RealClock; tests use FakeClock so no wall time is ever spent (and so
/// the backoff schedule and span timings can be asserted exactly).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual void sleep_for(std::chrono::nanoseconds d) = 0;
  /// Monotonic timestamp (obs::Span start/end times come from here).
  virtual std::chrono::nanoseconds now() = 0;
};

/// Actually sleeps / reads the steady clock.  The implementation file is the
/// single allow-listed caller of std::this_thread::sleep_for (catalyst-lint:
/// sleep-in-retry) and one of two allow-listed raw steady_clock readers
/// (catalyst-lint: raw-timing).
class RealClock final : public Clock {
 public:
  void sleep_for(std::chrono::nanoseconds d) override;
  std::chrono::nanoseconds now() override;
};

/// Records every requested delay and returns immediately; now() returns a
/// virtual time that advances by each "slept" delay plus 1us per query, so
/// spans timed against it get deterministic, strictly increasing stamps.
/// Thread-safe: the resilient driver's workers may back off concurrently.
class FakeClock final : public Clock {
 public:
  void sleep_for(std::chrono::nanoseconds d) override
      CATALYST_EXCLUDES(mutex_) {
    const sync::LockGuard lock(mutex_);
    delays_.push_back(d);
    virtual_now_ += d;
  }
  std::chrono::nanoseconds now() override CATALYST_EXCLUDES(mutex_) {
    const sync::LockGuard lock(mutex_);
    const std::chrono::nanoseconds t = virtual_now_;
    virtual_now_ += std::chrono::microseconds(1);
    return t;
  }
  std::vector<std::chrono::nanoseconds> delays() const
      CATALYST_EXCLUDES(mutex_) {
    const sync::LockGuard lock(mutex_);
    return delays_;
  }
  std::chrono::nanoseconds total() const CATALYST_EXCLUDES(mutex_) {
    const sync::LockGuard lock(mutex_);
    std::chrono::nanoseconds sum{0};
    for (auto d : delays_) sum += d;
    return sum;
  }

 private:
  mutable sync::Mutex mutex_{"faults.fake_clock"};
  std::vector<std::chrono::nanoseconds> delays_ CATALYST_GUARDED_BY(mutex_);
  std::chrono::nanoseconds virtual_now_ CATALYST_GUARDED_BY(mutex_){0};
};

}  // namespace catalyst::faults
