// catalyst/obs -- structured tracing for the whole analysis pipeline.
//
// A Span is an RAII wall-time interval with a name and packed key=value
// attributes.  Completed spans land in a fixed-capacity, lock-free-ish ring
// buffer (seqlock-validated slots, wait-free publish) owned by the process-
// wide Tracer; exporters (obs/export.hpp) turn a snapshot into Chrome
// trace_event JSON (load in chrome://tracing or Perfetto) or a compact run
// manifest.
//
// Overhead contract: tracing is always compiled in and gated at run time.
// When not enabled (no CATALYST_TRACE=1, no --trace-out), a Span costs one
// relaxed atomic load and no record page of the ring is resident: the
// process pays for the 512 KB of seqlock words alone.  When enabled, record
// pages fault in as spans reach them, and the bench/obs_overhead budget is
// <2% of pipeline wall time.
//
// Determinism contract: tracing never perturbs results.  Spans touch no
// RNG, no measurement state, and no fault draws; timestamps come from the
// injectable faults::Clock, so tests running under FakeClock see fully
// deterministic virtual time.
#pragma once

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "faults/faults.hpp"

namespace catalyst::obs {

/// One completed span.  Trivially copyable on purpose: ring-buffer readers
/// validate a seqlock around a raw copy, so a torn read must be memcpy-safe
/// (no heap-owning members).
struct SpanRecord {
  static constexpr std::size_t kNameCapacity = 64;
  static constexpr std::size_t kArgsCapacity = 192;

  char name[kNameCapacity];  ///< NUL-terminated, truncated if longer.
  /// "key=value;key=value;" packed attribute string (exporters split it).
  char args[kArgsCapacity];
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread_id = 0;  ///< Small sequential id, first-use order.
};
static_assert(std::is_trivially_copyable_v<SpanRecord>,
              "SpanRecord must survive a torn (seqlock-rejected) copy");

/// Per-stage wall time, aggregated from spans; carried on PipelineResult
/// (empty when tracing is off) and rendered by the Markdown report and the
/// run manifest.
struct StageTiming {
  std::string name;
  std::int64_t wall_ns = 0;
};

/// Fixed-capacity MPMC span sink.  publish() is wait-free (one fetch_add +
/// two release stores); snapshot() copies every slot under seqlock
/// validation, skipping slots that are mid-write.  When more spans are
/// published than the capacity holds, the oldest are overwritten (counted
/// in dropped()).
///
/// Seqlock protocol invariants (this is the one subsystem that keeps raw
/// ordering-bearing atomics instead of sync::Mutex -- publish() sits on the
/// per-span hot path and must never block a worker):
///   I1. Slot ownership: publish ticket t (from the cursor fetch_add) owns
///       slot t % capacity exclusively; two writers never race on one slot
///       because each ticket is handed out exactly once.
///   I2. Seq word states: 0 = never written; odd (2t+1) = ticket t's write
///       in progress; even >= 2 (2t+2) = ticket t's record complete.  The
///       seq value encodes WHICH ticket wrote the slot, so a reader that
///       sees the same even value before and after its copy knows the
///       record was neither mid-write nor overwritten in between.
///   I3. Ordering: the pre-write store (2t+1) and post-write store (2t+2)
///       are release; readers load seq with acquire before and after a raw
///       memcpy of the record.  acquire/release pairing makes the record
///       bytes visible whenever the even seq value is.
///   I4. Torn reads are safe, never surfaced: SpanRecord is trivially
///       copyable (static_assert above), so a discarded torn copy cannot
///       touch heap state; validation (I2) guarantees a torn copy is
///       always discarded.
///   I5. clear() is NOT part of the protocol: it is documented single-
///       threaded (tests only) and may not run concurrently with
///       publishers or readers.
///   I6. Unwritten record bytes are never read: a reader copies slot i's
///       record only after it sees an even seq >= 2 there (I2), which a
///       publish stores after its copy of the record.  This is what lets
///       the record storage stay uninitialized.
///
/// Storage: the seq words live in their own zeroed array (8 bytes a slot);
/// the records are raw bytes, capacity * sizeof(SpanRecord), that nothing
/// initializes and that publish()/snapshot() move with std::memcpy.  A
/// large allocation is a fresh anonymous mapping, so a record page becomes
/// resident only when a span lands on it: an untraced process never pays
/// for the 18 MB of a default-capacity ring.  (new SpanRecord[n] would not
/// do: it runs SpanRecord's default member initializers on every slot.)
class TraceBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 65536;

  explicit TraceBuffer(std::size_t capacity = kDefaultCapacity);

  void publish(const SpanRecord& rec) noexcept;
  /// Validated copy of all completed spans, oldest first (by publish order).
  std::vector<SpanRecord> snapshot() const;
  /// Total spans ever published (including overwritten ones).
  // catalyst-lint: begin-protocol(seqlock)
  std::uint64_t published() const noexcept {
    return cursor_.load(std::memory_order_acquire);
  }
  // catalyst-lint: end-protocol(seqlock)
  /// Spans lost to ring wrap-around.
  std::uint64_t dropped() const noexcept;
  std::size_t capacity() const noexcept { return capacity_; }
  /// Forgets every span (not thread-safe against concurrent publishers).
  void clear() noexcept;

 private:
  std::size_t capacity_;
  /// Seqlock word per slot: 0 = never written, odd = write in progress,
  /// 2*ticket+2 = record for publish ticket `ticket` is complete.
  /// Full protocol invariants: see the TraceBuffer class comment (I1-I6).
  std::unique_ptr<std::atomic<std::uint64_t>[]> seq_;
  /// capacity_ records of sizeof(SpanRecord) bytes; never initialized (I6).
  std::unique_ptr<unsigned char[]> records_;
  std::atomic<std::uint64_t> cursor_{0};
};

/// Small sequential id for the calling thread (stable within the thread's
/// lifetime; assigned on first use).
std::uint32_t this_thread_id() noexcept;

/// Process-wide tracing state: the enabled flag, the time source, and the
/// span ring buffer.  CATALYST_TRACE=1 in the environment enables tracing
/// at first use; the CLI's --trace-out/--stats flags enable it explicitly.
class Tracer {
 public:
  static Tracer& instance();

  bool runtime_enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void enable(bool on = true) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Installs a time source (tests inject faults::FakeClock for virtual,
  /// deterministic timestamps).  nullptr restores the built-in RealClock.
  void set_clock(faults::Clock* clock) noexcept;
  std::int64_t now_ns();

  TraceBuffer& buffer() noexcept { return buffer_; }
  const TraceBuffer& buffer() const noexcept { return buffer_; }

  /// Clears recorded spans (tests; not safe against concurrent publishers).
  void reset() noexcept { buffer_.clear(); }

 private:
  Tracer();

  std::atomic<bool> enabled_{false};
  std::atomic<faults::Clock*> clock_;
  faults::RealClock real_clock_;
  TraceBuffer buffer_;
};

namespace detail {

/// Appends "key=value;" to a packed args buffer, truncating at capacity.
void append_arg(char* args, std::size_t capacity, const char* key,
                const char* value) noexcept;

template <typename T>
void format_arg(char* args, std::size_t capacity, const char* key,
                const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    append_arg(args, capacity, key, value ? "true" : "false");
  } else if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", static_cast<double>(value));
    append_arg(args, capacity, key, buf);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRId64,
                  static_cast<std::int64_t>(value));
    append_arg(args, capacity, key, buf);
  } else if constexpr (std::is_integral_v<T>) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64,
                  static_cast<std::uint64_t>(value));
    append_arg(args, capacity, key, buf);
  } else {
    // Strings (std::string, string_view, char*): copy through a bounded
    // buffer so embedded ';'/'=' cannot corrupt the packed format.
    const std::string_view sv(value);
    char buf[96];
    std::size_t n = sv.size() < sizeof buf - 1 ? sv.size() : sizeof buf - 1;
    for (std::size_t i = 0; i < n; ++i) {
      const char c = sv[i];
      buf[i] = (c == ';' || c == '=' || c == '\n') ? '_' : c;
    }
    buf[n] = '\0';
    append_arg(args, capacity, key, buf);
  }
}

}  // namespace detail

/// True when tracing is active for this process (CATALYST_TRACE=1 or an
/// explicit Tracer::enable()).  One relaxed atomic load.
inline bool enabled() noexcept { return Tracer::instance().runtime_enabled(); }

/// RAII span: measures from construction to end()/destruction and publishes
/// into the Tracer's ring buffer.  A nullptr name or disabled tracer makes
/// the span inert (arg()/end() are cheap no-ops).
class Span {
 public:
  explicit Span(const char* name) noexcept : active_(name != nullptr &&
                                                     obs::enabled()) {
    if (!active_) return;
    Tracer& t = Tracer::instance();
    std::snprintf(rec_.name, sizeof rec_.name, "%s", name);
    rec_.args[0] = '\0';
    rec_.thread_id = this_thread_id();
    rec_.start_ns = t.now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  template <typename T>
  void arg(const char* key, const T& value) {
    if (!active_) return;
    detail::format_arg(rec_.args, sizeof rec_.args, key, value);
  }

  /// Publishes now instead of at scope exit (idempotent).
  void end() noexcept {
    if (!active_) return;
    active_ = false;
    Tracer& t = Tracer::instance();
    rec_.end_ns = t.now_ns();
    t.buffer().publish(rec_);
  }

  /// Wall time since construction (0 for inert or ended spans).
  std::int64_t elapsed_ns() const {
    if (!active_) return 0;
    return Tracer::instance().now_ns() - rec_.start_ns;
  }
  /// Recorded duration of an end()ed span (0 while active or inert) --
  /// lets instrumented code reuse the span's own measurement, e.g. for
  /// PipelineResult::stage_timings.
  std::int64_t duration_ns() const noexcept {
    return rec_.end_ns >= rec_.start_ns && rec_.end_ns != 0
               ? rec_.end_ns - rec_.start_ns
               : 0;
  }
  bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  SpanRecord rec_{};
};

void count(std::string_view counter, std::uint64_t delta = 1);
void observe(std::string_view histogram, double value);
/// Sets a point-in-time gauge (queue depth, inflight sessions, ...).
void gauge(std::string_view gauge_name, std::int64_t value);

}  // namespace catalyst::obs
