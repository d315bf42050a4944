#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace catalyst::obs {

// The seq words are value-initialized (zero: I2's "never written"); the
// record bytes are default-initialized, which for unsigned char writes
// nothing (I6).
TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      seq_(new std::atomic<std::uint64_t>[capacity_]()),
      records_(new unsigned char[capacity_ * sizeof(SpanRecord)]) {}

// The writer/reader halves of the seqlock protocol documented on the
// TraceBuffer class (invariants I1-I6 in trace.hpp).  The protocol fence
// below is what licenses ordering-bearing atomics here: catalyst-lint
// forbids acquire/release/seq_cst atomics outside src/sync unless they sit
// inside a documented begin-protocol/end-protocol region.
// catalyst-lint: begin-protocol(seqlock)
void TraceBuffer::publish(const SpanRecord& rec) noexcept {
  const std::uint64_t ticket =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slot = ticket % capacity_;
  // Seqlock writer (I2/I3): odd marks the slot mid-write; readers who
  // observe different values before and after their copy discard it.
  seq_[slot].store(2 * ticket + 1, std::memory_order_release);
  std::memcpy(records_.get() + slot * sizeof(SpanRecord), &rec,
              sizeof(SpanRecord));
  seq_[slot].store(2 * ticket + 2, std::memory_order_release);
}

std::vector<SpanRecord> TraceBuffer::snapshot() const {
  struct Numbered {
    std::uint64_t ticket;
    SpanRecord rec;
  };
  std::vector<Numbered> taken;
  taken.reserve(std::min<std::uint64_t>(published(), capacity_));
  for (std::size_t i = 0; i < capacity_; ++i) {
    // Seqlock reader (I2/I3): acquire-load seq, raw-copy the record (safe
    // even if torn, I4), acquire-load seq again; any change means the copy
    // may be torn and is discarded.  An empty slot's bytes are never read
    // (I6).
    const std::uint64_t before = seq_[i].load(std::memory_order_acquire);
    if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
    SpanRecord copy;
    std::memcpy(&copy, records_.get() + i * sizeof(SpanRecord),
                sizeof(SpanRecord));
    const std::uint64_t after = seq_[i].load(std::memory_order_acquire);
    if (after != before) continue;  // overwritten while copying
    taken.push_back({before / 2 - 1, copy});
  }
  std::sort(taken.begin(), taken.end(),
            [](const Numbered& a, const Numbered& b) {
              return a.ticket < b.ticket;
            });
  std::vector<SpanRecord> out;
  out.reserve(taken.size());
  for (auto& n : taken) out.push_back(n.rec);
  return out;
}

std::uint64_t TraceBuffer::dropped() const noexcept {
  const std::uint64_t total = published();
  return total > capacity_ ? total - capacity_ : 0;
}

void TraceBuffer::clear() noexcept {
  // Single-threaded by contract (I5): relaxed resets, one release on the
  // cursor so a later publisher starting fresh sees the zeroed slots.
  for (std::size_t i = 0; i < capacity_; ++i) {
    seq_[i].store(0, std::memory_order_relaxed);
  }
  cursor_.store(0, std::memory_order_release);
}
// catalyst-lint: end-protocol(seqlock)

std::uint32_t this_thread_id() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer::Tracer() : clock_(&real_clock_), buffer_(TraceBuffer::kDefaultCapacity) {
  const char* env = std::getenv("CATALYST_TRACE");
  if (env != nullptr && env[0] != '\0' && env[0] != '0') {
    enabled_.store(true, std::memory_order_relaxed);
  }
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

// Clock swap protocol: the clock pointer is published with release and
// consumed with acquire so a thread that observes the new clock also
// observes its fully-constructed state.  Swappers must keep the old clock
// alive until no publisher can still be timing against it (tests swap only
// while quiescent).
// catalyst-lint: begin-protocol(clock-swap)
void Tracer::set_clock(faults::Clock* clock) noexcept {
  clock_.store(clock != nullptr ? clock : &real_clock_,
               std::memory_order_release);
}

std::int64_t Tracer::now_ns() {
  return clock_.load(std::memory_order_acquire)->now().count();
}
// catalyst-lint: end-protocol(clock-swap)

namespace detail {

void append_arg(char* args, std::size_t capacity, const char* key,
                const char* value) noexcept {
  const std::size_t used = std::strlen(args);
  if (used >= capacity) return;
  std::snprintf(args + used, capacity - used, "%s=%s;", key, value);
}

}  // namespace detail

}  // namespace catalyst::obs
