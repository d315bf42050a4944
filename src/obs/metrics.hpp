// catalyst/obs -- process-wide metrics registry: named monotonic counters,
// point-in-time gauges, and fixed-bucket (power-of-two) histograms.
//
// Instrumented code reports through the free functions obs::count() /
// obs::observe() / obs::gauge() (declared in obs/trace.hpp), which are
// no-ops unless tracing is enabled.  Exporters and the CLI's --stats read
// an immutable MetricsSnapshot; live scrapers (the catalystd STATS frame)
// diff two snapshots with MetricsSnapshot::delta_since for rate
// computation.
//
// Updates take a mutex: every call site is a per-stage / per-retry event,
// not a per-reading hot path, so contention is negligible and the registry
// stays trivially correct at any thread count.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sync/annotations.hpp"
#include "sync/mutex.hpp"

namespace catalyst::obs {

/// Power-of-two histogram geometry: bucket 0 holds v <= 0; bucket i >= 1
/// holds 2^(i-1-kBucketBias) < v <= 2^(i-kBucketBias).  With the bias below
/// the buckets span ~1e-6 .. ~4e12, covering RNMSE-scale ratios through
/// hour-scale nanosecond timings.
inline constexpr std::size_t kNumBuckets = 64;
inline constexpr int kBucketBias = 20;

/// Bucket index for a value (pure function; exposed for tests/exporters).
std::size_t histogram_bucket(double value) noexcept;
/// Inclusive upper bound of bucket i (+inf for the last, 0 for bucket 0).
double histogram_upper_bound(std::size_t i) noexcept;

struct HistogramSnapshot {
  std::string name;
  std::uint64_t total_count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::array<std::uint64_t, kNumBuckets> buckets{};
};

struct MetricsSnapshot {
  /// Sorted by name (deterministic export order).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Gauges are last-write point-in-time values (queue depth, inflight
  /// sessions); unlike counters they may go down, hence signed.
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by name; 0 when absent.
  std::uint64_t counter(std::string_view name) const noexcept;
  /// Gauge value by name; 0 when absent.
  std::int64_t gauge(std::string_view name) const noexcept;
  const HistogramSnapshot* histogram(std::string_view name) const noexcept;

  /// Activity between `earlier` and this snapshot: counters and histogram
  /// counts/sums/buckets are subtracted (clamped at zero, so a registry
  /// reset between the two polls degrades to "current values" instead of
  /// wrapping); gauges are point-in-time and carried over unchanged, as
  /// are histogram min/max (extrema cannot be un-observed).  Series absent
  /// from `earlier` appear whole.
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;
};

/// The process-wide registry behind obs::count()/obs::observe().
class Metrics {
 public:
  static Metrics& instance();

  void add(std::string_view counter, std::uint64_t delta)
      CATALYST_EXCLUDES(mutex_);
  void observe(std::string_view histogram, double value)
      CATALYST_EXCLUDES(mutex_);
  /// Sets a gauge to an absolute value (last write wins).
  void set_gauge(std::string_view gauge, std::int64_t value)
      CATALYST_EXCLUDES(mutex_);

  MetricsSnapshot snapshot() const CATALYST_EXCLUDES(mutex_);
  void reset() CATALYST_EXCLUDES(mutex_);

 private:
  struct Histogram {
    std::uint64_t total_count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::array<std::uint64_t, kNumBuckets> buckets{};
  };

  /// Upserts the named histogram (locked-context helper for observe()).
  Histogram& histogram_locked(std::string_view name)
      CATALYST_REQUIRES(mutex_);

  mutable sync::Mutex mutex_{"obs.metrics"};
  std::map<std::string, std::uint64_t, std::less<>> counters_
      CATALYST_GUARDED_BY(mutex_);
  std::map<std::string, std::int64_t, std::less<>> gauges_
      CATALYST_GUARDED_BY(mutex_);
  std::map<std::string, Histogram, std::less<>> histograms_
      CATALYST_GUARDED_BY(mutex_);
};

}  // namespace catalyst::obs
