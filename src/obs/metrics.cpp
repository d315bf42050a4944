#include "obs/metrics.hpp"

#include <cmath>
#include <limits>

#include "obs/trace.hpp"

namespace catalyst::obs {

std::size_t histogram_bucket(double value) noexcept {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN land in the zero bucket
  // ceil, not floor+1: an exact power of two is its bucket's (inclusive)
  // upper bound, so histogram_bucket(histogram_upper_bound(i)) == i.
  const int exp2 = static_cast<int>(std::ceil(std::log2(value)));
  const int idx = exp2 + kBucketBias;
  if (idx < 1) return 1;
  if (idx >= static_cast<int>(kNumBuckets)) return kNumBuckets - 1;
  return static_cast<std::size_t>(idx);
}

double histogram_upper_bound(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  if (i >= kNumBuckets - 1) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(i) - kBucketBias);
}

std::uint64_t MetricsSnapshot::counter(std::string_view name) const noexcept {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::int64_t MetricsSnapshot::gauge(std::string_view name) const noexcept {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  out.counters.reserve(counters.size());
  for (const auto& [name, now] : counters) {
    const std::uint64_t before = earlier.counter(name);
    out.counters.emplace_back(name, now >= before ? now - before : now);
  }
  out.gauges = gauges;  // point-in-time: the later poll is the answer
  out.histograms.reserve(histograms.size());
  for (const HistogramSnapshot& h : histograms) {
    HistogramSnapshot d = h;
    if (const HistogramSnapshot* before = earlier.histogram(h.name)) {
      if (h.total_count >= before->total_count) {
        d.total_count = h.total_count - before->total_count;
        d.sum = h.sum - before->sum;
        for (std::size_t i = 0; i < kNumBuckets; ++i) {
          d.buckets[i] = h.buckets[i] >= before->buckets[i]
                             ? h.buckets[i] - before->buckets[i]
                             : h.buckets[i];
        }
      }
    }
    out.histograms.push_back(std::move(d));
  }
  return out;
}

Metrics& Metrics::instance() {
  static Metrics metrics;
  return metrics;
}

void Metrics::add(std::string_view counter, std::uint64_t delta) {
  const sync::LockGuard lock(mutex_);
  const auto it = counters_.find(counter);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(counter), delta);
  }
}

void Metrics::set_gauge(std::string_view gauge, std::int64_t value) {
  const sync::LockGuard lock(mutex_);
  const auto it = gauges_.find(gauge);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(gauge), value);
  }
}

Metrics::Histogram& Metrics::histogram_locked(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

void Metrics::observe(std::string_view histogram, double value) {
  const sync::LockGuard lock(mutex_);
  Histogram& h = histogram_locked(histogram);
  if (h.total_count == 0 || value < h.min) h.min = value;
  if (h.total_count == 0 || value > h.max) h.max = value;
  ++h.total_count;
  h.sum += value;
  ++h.buckets[histogram_bucket(value)];
}

MetricsSnapshot Metrics::snapshot() const {
  const sync::LockGuard lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, v] : counters_) snap.counters.emplace_back(name, v);
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, v] : gauges_) snap.gauges.emplace_back(name, v);
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.total_count = h.total_count;
    hs.sum = h.sum;
    hs.min = h.min;
    hs.max = h.max;
    hs.buckets = h.buckets;
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Metrics::reset() {
  const sync::LockGuard lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void count(std::string_view counter, std::uint64_t delta) {
  if (!enabled()) return;
  Metrics::instance().add(counter, delta);
}

void observe(std::string_view histogram, double value) {
  if (!enabled()) return;
  Metrics::instance().observe(histogram, value);
}

void gauge(std::string_view gauge_name, std::int64_t value) {
  if (!enabled()) return;
  Metrics::instance().set_gauge(gauge_name, value);
}

}  // namespace catalyst::obs
