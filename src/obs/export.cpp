#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "json/json.hpp"
#include "pmu/measure.hpp"

namespace catalyst::obs {
namespace {

/// Calls fn(key, value) for each "k=v" pair of a packed "k=v;k=v;" args
/// string; a pair without '=' is skipped.
template <typename Fn>
void for_each_packed_arg(const char* packed, Fn&& fn) {
  std::string_view rest(packed);
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    const std::string_view pair = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos) fn(pair.substr(0, eq), pair.substr(eq + 1));
  }
}

/// JSON has no inf/nan: a non-finite double is written as null.
json::Value finite_or_null(double v) {
  return std::isfinite(v) ? json::Value(v) : json::Value(nullptr);
}

/// One packed span arg value: booleans and numbers bare, integers exact
/// (a trace id past 2^53 must not round), anything else a string.
json::Value arg_value(std::string_view val) {
  if (val == "true" || val == "false") return json::Value(val == "true");
  const char* first = val.data();
  const char* last = val.data() + val.size();
  std::uint64_t u = 0;
  if (auto [p, ec] = std::from_chars(first, last, u);
      ec == std::errc{} && p == last) {
    return json::Value(u);
  }
  std::int64_t i = 0;
  if (auto [p, ec] = std::from_chars(first, last, i);
      ec == std::errc{} && p == last) {
    return json::Value(i);
  }
  const std::string text(val);
  char* end = nullptr;
  const double num = std::strtod(text.c_str(), &end);
  if (!text.empty() && *end == '\0' && std::isfinite(num)) return num;
  return text;
}

/// Splits a packed "k=v;k=v;" args string into a JSON object.
json::Value args_to_json(const char* packed) {
  json::Value out = json::Value::object();
  for_each_packed_arg(packed, [&](std::string_view key, std::string_view val) {
    if (!key.empty()) out[std::string(key)] = arg_value(val);
  });
  return out;
}

json::Value histogram_summary_json(const HistogramSnapshot& h) {
  json::Value out = json::Value::object();
  out["count"] = h.total_count;
  out["sum"] = finite_or_null(h.sum);
  out["min"] = finite_or_null(h.min);
  out["max"] = finite_or_null(h.max);
  out["mean"] = finite_or_null(
      h.total_count > 0 ? h.sum / static_cast<double>(h.total_count) : 0.0);
  return out;
}

json::Value counters_json(const MetricsSnapshot& metrics) {
  json::Value out = json::Value::object();
  for (const auto& [name, value] : metrics.counters) out[name] = value;
  return out;
}

json::Value histogram_summaries_json(const MetricsSnapshot& metrics) {
  json::Value out = json::Value::object();
  for (const HistogramSnapshot& h : metrics.histograms) {
    out[h.name] = histogram_summary_json(h);
  }
  return out;
}

}  // namespace

std::string config_hash(const std::string& config) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, pmu::fnv1a(config));
  return buf;
}

std::string to_chrome_trace(const std::vector<SpanRecord>& spans,
                            const MetricsSnapshot& metrics) {
  // Normalize so the earliest span starts at ts=0; Chrome/Perfetto want
  // microseconds and cope badly with huge absolute steady-clock epochs.
  std::int64_t t0 = 0;
  bool have_t0 = false;
  for (const SpanRecord& s : spans) {
    if (!have_t0 || s.start_ns < t0) {
      t0 = s.start_ns;
      have_t0 = true;
    }
  }

  json::Value events = json::Value::array();
  for (const SpanRecord& s : spans) {
    const std::int64_t dur_ns = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns
                                                       : 0;
    json::Value ev = json::Value::object();
    ev["ph"] = "X";
    ev["pid"] = 1;
    ev["tid"] = s.thread_id;
    ev["name"] = s.name;
    ev["ts"] = static_cast<double>(s.start_ns - t0) / 1000.0;
    ev["dur"] = static_cast<double>(dur_ns) / 1000.0;
    ev["args"] = args_to_json(s.args);
    events.push_back(std::move(ev));
  }
  json::Value doc = json::Value::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  doc["otherData"]["counters"] = counters_json(metrics);
  doc["otherData"]["histograms"] = histogram_summaries_json(metrics);
  return json::dump(doc) + "\n";
}

std::string to_run_manifest(const RunManifest& m) {
  json::Value doc = json::Value::object();
  doc["format"] = kRunManifestFormat;
  doc["tool"] = m.tool;
  doc["category"] = m.category;
  doc["machine"] = m.machine;
  doc["git_sha"] = m.git_sha;
  doc["config"] = m.config;
  doc["config_hash"] = m.config_hash;
  doc["tau"] = finite_or_null(m.tau);
  doc["alpha"] = finite_or_null(m.alpha);
  doc["repetitions"] = m.repetitions;
  json::Value stages = json::Value::array();
  for (const StageTiming& st : m.stages) {
    json::Value stage = json::Value::object();
    stage["name"] = st.name;
    stage["wall_ns"] = st.wall_ns;
    stages.push_back(std::move(stage));
  }
  doc["stages"] = std::move(stages);
  json::Value funnel = json::Value::object();
  for (const auto& [name, value] : m.funnel) funnel[name] = value;
  doc["funnel"] = std::move(funnel);
  doc["counters"] = counters_json(m.metrics);
  doc["histograms"] = histogram_summaries_json(m.metrics);
  doc["spans_published"] = m.spans_published;
  doc["spans_dropped"] = m.spans_dropped;
  return json::dump(doc, 2) + "\n";
}

std::string to_metrics_json(const MetricsSnapshot& metrics) {
  json::Value doc = json::Value::object();
  doc["format"] = kMetricsFormat;
  doc["counters"] = counters_json(metrics);
  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : metrics.gauges) gauges[name] = value;
  doc["gauges"] = std::move(gauges);
  json::Value hists = json::Value::array();
  for (const HistogramSnapshot& h : metrics.histograms) {
    json::Value entry = json::Value::object();
    entry["name"] = h.name;
    entry["count"] = h.total_count;
    entry["sum"] = finite_or_null(h.sum);
    entry["min"] = finite_or_null(h.min);
    entry["max"] = finite_or_null(h.max);
    entry["num_buckets"] = kNumBuckets;
    entry["bucket_bias"] = kBucketBias;
    json::Value buckets = json::Value::array();
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      json::Value pair = json::Value::array();
      pair.push_back(i);
      pair.push_back(h.buckets[i]);
      buckets.push_back(std::move(pair));
    }
    entry["buckets"] = std::move(buckets);
    hists.push_back(std::move(entry));
  }
  doc["histograms"] = std::move(hists);
  return json::dump(doc, 2) + "\n";
}

std::string metrics_compiled_out_json() {
  json::Value doc = json::Value::object();
  doc["format"] = kMetricsFormat;
  doc["compiled_out"] = true;
  doc["counters"] = json::Value::object();
  doc["gauges"] = json::Value::object();
  doc["histograms"] = json::Value::array();
  return json::dump(doc, 2) + "\n";
}

std::string trace_fragment_json(const std::vector<SpanRecord>& spans,
                                std::uint64_t trace_id,
                                std::size_t* matched) {
  // Whole-pair match: a substring search would let trace id 12 match 123.
  const std::string id = std::to_string(trace_id);
  std::vector<SpanRecord> fragment;
  for (const SpanRecord& s : spans) {
    bool stamped = false;
    for_each_packed_arg(s.args, [&](std::string_view key,
                                    std::string_view val) {
      stamped = stamped || (key == "trace" && val == id);
    });
    if (stamped) fragment.push_back(s);
  }
  if (matched != nullptr) *matched = fragment.size();
  return to_chrome_trace(fragment, MetricsSnapshot{});
}

std::vector<StageTiming> aggregate_stage_timings(
    const std::vector<SpanRecord>& spans) {
  constexpr std::string_view kPrefix = "stage.";
  struct Agg {
    std::int64_t wall_ns = 0;
    std::int64_t first_start = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& s : spans) {
    const std::string_view name(s.name);
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    const std::string stage(name.substr(kPrefix.size()));
    auto [it, inserted] = by_name.try_emplace(stage);
    const std::int64_t dur = s.end_ns >= s.start_ns ? s.end_ns - s.start_ns : 0;
    if (inserted || s.start_ns < it->second.first_start) {
      it->second.first_start = s.start_ns;
    }
    it->second.wall_ns += dur;
  }
  std::vector<std::pair<std::string, Agg>> ordered(by_name.begin(),
                                                   by_name.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              if (a.second.first_start != b.second.first_start) {
                return a.second.first_start < b.second.first_start;
              }
              return a.first < b.first;
            });
  std::vector<StageTiming> out;
  out.reserve(ordered.size());
  for (auto& [name, agg] : ordered) out.push_back({name, agg.wall_ns});
  return out;
}

std::string format_stats(const MetricsSnapshot& metrics,
                         const std::vector<StageTiming>& stages,
                         std::uint64_t spans_published,
                         std::uint64_t spans_dropped) {
  std::string out = "== catalyst::obs stats ==\n";
  char buf[256];

  out += "stage timings:\n";
  if (stages.empty()) out += "  (none recorded)\n";
  std::int64_t total_ns = 0;
  for (const StageTiming& st : stages) total_ns += st.wall_ns;
  for (const StageTiming& st : stages) {
    const double ms = static_cast<double>(st.wall_ns) / 1e6;
    const double pct = total_ns > 0 ? 100.0 * static_cast<double>(st.wall_ns) /
                                          static_cast<double>(total_ns)
                                    : 0.0;
    std::snprintf(buf, sizeof buf, "  %-20s %12.3f ms  %5.1f%%\n",
                  st.name.c_str(), ms, pct);
    out += buf;
  }

  out += "counters:\n";
  if (metrics.counters.empty()) out += "  (none)\n";
  for (const auto& [name, value] : metrics.counters) {
    std::snprintf(buf, sizeof buf, "  %-32s %" PRIu64 "\n", name.c_str(),
                  value);
    out += buf;
  }

  out += "histograms:\n";
  if (metrics.histograms.empty()) out += "  (none)\n";
  for (const HistogramSnapshot& h : metrics.histograms) {
    const double mean =
        h.total_count > 0 ? h.sum / static_cast<double>(h.total_count) : 0.0;
    std::snprintf(buf, sizeof buf,
                  "  %-32s count=%" PRIu64 " mean=%.6g min=%.6g max=%.6g\n",
                  h.name.c_str(), h.total_count, mean, h.min, h.max);
    out += buf;
  }

  std::snprintf(buf, sizeof buf,
                "spans: published=%" PRIu64 " dropped=%" PRIu64 "\n",
                spans_published, spans_dropped);
  out += buf;
  return out;
}

}  // namespace catalyst::obs
