#include "core/io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace catalyst::core {

namespace {

constexpr const char* kFormatVersion = "catalyst-measurements-v1";
constexpr const char* kFormatVersionV2 = "catalyst-measurements-v2";

}  // namespace

std::string bounded_excerpt(const std::string& text, std::size_t max_bytes) {
  const std::size_t keep = text.size() < max_bytes ? text.size() : max_bytes;
  std::string out;
  out.reserve(keep + 24);
  for (std::size_t i = 0; i < keep; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    out.push_back((c < 0x20 || c == 0x7f) ? '.' : static_cast<char>(c));
  }
  if (text.size() > max_bytes) {
    out += "...(" + std::to_string(text.size()) + " bytes)";
  }
  return out;
}

MeasurementArchive make_archive(const pmu::Machine& machine,
                                const cat::Benchmark& benchmark,
                                const PipelineResult& result) {
  MeasurementArchive a;
  a.format_version = kFormatVersion;
  a.machine_name = machine.name();
  a.benchmark_name = benchmark.name;
  for (const auto& slot : benchmark.slots) a.slot_names.push_back(slot.name);
  a.basis_labels = benchmark.basis.labels;
  a.expectation = benchmark.basis.e;
  a.event_names = result.all_event_names;
  a.measurements = result.measurements;
  a.quarantined = result.quarantined_events;
  a.collection_report = result.collection;
  a.collection_mode = result.collection_mode;
  a.sample_trace = result.sample_trace;
  if (!a.quarantined.empty() || a.collection_report.has_value() ||
      a.collection_mode != vpapi::CollectionMode::counting) {
    a.format_version = kFormatVersionV2;
  }
  return a;
}

std::string save_archive(const MeasurementArchive& archive, int indent) {
  const bool v2 = !archive.quarantined.empty() ||
                  archive.collection_report.has_value() ||
                  archive.collection_mode != vpapi::CollectionMode::counting ||
                  archive.sample_trace.has_value();
  json::Value root = json::Value::object();
  root["format"] = !archive.format_version.empty() ? archive.format_version
                   : v2                            ? kFormatVersionV2
                                                   : kFormatVersion;
  root["machine"] = archive.machine_name;
  root["benchmark"] = archive.benchmark_name;

  json::Value slots = json::Value::array();
  for (const auto& s : archive.slot_names) slots.push_back(s);
  root["slots"] = std::move(slots);

  json::Value basis = json::Value::object();
  json::Value labels = json::Value::array();
  for (const auto& l : archive.basis_labels) labels.push_back(l);
  basis["labels"] = std::move(labels);
  json::Value e_rows = json::Value::array();
  for (linalg::index_t r = 0; r < archive.expectation.rows(); ++r) {
    json::Value row = json::Value::array();
    for (linalg::index_t c = 0; c < archive.expectation.cols(); ++c) {
      row.push_back(archive.expectation(r, c));
    }
    e_rows.push_back(std::move(row));
  }
  basis["e"] = std::move(e_rows);
  root["basis"] = std::move(basis);

  json::Value events = json::Value::array();
  for (const auto& n : archive.event_names) events.push_back(n);
  root["events"] = std::move(events);

  json::Value meas = json::Value::array();
  const vpapi::Measurements& m = archive.measurements;
  for (std::size_t e = 0; e < m.size(); ++e) {
    json::Value reps = json::Value::array();
    for (std::size_t r = 0; r < m.repetitions(); ++r) {
      json::Value vec = json::Value::array();
      for (const double v : m.row(e, r)) vec.push_back(v);
      reps.push_back(std::move(vec));
    }
    meas.push_back(std::move(reps));
  }
  root["measurements"] = std::move(meas);

  if (v2) {
    json::Value q = json::Value::array();
    for (const auto& n : archive.quarantined) q.push_back(n);
    root["quarantined"] = std::move(q);
    if (archive.collection_report.has_value()) {
      root["collection_report"] =
          collection_report_to_json(*archive.collection_report);
    }
    // The mode knob and trace appear only for non-counting campaigns:
    // default-mode archives keep the exact v1 byte layout.
    if (archive.collection_mode != vpapi::CollectionMode::counting) {
      root["collection_mode"] =
          std::string(vpapi::to_string(archive.collection_mode));
    }
    if (archive.sample_trace.has_value()) {
      root["sample_trace"] = sample_trace_to_json(*archive.sample_trace);
    }
  }

  return json::dump(root, indent);
}

namespace {

MeasurementArchive load_archive_impl(const std::string& json_text) {
  const json::Value root = json::parse(json_text);
  MeasurementArchive a;
  a.format_version = root.at("format").as_string();
  if (a.format_version != kFormatVersion &&
      a.format_version != kFormatVersionV2) {
    throw std::invalid_argument("load_archive: unsupported format '" +
                                bounded_excerpt(a.format_version) + "'");
  }
  a.machine_name = root.at("machine").as_string();
  a.benchmark_name = root.at("benchmark").as_string();
  for (const auto& s : root.at("slots").as_array()) {
    a.slot_names.push_back(s.as_string());
  }
  const auto& basis = root.at("basis");
  for (const auto& l : basis.at("labels").as_array()) {
    a.basis_labels.push_back(l.as_string());
  }
  const auto& e_rows = basis.at("e").as_array();
  const auto n_rows = static_cast<linalg::index_t>(e_rows.size());
  const auto n_cols = static_cast<linalg::index_t>(a.basis_labels.size());
  a.expectation = linalg::Matrix(n_rows, n_cols);
  for (linalg::index_t r = 0; r < n_rows; ++r) {
    const auto& row = e_rows[static_cast<std::size_t>(r)].as_array();
    if (static_cast<linalg::index_t>(row.size()) != n_cols) {
      throw std::invalid_argument("load_archive: ragged basis matrix");
    }
    for (linalg::index_t c = 0; c < n_cols; ++c) {
      a.expectation(r, c) = row[static_cast<std::size_t>(c)].as_number();
    }
  }
  if (n_rows != static_cast<linalg::index_t>(a.slot_names.size())) {
    throw std::invalid_argument("load_archive: basis rows != slot count");
  }
  for (const auto& n : root.at("events").as_array()) {
    a.event_names.push_back(n.as_string());
  }
  const auto& meas = root.at("measurements").as_array();
  if (meas.size() != a.event_names.size()) {
    throw std::invalid_argument(
        "load_archive: measurements/events count mismatch");
  }
  const std::size_t n_reps = meas.empty() ? 0 : meas[0].as_array().size();
  std::vector<double> values;
  values.reserve(meas.size() * n_reps * a.slot_names.size());
  for (const auto& per_event : meas) {
    const auto& reps = per_event.as_array();
    if (reps.size() != n_reps || reps.empty()) {
      throw std::invalid_argument(
          "load_archive: inconsistent repetition counts");
    }
    for (const auto& per_rep : reps) {
      const auto& vec = per_rep.as_array();
      if (vec.size() != a.slot_names.size()) {
        throw std::invalid_argument(
            "load_archive: measurement vector length != slot count");
      }
      for (const auto& v : vec) values.push_back(v.as_number());
    }
  }
  a.measurements = vpapi::Measurements(meas.size(), n_reps,
                                       a.slot_names.size(), std::move(values));
  if (root.contains("quarantined")) {
    for (const auto& n : root.at("quarantined").as_array()) {
      a.quarantined.push_back(n.as_string());
    }
  }
  if (root.contains("collection_report")) {
    a.collection_report =
        collection_report_from_json(root.at("collection_report"));
  }
  if (root.contains("collection_mode")) {
    a.collection_mode = vpapi::collection_mode_from_string(
        root.at("collection_mode").as_string());
  }
  if (root.contains("sample_trace")) {
    a.sample_trace = sample_trace_from_json(root.at("sample_trace"));
  }
  return a;
}

}  // namespace

MeasurementArchive load_archive(const std::string& json_text) {
  try {
    return load_archive_impl(json_text);
  } catch (const ArchiveError&) {
    throw;
  } catch (const json::JsonError& e) {
    // Truncated/corrupt input: surface the byte offset as a typed error so
    // callers (CLI, resume logic) can distinguish "damaged file" from
    // "wrong shape" without string-matching.
    throw ArchiveError(std::string("load_archive: ") + e.what(), e.offset());
  }
}

PipelineResult analyze_archive(MeasurementArchive archive,
                               const std::vector<MetricSignature>& signatures,
                               const PipelineOptions& options) {
  return analyze_measurements(archive.expectation, archive.event_names,
                              std::move(archive.measurements), signatures,
                              options);
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_text_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << contents;
  if (!out) throw std::runtime_error("write failed: " + path);
}

void write_text_file_atomic(const std::string& path,
                            const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for writing: " + tmp);
    out << contents;
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + tmp);
  }
  // rename(2) within one directory is atomic on POSIX: a crash between the
  // write and the rename leaves only the .tmp file, never a torn `path`.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("atomic rename failed: " + tmp + " -> " + path);
  }
}

json::Value collection_report_to_json(const vpapi::CollectionReport& report) {
  json::Value v = json::Value::object();
  v["total_retries"] = report.total_retries;
  v["start_retries"] = report.start_retries;
  json::Value q = json::Value::array();
  for (const auto& n : report.quarantined) q.push_back(n);
  v["quarantined"] = std::move(q);
  json::Value events = json::Value::array();
  for (const auto& e : report.events) {
    // Untouched events are implicit (disposition "clean", all counts zero):
    // storing only the eventful rows keeps reports/checkpoints small.
    if (e.disposition == vpapi::EventDisposition::clean &&
        e.read_attempts == 0) {
      continue;
    }
    json::Value je = json::Value::object();
    je["name"] = e.name;
    je["read_attempts"] = e.read_attempts;
    je["retries"] = e.retries;
    je["wraps_corrected"] = e.wraps_corrected;
    je["disposition"] = vpapi::to_string(e.disposition);
    json::Value jf = json::Value::array();
    for (const std::uint64_t f : e.faults) jf.push_back(f);
    je["faults"] = std::move(jf);
    events.push_back(std::move(je));
  }
  v["events"] = std::move(events);
  return v;
}

vpapi::CollectionReport collection_report_from_json(const json::Value& v) {
  vpapi::CollectionReport report;
  report.total_retries = v.at("total_retries").as_u64();
  report.start_retries = v.at("start_retries").as_u64();
  for (const auto& n : v.at("quarantined").as_array()) {
    report.quarantined.push_back(n.as_string());
  }
  for (const auto& je : v.at("events").as_array()) {
    vpapi::EventReport e;
    e.name = je.at("name").as_string();
    e.read_attempts = je.at("read_attempts").as_u64();
    e.retries = je.at("retries").as_u64();
    e.wraps_corrected = je.at("wraps_corrected").as_u64();
    const std::string d = je.at("disposition").as_string();
    e.disposition = d == "quarantined" ? vpapi::EventDisposition::quarantined
                    : d == "recovered" ? vpapi::EventDisposition::recovered
                                       : vpapi::EventDisposition::clean;
    const auto& jf = je.at("faults").as_array();
    for (std::size_t i = 0; i < jf.size() && i < e.faults.size(); ++i) {
      e.faults[i] = jf[i].as_u64();
    }
    report.events.push_back(std::move(e));
  }
  return report;
}

json::Value sample_trace_to_json(const vpapi::SampleTrace& trace) {
  json::Value v = json::Value::object();
  v["mode"] = std::string(vpapi::to_string(trace.mode));
  json::Value sched = json::Value::object();
  sched["kernel_span_ns"] = trace.schedule.kernel_span_ns;
  sched["period_ns"] = trace.schedule.period_ns;
  sched["short_period_ns"] = trace.schedule.short_period_ns;
  sched["dither"] = trace.schedule.dither;
  v["schedule"] = std::move(sched);
  v["kernels"] = trace.kernels;
  json::Value runs = json::Value::array();
  for (const auto& run : trace.runs) {
    json::Value jr = json::Value::object();
    jr["repetition"] = run.repetition;
    jr["run_id"] = run.run_id;
    json::Value evs = json::Value::array();
    for (const auto& n : run.events) evs.push_back(n);
    jr["events"] = std::move(evs);
    json::Value samples = json::Value::array();
    for (const auto& s : run.samples) {
      json::Value js = json::Value::object();
      js["t"] = s.t_ns;
      json::Value vals = json::Value::array();
      for (const double x : s.values) vals.push_back(x);
      js["values"] = std::move(vals);
      samples.push_back(std::move(js));
    }
    jr["samples"] = std::move(samples);
    runs.push_back(std::move(jr));
  }
  v["runs"] = std::move(runs);
  return v;
}

vpapi::SampleTrace sample_trace_from_json(const json::Value& v) {
  vpapi::SampleTrace trace;
  trace.mode = vpapi::collection_mode_from_string(v.at("mode").as_string());
  const auto& sched = v.at("schedule");
  trace.schedule.kernel_span_ns = sched.at("kernel_span_ns").as_u64();
  trace.schedule.period_ns = sched.at("period_ns").as_u64();
  trace.schedule.short_period_ns = sched.at("short_period_ns").as_u64();
  trace.schedule.dither = sched.at("dither").as_bool();
  trace.schedule.validate();
  trace.kernels = v.at("kernels").as_u64();
  for (const auto& jr : v.at("runs").as_array()) {
    vpapi::RunTrace run;
    run.repetition = jr.at("repetition").as_u64();
    run.run_id = jr.at("run_id").as_u64();
    for (const auto& n : jr.at("events").as_array()) {
      run.events.push_back(n.as_string());
    }
    for (const auto& js : jr.at("samples").as_array()) {
      vpapi::SamplePoint s;
      s.t_ns = js.at("t").as_u64();
      const auto& vals = js.at("values").as_array();
      if (vals.size() != run.events.size()) {
        throw std::invalid_argument(
            "sample_trace: sample width != run event count");
      }
      for (const auto& x : vals) s.values.push_back(x.as_number());
      run.samples.push_back(std::move(s));
    }
    trace.runs.push_back(std::move(run));
  }
  return trace;
}

}  // namespace catalyst::core
