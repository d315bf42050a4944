#include "obs/flight.hpp"

#include <utility>

#include "json/json.hpp"

namespace catalyst::obs {

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::record(FlightRecord rec) {
  const sync::LockGuard lock(mutex_);
  const std::size_t slot = static_cast<std::size_t>(recorded_ % capacity_);
  if (slot < ring_.size()) {
    ring_[slot] = std::move(rec);
  } else {
    ring_.push_back(std::move(rec));
  }
  ++recorded_;
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  const sync::LockGuard lock(mutex_);
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  // Oldest surviving summary is recorded_ - ring_.size() (F3); walk the
  // ring from there in record() order.
  const std::uint64_t first = recorded_ - ring_.size();
  for (std::uint64_t n = first; n < recorded_; ++n) {
    out.push_back(ring_[static_cast<std::size_t>(n % capacity_)]);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  const sync::LockGuard lock(mutex_);
  return recorded_;
}

void FlightRecorder::clear() {
  const sync::LockGuard lock(mutex_);
  ring_.clear();
  recorded_ = 0;
}

std::string to_flight_json(const std::vector<FlightRecord>& records,
                           std::uint64_t recorded, std::size_t capacity) {
  json::Value doc = json::Value::object();
  doc["format"] = kFlightRecorderFormat;
  doc["capacity"] = capacity;
  doc["recorded"] = recorded;
  json::Value list = json::Value::array();
  for (const FlightRecord& r : records) {
    json::Value rec = json::Value::object();
    rec["request_id"] = r.request_id;
    rec["session_id"] = r.session_id;
    rec["trace_id"] = r.trace_id;
    rec["bytes"] = r.bytes;
    rec["category"] = r.category;
    rec["verdict"] = r.verdict;
    rec["enqueued_ns"] = r.enqueued_ns;
    rec["started_ns"] = r.started_ns;
    rec["finished_ns"] = r.finished_ns;
    rec["faults"] = r.faults;
    rec["retries"] = r.retries;
    list.push_back(std::move(rec));
  }
  doc["records"] = std::move(list);
  return json::dump(doc, 2) + "\n";
}

}  // namespace catalyst::obs
