// bench/service_load -- throughput + latency proof for the catalystd stack.
//
// Drives the full in-process service stack -- wire codec -> Session state
// machine -> ServiceCore bounded queue -> analysis engine -- in a closed
// loop of client lanes and gates on a sustained analyses/sec floor
// (default 1000/s on Saphira-sized branch submissions).  Latency
// percentiles are NOT measured by this harness: they are scraped back
// over the wire with a STATS frame (catalyst-wire v2) and read from the
// returned "service.request_ns" histogram, so the numbers printed here
// went through the same codec path a production scraper uses --
// in-process registry reads would skip the exposition layer entirely.
//
// --json-out PATH writes a machine-readable result document for
// scripts/run_bench.sh to stamp with provenance as BENCH_service.json.
//
// Two drive modes:
//   --workers 0  (default on a single-core host): each client lane runs
//                queued work synchronously via ServiceCore::run_one() --
//                no poll spinning can steal cycles from the analysis.
//   --workers N  worker_loop() threads analyze while client lanes
//                submit/poll concurrently through their own Sessions.
//
// Exit status: 0 when the sustained rate meets --target (and every reply
// decoded cleanly), 1 otherwise.  --target 0 disables the gate.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "core/parallel.hpp"
#include "faults/faults.hpp"
#include "flags.hpp"
#include "json/json.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

using namespace catalyst;
namespace wire = catalyst::service::wire;

namespace {

struct Config {
  std::string category = "branch";
  std::string json_out;  ///< Machine-readable result doc; empty = none.
  int clients = 2;
  int requests = 200;  ///< Per client.
  int workers = 0;
  double target_rate = 1000.0;  ///< analyses/sec floor; 0 = report only.
};

constexpr flags::Flag kFlags[] = {
    {"category", flags::Kind::text, "C", ""},
    {"clients", flags::Kind::integer, "N", "", 1, INT32_MAX},
    {"requests", flags::Kind::integer, "M", "", 1, INT32_MAX},
    {"workers", flags::Kind::integer, "W", "", 0, 1024},
    {"target", flags::Kind::real, "RATE", ""},
    {"json-out", flags::Kind::text, "PATH", ""},
};

bool parse(int argc, char** argv, Config& cfg) {
  try {
    const flags::Args args = flags::parse(kFlags, "", argc, argv);
    cfg.category = args.text("category", cfg.category);
    cfg.json_out = args.text("json-out", cfg.json_out);
    cfg.clients = static_cast<int>(args.integer("clients", cfg.clients));
    cfg.requests = static_cast<int>(args.integer("requests", cfg.requests));
    cfg.workers = static_cast<int>(args.integer("workers", cfg.workers));
    cfg.target_rate = args.real("target", cfg.target_rate);
    return true;
  } catch (const flags::Error& e) {
    std::cerr << "service_load: " << e.what() << "\nflags:\n";
    flags::print_flags(std::cerr, kFlags);
    return false;
  }
}

/// Histogram quantile: upper bound of the bucket where the cumulative
/// count crosses q*total, clamped to the observed max (the last bucket's
/// bound is +inf).
double percentile(const obs::HistogramSnapshot& h, double q) {
  if (h.total_count == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(h.total_count)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cumulative += h.buckets[i];
    if (cumulative >= target && target > 0) {
      return std::min(obs::histogram_upper_bound(i), h.max);
    }
  }
  return h.max;
}

/// Scrapes the service.request_ns histogram THROUGH the wire: one more
/// Session, HELLO -> STATS -> STATS_OK, then json::parse of the
/// catalyst-metrics-v1 document.  This is the same path
/// `catalyst_client stats` exercises against a live daemon.
obs::HistogramSnapshot scrape_latency_over_wire(service::ServiceCore& core,
                                                faults::Clock& clock,
                                                service::SessionId id) {
  service::Session session(id, &core, service::Session::Limits{},
                           clock.now());
  wire::FrameDecoder decoder;
  const auto feed = [&](const std::string& bytes) {
    session.on_bytes(clock.now(), bytes.data(), bytes.size());
    if (session.has_output()) {
      const std::string out = session.take_output();
      decoder.feed(out.data(), out.size());
    }
    if (decoder.error()) {
      throw std::runtime_error("STATS reply failed to decode: " +
                               decoder.error()->message);
    }
  };
  feed(wire::encode_frame(wire::FrameType::hello, "service_load/stats"));
  if (!decoder.next()) throw std::runtime_error("no HELLO_OK before STATS");
  feed(wire::encode_frame(wire::FrameType::stats, ""));
  const std::optional<wire::Frame> reply = decoder.next();
  if (!reply || reply->type != wire::FrameType::stats_ok) {
    throw std::runtime_error("STATS did not answer with STATS_OK");
  }
  wire::Get cursor(reply->payload);
  const json::Value doc = json::parse(cursor.string());

  // A non-finite sum/min/max is written as null; it reads as 0 here.
  const auto number = [](const json::Value& v) {
    return v.is_null() ? 0.0 : v.as_number();
  };
  obs::HistogramSnapshot h;
  h.name = std::string(obs::names::kServiceRequestNs);
  for (const json::Value& entry : doc.at("histograms").as_array()) {
    if (entry.at("name").as_string() != h.name) continue;
    h.total_count = entry.at("count").as_u64();
    h.sum = number(entry.at("sum"));
    h.min = number(entry.at("min"));
    h.max = number(entry.at("max"));
    for (const json::Value& pair : entry.at("buckets").as_array()) {
      const std::uint64_t index = pair.at(0).as_u64();
      if (index < h.buckets.size()) h.buckets[index] = pair.at(1).as_u64();
    }
  }
  return h;
}

/// One closed-loop client lane speaking catalyst-wire-v1 to its Session.
/// Returns the number of RESULT frames collected; throws on any protocol
/// surprise (this is a proof harness -- a single bad reply fails the run).
std::size_t run_lane(service::ServiceCore& core, faults::Clock& clock,
                     service::SessionId id, const std::string& hello_frame,
                     const std::string& submit_frame, int requests,
                     bool synchronous) {
  service::Session session(id, &core, service::Session::Limits{},
                           clock.now());
  wire::FrameDecoder decoder;
  const auto feed = [&](const std::string& bytes) {
    session.on_bytes(clock.now(), bytes.data(), bytes.size());
    if (session.has_output()) {
      const std::string out = session.take_output();
      decoder.feed(out.data(), out.size());
    }
    if (decoder.error()) {
      throw std::runtime_error("reply stream failed to decode: " +
                               decoder.error()->message);
    }
  };
  const auto expect_reply = [&](const char* context) -> wire::Frame {
    const std::optional<wire::Frame> frame = decoder.next();
    if (!frame) {
      throw std::runtime_error(std::string("no reply after ") + context);
    }
    return *frame;
  };

  feed(hello_frame);
  if (expect_reply("HELLO").type != wire::FrameType::hello_ok) {
    throw std::runtime_error("handshake rejected");
  }

  std::size_t collected = 0;
  for (int r = 0; r < requests; ++r) {
    std::uint64_t request_id = 0;
    for (;;) {
      feed(submit_frame);
      const wire::Frame reply = expect_reply("SUBMIT");
      if (reply.type == wire::FrameType::accepted) {
        wire::Get cursor(reply.payload);
        request_id = cursor.u64();
        break;
      }
      if (reply.type == wire::FrameType::retry_after) {
        // Queue full: in synchronous mode drain it ourselves, otherwise
        // give the workers a beat.
        if (synchronous) {
          core.run_one();
        } else {
          std::this_thread::yield();
        }
        continue;
      }
      throw std::runtime_error(std::string("SUBMIT answered with ") +
                               wire::to_string(reply.type));
    }

    std::string poll_payload;
    wire::put_u64(poll_payload, request_id);
    const std::string poll_frame =
        wire::encode_frame(wire::FrameType::poll, poll_payload);
    for (;;) {
      if (synchronous) core.run_one();
      feed(poll_frame);
      const wire::Frame reply = expect_reply("POLL");
      if (reply.type == wire::FrameType::pending) {
        if (!synchronous) std::this_thread::yield();
        continue;
      }
      if (reply.type == wire::FrameType::result) {
        collected += 1;
        break;
      }
      throw std::runtime_error(std::string("POLL answered with ") +
                               wire::to_string(reply.type));
    }
  }
  return collected;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  if (!parse(argc, argv, cfg)) return 2;

  obs::Tracer::instance().enable();
  obs::Metrics::instance().reset();
  faults::RealClock clock;

  // One representative submission, built once: a full collection pipeline
  // for the category, flattened to the packed wire format every lane
  // replays.  (Encoding cost is paid per feed -- the frame bytes are
  // re-decoded and CRC-checked by the session every time, exactly as they
  // would be coming off a socket.)
  const auto setup = service::category_setup(cfg.category);
  const auto machine = setup ? service::machine_by_name(setup->default_machine)
                             : std::nullopt;
  if (!setup || !machine) {
    std::cerr << "service_load: unknown category '" << cfg.category << "'\n";
    return 2;
  }
  const core::PipelineResult pipeline =
      core::run_pipeline(*machine, setup->benchmark, setup->signatures);
  const core::MeasurementArchive archive =
      core::make_archive(*machine, setup->benchmark, pipeline);
  const wire::SubmitBody body =
      service::packed_submit_from_archive(archive, cfg.category);
  const std::string submit_frame =
      wire::encode_frame(wire::FrameType::submit, wire::encode_submit(body));
  const std::string hello_frame =
      wire::encode_frame(wire::FrameType::hello, "service_load");

  service::ServiceCore::Options core_options;
  core_options.workers = cfg.workers;
  core_options.queue_capacity = 64;
  core_options.clock = &clock;
  service::ServiceCore core(core_options);

  const bool synchronous = cfg.workers == 0;
  const std::size_t lanes = static_cast<std::size_t>(cfg.clients);
  const std::size_t units = lanes + static_cast<std::size_t>(cfg.workers);
  std::atomic<std::size_t> lanes_left{lanes};
  std::atomic<std::uint64_t> collected{0};

  const auto started = std::chrono::steady_clock::now();
  core::parallel_for(units, static_cast<int>(units), [&](std::size_t unit) {
    if (unit < static_cast<std::size_t>(cfg.workers)) {
      core.worker_loop();  // Returns once the last lane begins shutdown.
      return;
    }
    const std::size_t lane = unit - static_cast<std::size_t>(cfg.workers);
    try {
      collected.fetch_add(
          run_lane(core, clock, static_cast<service::SessionId>(lane + 1),
                   hello_frame, submit_frame, cfg.requests, synchronous),
          std::memory_order_relaxed);
    } catch (...) {
      if (lanes_left.fetch_sub(1) == 1) core.begin_shutdown();
      throw;
    }
    if (lanes_left.fetch_sub(1) == 1) core.begin_shutdown();
  });
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - started;

  const std::uint64_t expected =
      static_cast<std::uint64_t>(cfg.clients) *
      static_cast<std::uint64_t>(cfg.requests);
  const double rate = static_cast<double>(collected.load()) /
                      elapsed.count();

  const obs::HistogramSnapshot scraped = scrape_latency_over_wire(
      core, clock, static_cast<service::SessionId>(lanes + 1));
  const obs::HistogramSnapshot* latency =
      scraped.total_count > 0 ? &scraped : nullptr;

  std::cout << "service_load: category=" << cfg.category << " clients="
            << cfg.clients << " requests/client=" << cfg.requests
            << " workers=" << cfg.workers << "\n"
            << std::fixed << std::setprecision(1) << "  analyses:   "
            << collected.load() << "/" << expected << " in "
            << elapsed.count() << "s\n"
            << "  throughput: " << rate << " analyses/sec (floor "
            << cfg.target_rate << ")\n";
  if (latency != nullptr && latency->total_count > 0) {
    const double us = 1.0 / 1000.0;
    std::cout << "  service.request_ns (STATS-over-wire, " <<
        latency->total_count << " samples):\n"
              << "    p50 <= " << percentile(*latency, 0.50) * us
              << " us, p95 <= " << percentile(*latency, 0.95) * us
              << " us, p99 <= " << percentile(*latency, 0.99) * us
              << " us, max " << latency->max * us << " us\n";
  } else {
    std::cout << "  service.request_ns histogram: no samples (obs off?)\n";
  }

  if (!cfg.json_out.empty()) {
    json::Value doc = json::Value::object();
    doc["name"] = "service_load";
    doc["category"] = cfg.category;
    doc["clients"] = cfg.clients;
    doc["requests_per_client"] = cfg.requests;
    doc["workers"] = cfg.workers;
    doc["analyses_completed"] = collected.load();
    doc["elapsed_s"] = elapsed.count();
    doc["analyses_per_sec"] = rate;
    doc["stats_source"] = "wire";
    json::Value& lat = doc["latency_ns"];
    lat["samples"] = latency ? latency->total_count : 0;
    lat["p50"] = latency ? percentile(*latency, 0.50) : 0.0;
    lat["p95"] = latency ? percentile(*latency, 0.95) : 0.0;
    lat["p99"] = latency ? percentile(*latency, 0.99) : 0.0;
    lat["max"] = latency ? latency->max : 0.0;
    core::write_text_file_atomic(cfg.json_out, json::dump(doc, 2) + "\n");
  }

  if (collected.load() != expected) {
    std::cout << "FAIL: " << (expected - collected.load())
              << " submission(s) never produced a result\n";
    return 1;
  }
  if (cfg.target_rate > 0.0 && rate < cfg.target_rate) {
    std::cout << "FAIL: sustained rate below the " << cfg.target_rate
              << "/s floor\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
