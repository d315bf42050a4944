// Live telemetry for the service tier, end to end:
//
//   * gauges      -- queue depth / inflight / workers-busy track ServiceCore
//                    state exactly, including under concurrent submits from
//                    core::parallel_for units, and return to zero when the
//                    queue drains and results are collected;
//   * deltas      -- MetricsSnapshot::delta_since is monotone across polls
//                    (cumulative counters never decrease; deltas count
//                    exactly the activity between the two snapshots and
//                    clamp at zero instead of wrapping);
//   * trace ids   -- a trace id stamped into a SUBMIT over a LIVE Unix
//                    socket rides the RESULT frame back and selects the
//                    request's spans in the TRACE fragment; STATS scrapes
//                    over the same socket are monotone around the request;
//   * flight ring -- SIGUSR1 sent to a real catalystd subprocess dumps the
//                    flight recorder as valid JSON naming the request the
//                    daemon just served, and the daemon still exits 0 on
//                    SIGTERM afterwards.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/io.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "faults/faults.hpp"
#include "json/json.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace catalyst::service {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Builds one REAL branch-category archive (once; the pipeline run is the
/// expensive part) so every test can submit analyzable data.
const core::MeasurementArchive& branch_archive() {
  static const core::MeasurementArchive archive = [] {
    const auto setup = category_setup("branch");
    const auto machine = machine_by_name("saphira");
    const auto result = core::run_pipeline(*machine, setup->benchmark,
                                           setup->signatures, setup->options);
    return core::make_archive(*machine, setup->benchmark, result);
  }();
  return archive;
}

ServiceCore::Options sync_core_options(faults::Clock* clock) {
  ServiceCore::Options options;
  options.workers = 0;  // tests drive execution synchronously via run_one()
  options.clock = clock;
  return options;
}

/// Scratch directory for socket / dump files; short path (AF_UNIX caps
/// sun_path at ~108 bytes, so no deep build-tree paths).
fs::path scratch_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() /
                       ("catalyst_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Counter `name` of a catalyst-metrics-v1 document (0 when absent).
/// Throws when the payload is not a metrics document.
std::uint64_t counter_in_stats(const std::string& text,
                               std::string_view name) {
  const json::Value doc = json::parse(text);
  if (doc.at("format").as_string() != "catalyst-metrics-v1") {
    throw std::runtime_error("STATS payload is not catalyst-metrics-v1");
  }
  const json::Value& counters = doc.at("counters");
  const std::string key(name);
  return counters.contains(key) ? counters.at(key).as_u64() : 0;
}

/// Minimal blocking wire client over the io:: wrappers -- enough protocol
/// to drive a live server from a parallel_for unit.  Throws on any break in
/// the conversation; the test surfaces the message after the join.
class WireClient {
 public:
  explicit WireClient(const std::string& path) : fd_(io::connect_unix(path)) {}
  ~WireClient() {
    if (fd_ >= 0) io::close_fd(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  void send(wire::FrameType type, const std::string& payload) {
    const std::string bytes = wire::encode_frame(type, payload);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const io::IoResult r =
          io::write_some(fd_, bytes.data() + sent, bytes.size() - sent);
      if (r.kind != io::IoResult::Kind::ok) {
        throw std::runtime_error("client write failed");
      }
      sent += r.bytes;
    }
  }

  wire::Frame recv() {
    for (;;) {
      if (auto frame = decoder_.next()) return *frame;
      char buf[4096];
      const io::IoResult r = io::read_some(fd_, buf, sizeof buf);
      if (r.kind == io::IoResult::Kind::ok) {
        decoder_.feed(buf, r.bytes);
      } else if (r.kind != io::IoResult::Kind::would_block) {
        throw std::runtime_error("connection closed before a frame arrived");
      }
    }
  }

  wire::Frame expect(wire::FrameType type) {
    wire::Frame frame = recv();
    if (frame.type != type) {
      throw std::runtime_error(
          "expected frame type " + std::to_string(static_cast<int>(type)) +
          ", got " + std::to_string(static_cast<int>(frame.type)));
    }
    return frame;
  }

  /// HELLO/HELLO_OK, then SUBMIT -> request id, then poll to the RESULT
  /// frame and return its trailing trace-id echo.
  std::uint64_t submit_and_wait(const wire::SubmitBody& body) {
    send(wire::FrameType::submit, wire::encode_submit(body));
    const wire::Frame reply = expect(wire::FrameType::accepted);
    wire::Get accepted(reply.payload);
    const std::uint64_t request_id = accepted.u64();
    for (;;) {
      std::string p;
      wire::put_u64(p, request_id);
      send(wire::FrameType::poll, p);
      const wire::Frame frame = recv();
      if (frame.type == wire::FrameType::pending) {
        std::this_thread::sleep_for(2ms);
        continue;
      }
      if (frame.type != wire::FrameType::result) {
        throw std::runtime_error("request did not end in a RESULT frame");
      }
      wire::Get cursor(frame.payload);
      if (cursor.u64() != request_id) {
        throw std::runtime_error("RESULT echoed the wrong request id");
      }
      if (cursor.string().empty()) {
        throw std::runtime_error("RESULT carried an empty report");
      }
      const std::uint64_t trace_echo = cursor.u64();
      cursor.expect_done();
      return trace_echo;
    }
  }

  std::string scrape_stats() {
    send(wire::FrameType::stats, "");
    const wire::Frame reply = expect(wire::FrameType::stats_ok);
    wire::Get cursor(reply.payload);
    std::string json = cursor.string();
    cursor.expect_done();
    return json;
  }

 private:
  int fd_ = -1;
  wire::FrameDecoder decoder_;
};

TEST(TelemetryGauges, TrackQueuePressureUnderParallelSubmitsAndDrain) {
  obs::Tracer::instance().enable();
  obs::Metrics::instance().reset();
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));

  constexpr std::size_t kUnits = 4;
  constexpr std::size_t kPerUnit = 2;
  std::vector<std::uint64_t> ids(kUnits * kPerUnit, 0);
  core::parallel_for(kUnits, static_cast<int>(kUnits), [&](std::size_t unit) {
    for (std::size_t i = 0; i < kPerUnit; ++i) {
      const SubmitOutcome out =
          core.submit(static_cast<SessionId>(unit + 1),
                      packed_submit_from_archive(branch_archive(), "branch"));
      if (out.kind == SubmitOutcome::Kind::accepted) {
        ids[unit * kPerUnit + i] = out.request_id;
      }
    }
  });
  for (const std::uint64_t id : ids) ASSERT_NE(id, 0u);

  // All accepted, none started: both pressure gauges read the full load.
  obs::MetricsSnapshot snap = obs::Metrics::instance().snapshot();
  EXPECT_EQ(snap.gauge(obs::names::kServiceQueueDepth),
            static_cast<std::int64_t>(kUnits * kPerUnit));
  EXPECT_EQ(snap.gauge(obs::names::kServiceInflightRequests),
            static_cast<std::int64_t>(kUnits * kPerUnit));
  EXPECT_EQ(snap.gauge(obs::names::kServiceWorkersBusy), 0);

  while (core.run_one()) {
  }

  // Drained but uncollected: the queue is empty, yet every result still
  // pins its entry (and quota slot) until the owning session polls it.
  snap = obs::Metrics::instance().snapshot();
  EXPECT_EQ(snap.gauge(obs::names::kServiceQueueDepth), 0);
  EXPECT_EQ(snap.gauge(obs::names::kServiceWorkersBusy), 0);
  EXPECT_EQ(snap.gauge(obs::names::kServiceInflightRequests),
            static_cast<std::int64_t>(kUnits * kPerUnit));

  for (std::size_t unit = 0; unit < kUnits; ++unit) {
    for (std::size_t i = 0; i < kPerUnit; ++i) {
      EXPECT_EQ(core.poll(static_cast<SessionId>(unit + 1),
                          ids[unit * kPerUnit + i])
                    .kind,
                PollOutcome::Kind::result);
    }
  }
  snap = obs::Metrics::instance().snapshot();
  EXPECT_EQ(snap.gauge(obs::names::kServiceInflightRequests), 0);
}

TEST(TelemetryMetrics, DeltaSnapshotsAreMonotoneAcrossPolls) {
  obs::Tracer::instance().enable();
  obs::Metrics::instance().reset();
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));

  const auto run_request = [&] {
    const SubmitOutcome out =
        core.submit(1, packed_submit_from_archive(branch_archive(), "branch"));
    ASSERT_EQ(out.kind, SubmitOutcome::Kind::accepted);
    ASSERT_TRUE(core.run_one());
    ASSERT_EQ(core.poll(1, out.request_id).kind, PollOutcome::Kind::result);
  };

  const obs::MetricsSnapshot t0 = obs::Metrics::instance().snapshot();
  run_request();
  const obs::MetricsSnapshot t1 = obs::Metrics::instance().snapshot();
  run_request();
  const obs::MetricsSnapshot t2 = obs::Metrics::instance().snapshot();

  // Cumulative counters and histogram counts never decrease between polls.
  EXPECT_GE(t1.counter(obs::names::kServiceRequestsAccepted),
            t0.counter(obs::names::kServiceRequestsAccepted));
  EXPECT_GE(t2.counter(obs::names::kServiceRequestsAccepted),
            t1.counter(obs::names::kServiceRequestsAccepted));
  ASSERT_NE(t2.histogram(obs::names::kServiceRequestNs), nullptr);
  ASSERT_NE(t1.histogram(obs::names::kServiceRequestNs), nullptr);
  EXPECT_GE(t2.histogram(obs::names::kServiceRequestNs)->total_count,
            t1.histogram(obs::names::kServiceRequestNs)->total_count);

  // Deltas count exactly the activity between the snapshots.
  const obs::MetricsSnapshot d1 = t1.delta_since(t0);
  EXPECT_EQ(d1.counter(obs::names::kServiceRequestsAccepted), 1u);
  EXPECT_EQ(d1.counter(obs::names::kServiceAnalysesOk), 1u);
  const obs::HistogramSnapshot* h1 =
      d1.histogram(obs::names::kServiceRequestNs);
  ASSERT_NE(h1, nullptr);
  EXPECT_EQ(h1->total_count, 1u);
  EXPECT_GE(h1->sum, 0.0);

  const obs::MetricsSnapshot d2 = t2.delta_since(t0);
  EXPECT_EQ(d2.counter(obs::names::kServiceRequestsAccepted), 2u);
  ASSERT_NE(d2.histogram(obs::names::kServiceRequestNs), nullptr);
  EXPECT_EQ(d2.histogram(obs::names::kServiceRequestNs)->total_count, 2u);

  // A backwards delta clamps at zero instead of wrapping: a registry reset
  // between polls degrades to "current values", never to garbage rates.
  const obs::MetricsSnapshot backwards = t0.delta_since(t2);
  EXPECT_EQ(backwards.counter(obs::names::kServiceRequestsAccepted), 0u);
}

TEST(TelemetryWire, TraceIdPropagatesAndStatsAreMonotoneOverALiveSocket) {
  obs::Tracer::instance().enable();
  const fs::path dir = scratch_dir("telem");
  const std::string sock = (dir / "telem.sock").string();
  constexpr std::uint64_t kTraceId = 0xC0FFEE42ull;

  faults::RealClock clock;
  ServiceCore::Options core_options;
  core_options.workers = 1;
  core_options.clock = &clock;
  ServiceCore core(core_options);

  Server::Options server_options;
  server_options.socket_path = sock;
  server_options.clock = &clock;
  Server server(core, server_options);

  std::atomic<bool> stop{false};
  std::string failure;        // written by unit 2, read after the join
  std::string fragment;       // the TRACE answer, checked after the join
  std::uint64_t accepted_before = 0;
  std::uint64_t accepted_after = 0;
  std::uint64_t trace_echo = 0;

  // Unit 0 = event loop, unit 1 = analysis worker, unit 2 = client -- the
  // same topology catalystd runs, shrunk to one test.
  core::parallel_for(3, 3, [&](std::size_t unit) {
    if (unit == 0) {
      server.run(stop);
    } else if (unit == 1) {
      core.worker_loop();
    } else {
      try {
        WireClient client(sock);
        client.send(wire::FrameType::hello, "telemetry-test/2");
        client.expect(wire::FrameType::hello_ok);

        const std::string stats_before = client.scrape_stats();
        accepted_before = counter_in_stats(
            stats_before, obs::names::kServiceRequestsAccepted);

        trace_echo = client.submit_and_wait(packed_submit_from_archive(
            branch_archive(), "branch", /*deadline_ns=*/0, kTraceId));

        std::string p;
        wire::put_u64(p, kTraceId);
        client.send(wire::FrameType::trace, p);
        const wire::Frame reply = client.expect(wire::FrameType::trace_ok);
        wire::Get cursor(reply.payload);
        if (cursor.u64() != kTraceId) {
          throw std::runtime_error("TRACE_OK echoed the wrong trace id");
        }
        fragment = cursor.string();
        cursor.expect_done();

        const std::string stats_after = client.scrape_stats();
        accepted_after = counter_in_stats(
            stats_after, obs::names::kServiceRequestsAccepted);
      } catch (const std::exception& e) {
        failure = e.what();
      }
      stop.store(true, std::memory_order_relaxed);
      io::notify_pipe(server.wake_fd());
    }
  });

  ASSERT_TRUE(failure.empty()) << failure;
  EXPECT_EQ(trace_echo, kTraceId) << "RESULT must echo the SUBMIT's trace id";
  // The fragment is the request's own spans: at least service.request,
  // stamped with the trace id on its way through the queue.
  EXPECT_NE(fragment.find("traceEvents"), std::string::npos);
  EXPECT_NE(fragment.find("service.request"), std::string::npos);
  // Two scrapes around one request: monotone, and the request is counted.
  EXPECT_GE(accepted_after, accepted_before + 1);
  fs::remove_all(dir);
}

#ifdef CATALYST_CATALYSTD_BIN
TEST(TelemetryFlight, Sigusr1DumpsTheFlightRecorderInASubprocess) {
  const fs::path dir = scratch_dir("flight");
  const std::string sock = (dir / "d.sock").string();
  const std::string dump = (dir / "flight.json").string();
  constexpr std::uint64_t kTraceId = 77;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    ::execl(CATALYST_CATALYSTD_BIN, "catalystd", "--socket", sock.c_str(),
            "--flight-dump", dump.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed; the parent sees it as "never bound"
  }

  const auto reap = [pid](int sig) {
    ::kill(pid, sig);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return status;
  };

  bool bound = false;
  for (int i = 0; i < 100 && !bound; ++i) {
    bound = fs::exists(sock);
    if (!bound) std::this_thread::sleep_for(50ms);
  }
  if (!bound) {
    reap(SIGKILL);
    FAIL() << "catalystd never bound " << sock;
  }

  // Serve one traced request so the ring has something to remember.
  try {
    WireClient client(sock);
    client.send(wire::FrameType::hello, "flight-test/2");
    client.expect(wire::FrameType::hello_ok);
    const std::uint64_t echo = client.submit_and_wait(
        packed_submit_from_archive(branch_archive(), "branch", 0, kTraceId));
    EXPECT_EQ(echo, kTraceId);
  } catch (const std::exception& e) {
    reap(SIGKILL);
    FAIL() << "client conversation failed: " << e.what();
  }

  ASSERT_EQ(::kill(pid, SIGUSR1), 0);
  bool dumped = false;
  for (int i = 0; i < 100 && !dumped; ++i) {
    // write_text_file_atomic renames into place: existing == complete.
    dumped = fs::exists(dump);
    if (!dumped) std::this_thread::sleep_for(50ms);
  }
  if (!dumped) {
    reap(SIGKILL);
    FAIL() << "SIGUSR1 produced no flight dump at " << dump;
  }
  const json::Value doc = json::parse(core::read_text_file(dump));
  EXPECT_EQ(doc.at("format").as_string(), obs::kFlightRecorderFormat);
  bool served = false;
  for (const json::Value& r : doc.at("records").as_array()) {
    served = served || (r.at("trace_id").as_u64() == kTraceId &&
                        r.at("verdict").as_string() == "ok");
  }
  EXPECT_TRUE(served) << "the dump names the request the daemon served";

  // The dump must not have destabilized the daemon: clean SIGTERM drain.
  const int status = reap(SIGTERM);
  EXPECT_TRUE(WIFEXITED(status)) << "daemon did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  fs::remove_all(dir);
}
#endif  // CATALYST_CATALYSTD_BIN

}  // namespace
}  // namespace catalyst::service
