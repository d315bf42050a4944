// catalystd -- the long-running metric-analysis daemon.
//
//   catalystd --socket PATH [--workers N] [--queue N]
//             [--checkpoint-dir DIR] [--idle-timeout-ms N]
//             [--partial-frame-timeout-ms N] [--session-deadline-ms N]
//             [--analysis-timeout-ms N] [--max-inflight N]
//             [--max-session-bytes N] [--max-frame-bytes N]
//             [--max-sessions N] [--stats] [--flight-dump PATH]
//
// A malformed or out-of-range number, a missing value or an unknown flag
// exits 2 with a message naming the flag, before the socket is bound.
//
// Speaks catalyst-wire-v1 (protocol version 2: STATS/TRACE telemetry
// frames) over a Unix-domain socket (see src/service/wire.hpp).
// SIGTERM/SIGINT trigger the graceful sequence: stop accepting, drain
// in-flight analyses, checkpoint queued-unstarted requests into
// --checkpoint-dir, flush goodbyes, exit 0.  A daemon restarted with the
// same --checkpoint-dir re-enqueues the checkpointed requests before
// accepting its first connection.
//
// Live telemetry is always on: the tracer is enabled at startup (its
// steady-state cost is covered by the bench/obs_overhead <2% budget), so
// STATS frames answer with real counters and TRACE frames can replay a
// request's spans.  SIGUSR1 dumps the flight recorder -- the ring of the
// most recent request summaries -- as JSON to --flight-dump (stderr when
// unset); a fatal crash dumps the same ring on the way out, so the last
// thing a dead daemon leaves behind is what it was doing.
//
// Threading: worker-pool unit 0 runs the socket event loop; units 1..N run
// ServiceCore worker loops.  All spawned through core::parallel_for -- the
// one sanctioned thread-spawn point in the tree.
#include <atomic>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/io.hpp"
#include "core/parallel.hpp"
#include "flags.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"

namespace {

using namespace catalyst;

std::atomic<bool> g_stop{false};
std::atomic<bool> g_dump_flight{false};
std::atomic<int> g_wake_fd{-1};

void handle_signal(int) {
  // Async-signal-safe: one relaxed store + one write(2) on the self-pipe.
  g_stop.store(true, std::memory_order_relaxed);
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) service::io::notify_pipe(fd);
}

void handle_sigusr1(int) {
  // Same shape as handle_signal: flag + self-pipe poke; the dump itself
  // (JSON rendering, file I/O) happens on the event-loop thread.
  g_dump_flight.store(true, std::memory_order_relaxed);
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) service::io::notify_pipe(fd);
}

/// Renders the flight-recorder ring and writes it to `path` (atomically)
/// or stderr when no path was configured.  Never throws: this runs on the
/// crash path, where a second failure must not mask the first.
void dump_flight(const std::string& path) noexcept {
  try {
    obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
    const std::string json = obs::to_flight_json(
        recorder.snapshot(), recorder.recorded(), recorder.capacity());
    if (path.empty()) {
      std::cerr << json;
    } else {
      core::write_text_file_atomic(path, json);
      std::cerr << "catalystd: flight recorder dumped to " << path << "\n";
    }
  } catch (...) {
    // Swallow: a failed dump is a diagnostic loss, not a daemon failure.
  }
}

using flags::Kind;

// Durations stay within what std::chrono::nanoseconds can hold.
constexpr std::uint64_t kMaxMs = INT64_MAX / 1000000;
constexpr std::uint64_t kMaxCount = INT32_MAX;

constexpr flags::Flag kFlags[] = {
    {"socket", Kind::text, "PATH", ""},
    {"workers", Kind::integer, "N", "", 1, 1024},
    {"queue", Kind::integer, "N", "", 1, kMaxCount},
    {"checkpoint-dir", Kind::text, "DIR", ""},
    {"idle-timeout-ms", Kind::integer, "N", "", 0, kMaxMs},
    {"partial-frame-timeout-ms", Kind::integer, "N", "", 0, kMaxMs},
    {"session-deadline-ms", Kind::integer, "N", "", 0, kMaxMs},
    {"analysis-timeout-ms", Kind::integer, "N", "", 0, kMaxMs},
    {"max-inflight", Kind::integer, "N", "", 1, kMaxCount},
    {"max-session-bytes", Kind::integer, "N", "", 1, UINT64_MAX},
    {"max-frame-bytes", Kind::integer, "N", "", 1,
     service::wire::kMaxPayloadBytes},
    {"max-sessions", Kind::integer, "N", "", 1, kMaxCount},
    {"stats", Kind::toggle, "", ""},
    {"flight-dump", Kind::text, "PATH", ""},
};

int usage() {
  std::cerr << "usage: catalystd --socket PATH [flags]\nflags:\n";
  flags::print_flags(std::cerr, kFlags);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Args args;
  try {
    args = flags::parse(kFlags, "", argc, argv);
  } catch (const flags::Error& e) {
    std::cerr << "catalystd: error: " << e.what() << "\n";
    return usage();
  }
  if (!args.has("socket")) return usage();
  const std::string socket_path = args.text("socket", "");
  const std::string checkpoint_dir = args.text("checkpoint-dir", "");
  const std::string flight_dump_path = args.text("flight-dump", "");
  const auto workers = static_cast<int>(args.integer("workers", 1));
  const std::size_t queue = args.integer("queue", 64);
  const auto ms = [&args](std::string_view flag, std::uint64_t fallback) {
    return std::chrono::milliseconds(
        static_cast<std::int64_t>(args.integer(flag, fallback)));
  };
  // Live telemetry is part of the daemon's contract (STATS/TRACE frames,
  // flight recorder), so tracing is on unconditionally; --stats only adds
  // the exit-time summary on stderr.
  obs::Tracer::instance().enable();

  try {
    faults::RealClock clock;

    service::ServiceCore::Options core_options;
    core_options.workers = workers;
    core_options.queue_capacity = queue;
    core_options.max_inflight_per_session = args.integer("max-inflight", 8);
    core_options.max_bytes_per_session =
        args.integer("max-session-bytes", 256ull * 1024 * 1024);
    core_options.default_analysis_timeout = ms("analysis-timeout-ms", 0);
    core_options.checkpoint_dir = checkpoint_dir;
    core_options.clock = &clock;
    service::ServiceCore core(core_options);
    if (core.restored_requests() > 0) {
      std::cerr << "catalystd: restored " << core.restored_requests()
                << " checkpointed request(s) from " << checkpoint_dir << "\n";
    }

    service::Server::Options server_options;
    server_options.socket_path = socket_path;
    server_options.max_sessions = args.integer("max-sessions", 64);
    server_options.clock = &clock;
    server_options.session_limits.max_frame_payload =
        static_cast<std::uint32_t>(args.integer(
            "max-frame-bytes", service::wire::kMaxPayloadBytes));
    server_options.session_limits.idle_timeout = ms("idle-timeout-ms", 30000);
    server_options.session_limits.partial_frame_timeout =
        ms("partial-frame-timeout-ms", 5000);
    server_options.session_limits.session_deadline =
        ms("session-deadline-ms", 0);
    server_options.on_wake = [&flight_dump_path]() {
      if (g_dump_flight.exchange(false, std::memory_order_relaxed)) {
        dump_flight(flight_dump_path);
      }
    };
    service::Server server(core, server_options);

    g_wake_fd.store(server.wake_fd(), std::memory_order_relaxed);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGUSR1, handle_sigusr1);
    std::signal(SIGPIPE, SIG_IGN);

    std::cerr << "catalystd: listening on " << socket_path << " ("
              << workers << " worker(s), queue " << queue
              << ")\n";

    // Unit 0 = event loop; units 1..workers = analysis workers.  The event
    // loop returns only after shutdown drains the core, at which point
    // begin_shutdown() has already woken every worker out of its wait.
    const std::size_t units = static_cast<std::size_t>(workers) + 1;
    core::parallel_for(units, static_cast<int>(units), [&](std::size_t unit) {
      // Either side dying must release the other: a crashed event loop
      // wakes the workers out of their queue wait; a crashed worker flips
      // the stop flag so the event loop drains and returns.  Without this,
      // parallel_for's join would wait forever on the survivor.
      if (unit == 0) {
        try {
          server.run(g_stop);
        } catch (...) {
          core.begin_shutdown();
          throw;
        }
      } else {
        try {
          core.worker_loop();
        } catch (...) {
          g_stop.store(true, std::memory_order_relaxed);
          service::io::notify_pipe(server.wake_fd());
          throw;
        }
      }
    });

    std::cerr << "catalystd: drained, " << server.sessions_served()
              << " session(s) served; bye\n";
    if (args.has("stats")) {
      const obs::MetricsSnapshot metrics = obs::Metrics::instance().snapshot();
      std::cerr << obs::format_stats(metrics, {},
                                     obs::Tracer::instance().buffer()
                                         .published(),
                                     obs::Tracer::instance().buffer()
                                         .dropped());
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "catalystd: fatal: " << e.what() << "\n";
    // Crash-path dump: leave behind what the daemon was doing when it died.
    dump_flight(flight_dump_path);
    return 1;
  }
}
