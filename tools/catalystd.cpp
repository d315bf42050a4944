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
#include <charconv>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/io.hpp"
#include "core/parallel.hpp"
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

struct Flags {
  std::string socket_path;
  std::string checkpoint_dir;
  std::string flight_dump_path;
  int workers = 1;
  std::size_t queue = 64;
  std::size_t max_inflight = 8;
  std::uint64_t max_session_bytes = 256ull * 1024 * 1024;
  std::uint32_t max_frame_bytes = wire_default_frame_cap();
  std::size_t max_sessions = 64;
  long long idle_timeout_ms = 30000;
  long long partial_frame_timeout_ms = 5000;
  long long session_deadline_ms = 0;
  long long analysis_timeout_ms = 0;
  bool stats = false;

  static std::uint32_t wire_default_frame_cap() {
    return service::wire::kMaxPayloadBytes;
  }
};

int usage() {
  std::cerr
      << "usage: catalystd --socket PATH [--workers N] [--queue N]\n"
         "                 [--checkpoint-dir DIR] [--idle-timeout-ms N]\n"
         "                 [--partial-frame-timeout-ms N]\n"
         "                 [--session-deadline-ms N]\n"
         "                 [--analysis-timeout-ms N] [--max-inflight N]\n"
         "                 [--max-session-bytes N] [--max-frame-bytes N]\n"
         "                 [--max-sessions N] [--stats]\n"
         "                 [--flight-dump PATH]\n";
  return 2;
}

/// The whole of `text` as an integer in [lo, hi].  std::from_chars, not
/// std::stoi: "abc" must not abort the daemon and "-1" must not wrap to
/// 2^64 - 1.  Throws std::invalid_argument naming the flag.
template <typename T>
T parse_integer(const std::string& flag, const std::string& text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
      value > hi) {
    throw std::invalid_argument(flag + ": must be an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" + text + "'");
  }
  return value;
}

/// Fills `flags` from the command line.  Throws std::invalid_argument
/// naming the flag on an unknown flag, a missing value or a number out of
/// its range; returns false when --socket is missing.
bool parse_flags(int argc, char** argv, Flags& flags) {
  // Durations stay within what std::chrono::nanoseconds can hold.
  constexpr long long kMaxMs = INT64_MAX / 1000000;
  constexpr std::size_t kMaxCount = INT32_MAX;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--stats") {
      flags.stats = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument(a.rfind("--", 0) == 0
                                      ? a + ": missing value"
                                      : "unexpected argument '" + a + "'");
    }
    const std::string v = argv[++i];
    if (a == "--socket") {
      flags.socket_path = v;
    } else if (a == "--checkpoint-dir") {
      flags.checkpoint_dir = v;
    } else if (a == "--flight-dump") {
      flags.flight_dump_path = v;
    } else if (a == "--workers") {
      flags.workers = parse_integer(a, v, 1, 1024);
    } else if (a == "--queue") {
      flags.queue = parse_integer<std::size_t>(a, v, 1, kMaxCount);
    } else if (a == "--max-inflight") {
      flags.max_inflight = parse_integer<std::size_t>(a, v, 1, kMaxCount);
    } else if (a == "--max-session-bytes") {
      flags.max_session_bytes =
          parse_integer<std::uint64_t>(a, v, 1, UINT64_MAX);
    } else if (a == "--max-frame-bytes") {
      flags.max_frame_bytes = parse_integer<std::uint32_t>(
          a, v, 1, service::wire::kMaxPayloadBytes);
    } else if (a == "--max-sessions") {
      flags.max_sessions = parse_integer<std::size_t>(a, v, 1, kMaxCount);
    } else if (a == "--idle-timeout-ms") {
      flags.idle_timeout_ms = parse_integer(a, v, 0LL, kMaxMs);
    } else if (a == "--partial-frame-timeout-ms") {
      flags.partial_frame_timeout_ms = parse_integer(a, v, 0LL, kMaxMs);
    } else if (a == "--session-deadline-ms") {
      flags.session_deadline_ms = parse_integer(a, v, 0LL, kMaxMs);
    } else if (a == "--analysis-timeout-ms") {
      flags.analysis_timeout_ms = parse_integer(a, v, 0LL, kMaxMs);
    } else {
      throw std::invalid_argument(a + ": unknown flag");
    }
  }
  return !flags.socket_path.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  try {
    if (!parse_flags(argc, argv, flags)) return usage();
  } catch (const std::invalid_argument& e) {
    std::cerr << "catalystd: error: " << e.what() << "\n";
    return usage();
  }
  // Live telemetry is part of the daemon's contract (STATS/TRACE frames,
  // flight recorder), so tracing is on unconditionally; --stats only adds
  // the exit-time summary on stderr.
  obs::Tracer::instance().enable();

  try {
    faults::RealClock clock;

    service::ServiceCore::Options core_options;
    core_options.workers = flags.workers;
    core_options.queue_capacity = flags.queue;
    core_options.max_inflight_per_session = flags.max_inflight;
    core_options.max_bytes_per_session = flags.max_session_bytes;
    core_options.default_analysis_timeout =
        std::chrono::milliseconds(flags.analysis_timeout_ms);
    core_options.checkpoint_dir = flags.checkpoint_dir;
    core_options.clock = &clock;
    service::ServiceCore core(core_options);
    if (core.restored_requests() > 0) {
      std::cerr << "catalystd: restored " << core.restored_requests()
                << " checkpointed request(s) from " << flags.checkpoint_dir
                << "\n";
    }

    service::Server::Options server_options;
    server_options.socket_path = flags.socket_path;
    server_options.max_sessions = flags.max_sessions;
    server_options.clock = &clock;
    server_options.session_limits.max_frame_payload = flags.max_frame_bytes;
    server_options.session_limits.idle_timeout =
        std::chrono::milliseconds(flags.idle_timeout_ms);
    server_options.session_limits.partial_frame_timeout =
        std::chrono::milliseconds(flags.partial_frame_timeout_ms);
    server_options.session_limits.session_deadline =
        std::chrono::milliseconds(flags.session_deadline_ms);
    server_options.on_wake = [&flags]() {
      if (g_dump_flight.exchange(false, std::memory_order_relaxed)) {
        dump_flight(flags.flight_dump_path);
      }
    };
    service::Server server(core, server_options);

    g_wake_fd.store(server.wake_fd(), std::memory_order_relaxed);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGUSR1, handle_sigusr1);
    std::signal(SIGPIPE, SIG_IGN);

    std::cerr << "catalystd: listening on " << flags.socket_path << " ("
              << flags.workers << " worker(s), queue " << flags.queue
              << ")\n";

    // Unit 0 = event loop; units 1..workers = analysis workers.  The event
    // loop returns only after shutdown drains the core, at which point
    // begin_shutdown() has already woken every worker out of its wait.
    const std::size_t units = static_cast<std::size_t>(flags.workers) + 1;
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
    if (flags.stats) {
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
    dump_flight(flags.flight_dump_path);
    return 1;
  }
}
