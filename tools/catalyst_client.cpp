// catalyst_client -- command-line client (and abuse harness) for catalystd.
//
//   catalyst_client --socket PATH submit CATEGORY --from ARCHIVE [--wait]
//                   [--deadline-ms N] [--trace-id N]
//   catalyst_client --socket PATH poll ID
//   catalyst_client --socket PATH cancel ID
//   catalyst_client --socket PATH stats
//   catalyst_client --socket PATH trace ID
//   catalyst_client --socket PATH top [--interval-ms N] [--iterations N]
//   catalyst_client --socket PATH soak --clients N --requests M
//                   --category C --from ARCHIVE [--garbage] [--slow-loris]
//
// submit sends a packed (binary) submission built from a measurement
// archive and prints the assigned request id; --wait polls until the
// result arrives and prints the rendered report (byte-identical to
// `catalyst analyze --from ARCHIVE CATEGORY` output).  --trace-id stamps
// the submission so its journey through the daemon can be fetched later
// with `trace ID` (a Chrome trace fragment of just that request's spans).
//
// stats scrapes one catalyst-metrics-v1 JSON document over the wire; top
// polls STATS on an interval and renders a one-screen live summary (qps,
// p50/p95/p99 request latency, queue / quota pressure) computed entirely
// from deltas between consecutive scrapes.
//
// soak is the abuse harness scripts/check.sh drives: N concurrent client
// loops each pushing M requests through submit/poll, optionally joined by
// a garbage client (random bytes; expects a typed ERROR + close, never a
// hang) and a slow-loris client (dribbles a frame header; expects the
// daemon to cut it off).  Exit 0 = every interaction matched the protocol;
// any hang, crash, or protocol violation exits nonzero.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/core.hpp"
#include "core/parallel.hpp"
#include "flags.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "service/engine.hpp"
#include "service/io.hpp"
#include "service/wire.hpp"

#include <unistd.h>

namespace {

using namespace catalyst;
namespace wire = service::wire;
namespace sio = service::io;

/// Blocking framed connection.
class Connection {
 public:
  explicit Connection(const std::string& socket_path)
      : fd_(sio::connect_unix(socket_path)) {}
  ~Connection() { sio::close_fd(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(wire::FrameType type, const std::string& payload) {
    const std::string bytes = wire::encode_frame(type, payload);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const sio::IoResult r =
          sio::write_some(fd_, bytes.data() + off, bytes.size() - off);
      if (r.kind != sio::IoResult::Kind::ok) {
        throw std::runtime_error("connection lost while sending " +
                                 std::string(wire::to_string(type)));
      }
      off += r.bytes;
    }
  }

  void send_raw(const char* data, std::size_t size) {
    std::size_t off = 0;
    while (off < size) {
      const sio::IoResult r = sio::write_some(fd_, data + off, size - off);
      if (r.kind != sio::IoResult::Kind::ok) {
        throw std::runtime_error("connection lost during raw send");
      }
      off += r.bytes;
    }
  }

  /// Next frame; throws on EOF/error (the caller decides if that was
  /// expected -- e.g. the garbage client WANTS to see the close).
  wire::Frame recv() {
    for (;;) {
      if (auto frame = decoder_.next()) return *frame;
      if (decoder_.error().has_value()) {
        throw std::runtime_error("server sent an undecodable frame: " +
                                 decoder_.error()->message);
      }
      char buf[16 * 1024];
      const sio::IoResult r = sio::read_some(fd_, buf, sizeof(buf));
      if (r.kind == sio::IoResult::Kind::ok) {
        decoder_.feed(buf, r.bytes);
        continue;
      }
      if (r.kind == sio::IoResult::Kind::would_block) continue;  // Blocking fd.
      throw std::runtime_error("connection closed by server");
    }
  }

  /// HELLO/HELLO_OK exchange.
  void handshake() {
    send(wire::FrameType::hello, "catalyst_client/1");
    const wire::Frame reply = recv();
    if (reply.type != wire::FrameType::hello_ok) {
      throw std::runtime_error("handshake rejected: " +
                               std::string(wire::to_string(reply.type)));
    }
  }

 private:
  int fd_;
  wire::FrameDecoder decoder_;
};

using flags::Kind;

constexpr std::string_view kCommands =
    "submit poll cancel stats trace top soak";

constexpr flags::Flag kFlags[] = {
    {"socket", Kind::text, "PATH", ""},
    {"from", Kind::text, "ARCHIVE", "submit soak"},
    {"wait", Kind::toggle, "", "submit"},
    {"deadline-ms", Kind::integer, "N", "submit soak", 0,
     UINT64_MAX / 1000000u},
    {"trace-id", Kind::integer, "N", "submit soak", 0, UINT64_MAX},
    {"interval-ms", Kind::integer, "N", "top", 0, INT32_MAX},
    {"iterations", Kind::integer, "N", "top", 0, INT64_MAX},
    {"clients", Kind::integer, "N", "soak", 0, INT32_MAX},
    {"requests", Kind::integer, "M", "soak", 0, INT32_MAX},
    {"category", Kind::text, "C", "soak"},
    {"garbage", Kind::toggle, "", "soak"},
    {"slow-loris", Kind::toggle, "", "soak"},
    {"dribble-ms", Kind::integer, "N", "soak", 0, INT32_MAX},
};

/// Positional argument 1 as a request id.
std::uint64_t request_id(const flags::Args& args) {
  return flags::integer_value("ID", args.positional[1], 0, UINT64_MAX);
}

int usage() {
  std::cerr << "usage:\n"
               "  catalyst_client --socket PATH submit CATEGORY\n"
               "                  --from ARCHIVE\n"
               "  catalyst_client --socket PATH poll|cancel|trace ID\n"
               "  catalyst_client --socket PATH stats|top\n"
               "  catalyst_client --socket PATH soak --from ARCHIVE\n"
               "flags, and the commands that read them (blank: every one):\n";
  flags::print_flags(std::cerr, kFlags);
  return 2;
}

wire::SubmitBody load_submission(const flags::Args& args,
                                 const std::string& category) {
  const std::string path = args.text("from", "");
  if (path.empty()) throw std::runtime_error("--from ARCHIVE is required");
  const core::MeasurementArchive archive =
      core::load_archive(core::read_text_file(path));
  return service::packed_submit_from_archive(
      archive, category, args.integer("deadline-ms", 0) * 1000000ull,
      args.integer("trace-id", 0));
}

/// One STATS round trip on an open connection; returns the JSON document.
std::string fetch_stats(Connection& conn) {
  conn.send(wire::FrameType::stats, "");
  const wire::Frame reply = conn.recv();
  if (reply.type != wire::FrameType::stats_ok) {
    throw std::runtime_error("unexpected STATS reply: " +
                             std::string(wire::to_string(reply.type)));
  }
  wire::Get cursor(reply.payload);
  return cursor.string();
}

/// Polls until the request leaves the queue/analyzing states.  Returns the
/// terminal frame (RESULT / ERROR / CANCELLED).
wire::Frame poll_until_done(Connection& conn, std::uint64_t id) {
  for (;;) {
    std::string payload;
    wire::put_u64(payload, id);
    conn.send(wire::FrameType::poll, payload);
    const wire::Frame reply = conn.recv();
    if (reply.type != wire::FrameType::pending) return reply;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

int cmd_submit(const flags::Args& args, const std::string& socket_path) {
  if (args.positional.size() < 2) return usage();
  const std::string category = args.positional[1];
  const wire::SubmitBody body = load_submission(args, category);
  Connection conn(socket_path);
  conn.handshake();
  conn.send(wire::FrameType::submit, wire::encode_submit(body));
  const wire::Frame reply = conn.recv();
  if (reply.type == wire::FrameType::retry_after) {
    std::cerr << "server is overloaded (RETRY_AFTER)\n";
    return 3;
  }
  if (reply.type == wire::FrameType::error) {
    const wire::ErrorBody err = wire::decode_error(reply.payload);
    std::cerr << "rejected: " << wire::to_string(err.code) << ": "
              << err.message << "\n";
    return 1;
  }
  if (reply.type != wire::FrameType::accepted) {
    std::cerr << "unexpected reply " << wire::to_string(reply.type) << "\n";
    return 1;
  }
  wire::Get cursor(reply.payload);
  const std::uint64_t id = cursor.u64();
  if (!args.has("wait")) {
    std::cout << id << "\n";
    return 0;
  }
  const wire::Frame done = poll_until_done(conn, id);
  if (done.type == wire::FrameType::result) {
    wire::Get result(done.payload);
    result.u64();  // request id
    std::cout << result.string();
    return 0;
  }
  if (done.type == wire::FrameType::error) {
    const wire::ErrorBody err = wire::decode_error(done.payload);
    std::cerr << "failed: " << wire::to_string(err.code) << ": "
              << err.message << "\n";
    return 1;
  }
  std::cerr << "request was cancelled\n";
  return 1;
}

int cmd_poll(const flags::Args& args, const std::string& socket_path) {
  if (args.positional.size() < 2) return usage();
  const std::uint64_t id = request_id(args);
  Connection conn(socket_path);
  conn.handshake();
  std::string payload;
  wire::put_u64(payload, id);
  conn.send(wire::FrameType::poll, payload);
  const wire::Frame reply = conn.recv();
  switch (reply.type) {
    case wire::FrameType::pending: {
      const char phase =
          reply.payload.size() > 8 ? reply.payload[8] : char{0};
      std::cout << (phase == 1 ? "analyzing\n" : "queued\n");
      return 0;
    }
    case wire::FrameType::result: {
      wire::Get cursor(reply.payload);
      cursor.u64();
      std::cout << cursor.string();
      return 0;
    }
    case wire::FrameType::cancelled:
      std::cout << "cancelled\n";
      return 0;
    case wire::FrameType::error: {
      const wire::ErrorBody err = wire::decode_error(reply.payload);
      std::cerr << wire::to_string(err.code) << ": " << err.message << "\n";
      return 1;
    }
    default:
      std::cerr << "unexpected reply " << wire::to_string(reply.type) << "\n";
      return 1;
  }
}

int cmd_cancel(const flags::Args& args, const std::string& socket_path) {
  if (args.positional.size() < 2) return usage();
  const std::uint64_t id = request_id(args);
  Connection conn(socket_path);
  conn.handshake();
  std::string payload;
  wire::put_u64(payload, id);
  conn.send(wire::FrameType::cancel, payload);
  const wire::Frame reply = conn.recv();
  if (reply.type == wire::FrameType::cancelled) {
    std::cout << "cancelled\n";
    return 0;
  }
  if (reply.type == wire::FrameType::error) {
    const wire::ErrorBody err = wire::decode_error(reply.payload);
    std::cerr << wire::to_string(err.code) << ": " << err.message << "\n";
    return 1;
  }
  std::cerr << "unexpected reply " << wire::to_string(reply.type) << "\n";
  return 1;
}

int cmd_stats(const std::string& socket_path) {
  Connection conn(socket_path);
  conn.handshake();
  std::cout << fetch_stats(conn);
  conn.send(wire::FrameType::bye, "");
  return 0;
}

int cmd_trace(const flags::Args& args, const std::string& socket_path) {
  if (args.positional.size() < 2) return usage();
  const std::uint64_t id = request_id(args);
  Connection conn(socket_path);
  conn.handshake();
  std::string payload;
  wire::put_u64(payload, id);
  conn.send(wire::FrameType::trace, payload);
  const wire::Frame reply = conn.recv();
  if (reply.type == wire::FrameType::error) {
    const wire::ErrorBody err = wire::decode_error(reply.payload);
    std::cerr << wire::to_string(err.code) << ": " << err.message << "\n";
    return 1;
  }
  if (reply.type != wire::FrameType::trace_ok) {
    std::cerr << "unexpected reply " << wire::to_string(reply.type) << "\n";
    return 1;
  }
  wire::Get cursor(reply.payload);
  const std::uint64_t echoed = cursor.u64();
  if (echoed != id) {
    std::cerr << "TRACE_OK echoed id " << echoed << ", wanted " << id << "\n";
    return 1;
  }
  std::cout << cursor.string();
  conn.send(wire::FrameType::bye, "");
  return 0;
}

// --- top ---------------------------------------------------------------------

/// The fields `top` reads from one STATS scrape (a catalyst-metrics-v1
/// document).
struct StatsSample {
  std::map<std::string, std::uint64_t> scalars;  ///< Counters + gauges.
  std::uint64_t hist_count = 0;
  std::vector<std::pair<std::size_t, std::uint64_t>> hist_buckets;
  bool compiled_out = false;
};

StatsSample parse_stats(const std::string& text,
                        const std::vector<std::string>& scalar_names,
                        const std::string& histogram_name) {
  const json::Value doc = json::parse(text);
  StatsSample sample;
  sample.compiled_out =
      doc.contains("compiled_out") && doc.at("compiled_out").as_bool();
  for (const std::string& name : scalar_names) {
    if (doc.at("counters").contains(name)) {
      sample.scalars[name] = doc.at("counters").at(name).as_u64();
    } else if (doc.at("gauges").contains(name)) {
      // A gauge below zero reads as zero: the view shows levels.
      const std::int64_t level = doc.at("gauges").at(name).as_i64();
      sample.scalars[name] = level > 0 ? static_cast<std::uint64_t>(level) : 0;
    }
  }
  for (const json::Value& h : doc.at("histograms").as_array()) {
    if (h.at("name").as_string() != histogram_name) continue;
    sample.hist_count = h.at("count").as_u64();
    for (const json::Value& pair : h.at("buckets").as_array()) {
      sample.hist_buckets.emplace_back(pair.at(0).as_u64(),
                                       pair.at(1).as_u64());
    }
  }
  return sample;
}

/// q-th percentile (0..1) from delta bucket counts: walks the cumulative
/// distribution and returns the matched bucket's inclusive upper bound.
double bucket_percentile(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& buckets,
    std::uint64_t total, double q) {
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (const auto& [index, count] : buckets) {
    cumulative += count;
    if (static_cast<double>(cumulative) >= target) {
      return obs::histogram_upper_bound(index);
    }
  }
  return obs::histogram_upper_bound(obs::kNumBuckets - 1);
}

/// Delta of the window's buckets: current minus previous, clamped at zero
/// (a daemon restart between polls degrades to "current" instead of
/// wrapping).
std::vector<std::pair<std::size_t, std::uint64_t>> bucket_delta(
    const std::vector<std::pair<std::size_t, std::uint64_t>>& now,
    const std::vector<std::pair<std::size_t, std::uint64_t>>& before) {
  std::map<std::size_t, std::uint64_t> prior(before.begin(), before.end());
  std::vector<std::pair<std::size_t, std::uint64_t>> out;
  for (const auto& [index, count] : now) {
    const auto it = prior.find(index);
    const std::uint64_t earlier = it == prior.end() ? 0 : it->second;
    if (count > earlier) out.emplace_back(index, count - earlier);
  }
  return out;
}

std::string format_ms(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
  return buf;
}

int cmd_top(const flags::Args& args, const std::string& socket_path) {
  const auto interval_ms =
      static_cast<std::int64_t>(args.integer("interval-ms", 1000));
  // 0 iterations = forever.
  const auto iterations =
      static_cast<std::int64_t>(args.integer("iterations", 0));
  const bool tty = ::isatty(STDOUT_FILENO) == 1;

  const std::string hist_name(obs::names::kServiceRequestNs);
  const std::vector<std::string> scalar_names = {
      std::string(obs::names::kServiceRequestsAccepted),
      std::string(obs::names::kServiceAnalysesOk),
      std::string(obs::names::kServiceAnalysesFailed),
      std::string(obs::names::kServiceAnalysesCancelled),
      std::string(obs::names::kServiceQuotaRejections),
      std::string(obs::names::kServiceLoadShed),
      std::string(obs::names::kServiceQueueDepth),
      std::string(obs::names::kServiceInflightRequests),
      std::string(obs::names::kServiceWorkersBusy),
      std::string(obs::names::kServiceSessionsOpen),
  };

  Connection conn(socket_path);
  conn.handshake();
  StatsSample prev = parse_stats(fetch_stats(conn), scalar_names, hist_name);
  auto prev_at = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; iterations == 0 || i < iterations; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    const StatsSample now =
        parse_stats(fetch_stats(conn), scalar_names, hist_name);
    const auto now_at = std::chrono::steady_clock::now();
    const double dt = std::chrono::duration<double>(now_at - prev_at).count();

    const auto scalar = [&now](std::string_view name) -> std::uint64_t {
      const auto it = now.scalars.find(std::string(name));
      return it == now.scalars.end() ? 0 : it->second;
    };
    const auto rate = [&](std::string_view name) -> double {
      const auto it = prev.scalars.find(std::string(name));
      const std::uint64_t before = it == prev.scalars.end() ? 0 : it->second;
      const std::uint64_t current = scalar(name);
      const std::uint64_t delta = current > before ? current - before : 0;
      return dt > 0 ? static_cast<double>(delta) / dt : 0.0;
    };

    if (tty) std::cout << "\x1b[H\x1b[2J";
    std::cout << "catalystd top -- " << socket_path << "  (every "
              << interval_ms << "ms)\n";
    if (now.compiled_out) {
      std::cout << "observability compiled out (CATALYST_OBS=OFF); the\n"
                   "daemon answers STATS but records nothing.\n";
      std::cout.flush();
      prev = now;
      prev_at = now_at;
      continue;
    }
    const std::uint64_t window_count =
        now.hist_count > prev.hist_count ? now.hist_count - prev.hist_count
                                         : 0;
    const auto window = bucket_delta(now.hist_buckets, prev.hist_buckets);
    char line[160];
    std::snprintf(line, sizeof line,
                  "qps %7.1f   done %7.1f/s   window %6" PRIu64
                  " completed\n",
                  rate(obs::names::kServiceRequestsAccepted),
                  rate(obs::names::kServiceAnalysesOk), window_count);
    std::cout << line;
    std::cout << "latency  p50 " << format_ms(bucket_percentile(window,
                                                                window_count,
                                                                0.50))
              << "   p95 " << format_ms(bucket_percentile(window,
                                                          window_count, 0.95))
              << "   p99 " << format_ms(bucket_percentile(window,
                                                          window_count, 0.99))
              << "  (bucket upper bounds)\n";
    std::snprintf(line, sizeof line,
                  "pressure queue %4" PRIu64 "   inflight %4" PRIu64
                  "   busy workers %3" PRIu64 "   sessions %3" PRIu64 "\n",
                  scalar(obs::names::kServiceQueueDepth),
                  scalar(obs::names::kServiceInflightRequests),
                  scalar(obs::names::kServiceWorkersBusy),
                  scalar(obs::names::kServiceSessionsOpen));
    std::cout << line;
    std::snprintf(line, sizeof line,
                  "rejects  quota %6" PRIu64 " (%.1f/s)   shed %6" PRIu64
                  " (%.1f/s)   failed %6" PRIu64 "\n",
                  scalar(obs::names::kServiceQuotaRejections),
                  rate(obs::names::kServiceQuotaRejections),
                  scalar(obs::names::kServiceLoadShed),
                  rate(obs::names::kServiceLoadShed),
                  scalar(obs::names::kServiceAnalysesFailed));
    std::cout << line;
    std::cout.flush();
    prev = now;
    prev_at = now_at;
  }
  conn.send(wire::FrameType::bye, "");
  return 0;
}

// --- soak --------------------------------------------------------------------

/// One well-behaved client loop: M submit/poll round trips.  Treats
/// RETRY_AFTER (backs off and retries) and shutting_down (stops early) as
/// protocol-conformant outcomes; anything else unexpected is a failure.
bool soak_worker(const std::string& socket_path, const wire::SubmitBody& body,
                 int requests, std::atomic<std::uint64_t>& completed) {
  try {
    Connection conn(socket_path);
    conn.handshake();
    const std::string submit_payload = wire::encode_submit(body);
    for (int r = 0; r < requests; ++r) {
      conn.send(wire::FrameType::submit, submit_payload);
      const wire::Frame reply = conn.recv();
      if (reply.type == wire::FrameType::retry_after) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        --r;
        continue;
      }
      if (reply.type == wire::FrameType::error) {
        const wire::ErrorBody err = wire::decode_error(reply.payload);
        if (err.code == wire::ErrorCode::shutting_down) return true;
        std::cerr << "soak: submit rejected: " << wire::to_string(err.code)
                  << ": " << err.message << "\n";
        return false;
      }
      if (reply.type != wire::FrameType::accepted) {
        std::cerr << "soak: unexpected submit reply "
                  << wire::to_string(reply.type) << "\n";
        return false;
      }
      wire::Get cursor(reply.payload);
      const std::uint64_t id = cursor.u64();
      const wire::Frame done = poll_until_done(conn, id);
      if (done.type == wire::FrameType::result) {
        completed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (done.type == wire::FrameType::error) {
        const wire::ErrorBody err = wire::decode_error(done.payload);
        if (err.code == wire::ErrorCode::shutting_down) return true;
        std::cerr << "soak: request failed: " << wire::to_string(err.code)
                  << ": " << err.message << "\n";
        return false;
      }
      std::cerr << "soak: unexpected poll reply "
                << wire::to_string(done.type) << "\n";
      return false;
    }
    conn.send(wire::FrameType::bye, "");
    return true;
  } catch (const std::exception& e) {
    // A closed connection during daemon shutdown is a clean outcome; the
    // soak driver only runs this branch when SIGTERM races the loop.
    std::cerr << "soak: connection ended: " << e.what() << "\n";
    return true;
  }
}

/// The hostile client: sends garbage, expects a typed ERROR and a close --
/// and, crucially, for the daemon to still be serving others afterwards.
bool soak_garbage(const std::string& socket_path) {
  try {
    Connection conn(socket_path);
    // Deterministic "random" bytes: an xorshift stream, no real entropy
    // needed to exercise the malformed-frame path.
    std::string junk(4096, '\0');
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (char& c : junk) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      c = static_cast<char>(state & 0xFF);
    }
    conn.send_raw(junk.data(), junk.size());
    const wire::Frame reply = conn.recv();  // Typed ERROR expected.
    if (reply.type != wire::FrameType::error) {
      std::cerr << "garbage client: expected ERROR, got "
                << wire::to_string(reply.type) << "\n";
      return false;
    }
    try {
      for (;;) (void)conn.recv();  // Server must close after the ERROR.
    } catch (const std::exception&) {
      return true;
    }
  } catch (const std::exception&) {
    // Closed before we could read the ERROR -- acceptable teardown.
    return true;
  }
}

/// The slow-loris client: dribbles one header byte at a time, far slower
/// than the daemon's partial-frame timeout allows, and expects to be cut
/// off rather than allowed to squat on the connection.
bool soak_slow_loris(const std::string& socket_path, int dribble_ms) {
  try {
    Connection conn(socket_path);
    conn.handshake();
    const std::string frame =
        wire::encode_frame(wire::FrameType::submit, std::string(1024, 'x'));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      conn.send_raw(frame.data() + i, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(dribble_ms));
    }
    // If the whole frame went through the timeout never fired: the dribble
    // was too fast relative to the daemon's setting.  Count it as failure
    // so misconfigured soaks are loud.
    std::cerr << "slow-loris client: was never disconnected\n";
    return false;
  } catch (const std::exception&) {
    return true;  // Cut off mid-dribble: the defense worked.
  }
}

int cmd_soak(const flags::Args& args, const std::string& socket_path) {
  const int clients = static_cast<int>(args.integer("clients", 4));
  const int requests = static_cast<int>(args.integer("requests", 8));
  const std::string category = args.text("category", "branch");
  const wire::SubmitBody body = load_submission(args, category);
  const bool with_garbage = args.has("garbage");
  const bool with_slow_loris = args.has("slow-loris");
  const int dribble_ms = static_cast<int>(args.integer("dribble-ms", 150));

  const std::size_t total = static_cast<std::size_t>(clients) +
                            (with_garbage ? 1 : 0) +
                            (with_slow_loris ? 1 : 0);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<int> failures{0};
  core::parallel_for(total, static_cast<int>(total), [&](std::size_t unit) {
    bool ok = true;
    if (unit < static_cast<std::size_t>(clients)) {
      ok = soak_worker(socket_path, body, requests, completed);
    } else if (with_garbage &&
               unit == static_cast<std::size_t>(clients)) {
      ok = soak_garbage(socket_path);
    } else {
      ok = soak_slow_loris(socket_path, dribble_ms);
    }
    if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
  });
  std::cout << "soak: " << completed.load() << " analyses completed, "
            << failures.load() << " protocol failure(s)\n";
  return failures.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const flags::Args args = flags::parse(kFlags, kCommands, argc, argv);
    const std::string socket_path = args.text("socket", "");
    if (args.positional.empty() || socket_path.empty()) return usage();
    const std::string& cmd = args.positional[0];
    if (cmd == "submit") return cmd_submit(args, socket_path);
    if (cmd == "poll") return cmd_poll(args, socket_path);
    if (cmd == "cancel") return cmd_cancel(args, socket_path);
    if (cmd == "stats") return cmd_stats(socket_path);
    if (cmd == "trace") return cmd_trace(args, socket_path);
    if (cmd == "top") return cmd_top(args, socket_path);
    if (cmd == "soak") return cmd_soak(args, socket_path);
  } catch (const flags::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
