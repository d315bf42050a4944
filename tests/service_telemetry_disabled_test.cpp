// The CATALYST_OBS=OFF face of live telemetry: this TU is compiled with
// CATALYST_OBS_DISABLED (the obs noop mode) against the regular service
// library, proving the telemetry_noop renderers and the Session keep the
// STATS/TRACE conversation alive when observability is compiled out --
// the answer is an explicit "compiled out" document, never a dead socket,
// so a scraper can tell "no load" apart from "no instrumentation".
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"
#include "obs/export.hpp"
#include "service/service.hpp"

namespace catalyst::service {
namespace {

/// The catalyst-metrics-v1 document a compiled-out daemon answers STATS
/// with: valid, empty, and flagged.
json::Value compiled_out_document() {
  return json::parse(R"({"format": "catalyst-metrics-v1",
                         "compiled_out": true,
                         "counters": {}, "gauges": {}, "histograms": []})");
}

std::vector<wire::Frame> decode_all(const std::string& bytes) {
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<wire::Frame> frames;
  while (auto frame = decoder.next()) frames.push_back(*frame);
  EXPECT_FALSE(decoder.error().has_value());
  return frames;
}

void feed(Session& session, std::chrono::nanoseconds now,
          const std::string& bytes) {
  session.on_bytes(now, bytes.data(), bytes.size());
}

/// A broker that renders telemetry the way a fully OBS-OFF daemon would:
/// through THIS translation unit's (noop) renderers instead of the
/// library's live defaults.
class CompiledOutBroker final : public RequestBroker {
 public:
  SubmitOutcome submit(SessionId, wire::SubmitBody) override {
    return SubmitOutcome{};
  }
  PollOutcome poll(SessionId, std::uint64_t) override { return PollOutcome{}; }
  bool cancel(SessionId, std::uint64_t) override { return false; }
  std::string stats_json() override { return render_stats_exposition(); }
  std::string trace_json(std::uint64_t trace_id) override {
    return render_trace_fragment(trace_id);
  }
};

TEST(TelemetryDisabled, ExpositionIsTheCompiledOutDocument) {
  const std::string text = render_stats_exposition();
  EXPECT_EQ(text, obs::metrics_compiled_out_json());
  EXPECT_EQ(json::parse(text), compiled_out_document())
      << "even compiled out, the answer is a valid metrics document";
}

TEST(TelemetryDisabled, TraceFragmentIsValidAndEmpty) {
  std::size_t matched = 99;
  const std::string fragment = render_trace_fragment(42, &matched);
  EXPECT_EQ(matched, 0u);
  EXPECT_NE(fragment.find("traceEvents"), std::string::npos);
}

TEST(TelemetryDisabled, SessionStillAnswersStatsAndTrace) {
  using std::chrono::nanoseconds;
  CompiledOutBroker broker;
  Session session(1, &broker, {}, nanoseconds{0});
  feed(session, nanoseconds{0},
       wire::encode_frame(wire::FrameType::hello, "off/2"));
  auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, wire::FrameType::hello_ok);

  feed(session, nanoseconds{1},
       wire::encode_frame(wire::FrameType::stats, ""));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, wire::FrameType::stats_ok);
  wire::Get stats(frames[0].payload);
  EXPECT_EQ(json::parse(stats.string()), compiled_out_document());
  stats.expect_done();

  std::string p;
  wire::put_u64(p, 7);
  feed(session, nanoseconds{2},
       wire::encode_frame(wire::FrameType::trace, p));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, wire::FrameType::trace_ok);
  wire::Get trace(frames[0].payload);
  EXPECT_EQ(trace.u64(), 7u);
  EXPECT_NE(trace.string().find("traceEvents"), std::string::npos);
  trace.expect_done();
  EXPECT_FALSE(session.finished()) << "telemetry must not cost the session";
}

}  // namespace
}  // namespace catalyst::service
