// The service layer with the sockets cut away: wire framing, the Session
// state machine (driven with explicit timestamps -- every timeout is exact),
// and ServiceCore's queue/quota/cancel/shutdown behavior via the synchronous
// run_one() driver.  The shutdown-drain test restarts a core on the same
// checkpoint directory and replays the queue; the byte-identity test proves
// a report served over the wire equals the CLI-path rendering of the same
// archive for every Tables V-VIII category.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/io.hpp"
#include "core/pipeline.hpp"
#include "faults/faults.hpp"
#include "service/service.hpp"

namespace catalyst::service {
namespace {

using std::chrono::nanoseconds;
using namespace std::chrono_literals;

std::vector<wire::Frame> decode_all(const std::string& bytes) {
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  std::vector<wire::Frame> frames;
  while (auto frame = decoder.next()) frames.push_back(*frame);
  EXPECT_FALSE(decoder.error().has_value())
      << "server output must always decode: " << decoder.error()->message;
  return frames;
}

wire::ErrorBody error_of(const wire::Frame& frame) {
  EXPECT_EQ(frame.type, wire::FrameType::error);
  return wire::decode_error(frame.payload);
}

// --- wire framing ------------------------------------------------------------

TEST(Wire, Crc32MatchesTheStandardCheckValue) {
  EXPECT_EQ(wire::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(wire::crc32("", 0), 0x00000000u);
}

TEST(Wire, FrameSurvivesBytewiseDelivery) {
  const std::string bytes =
      wire::encode_frame(wire::FrameType::submit, "payload-bytes");
  wire::FrameDecoder decoder;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_FALSE(decoder.next().has_value()) << "frame completed early";
    decoder.feed(&bytes[i], 1);
    if (i + 1 < bytes.size()) {
      EXPECT_TRUE(decoder.mid_frame());
    }
  }
  const auto frame = decoder.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, wire::FrameType::submit);
  EXPECT_EQ(frame->payload, "payload-bytes");
  EXPECT_FALSE(decoder.mid_frame());
  EXPECT_EQ(decoder.bytes_consumed(), bytes.size());
}

TEST(Wire, TruncatedFrameStaysPendingWithoutError) {
  const std::string bytes = wire::encode_frame(wire::FrameType::poll, "1234");
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size() - 1);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_FALSE(decoder.error().has_value());
  EXPECT_TRUE(decoder.mid_frame());
}

TEST(Wire, BadMagicPoisonsTheDecoder) {
  std::string bytes = wire::encode_frame(wire::FrameType::hello, "hi");
  bytes[0] = 'X';
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(decoder.next().has_value());
  ASSERT_TRUE(decoder.error().has_value());
  EXPECT_EQ(decoder.error()->code, wire::ErrorCode::malformed_frame);

  // Poisoned: even a pristine frame afterwards is dropped, because framing
  // was lost (resynchronising on hostile bytes is how parsers get confused).
  const std::string good = wire::encode_frame(wire::FrameType::hello, "hi");
  decoder.feed(good.data(), good.size());
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.error().has_value());
}

TEST(Wire, BadVersionIsItsOwnError) {
  std::string bytes = wire::encode_frame(wire::FrameType::hello, "hi");
  bytes[4] = 9;  // version field (offset 4, LE u16); 9 != kVersion (3)
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(decoder.next().has_value());
  ASSERT_TRUE(decoder.error().has_value());
  EXPECT_EQ(decoder.error()->code, wire::ErrorCode::bad_version);
}

TEST(Wire, CorruptPayloadFailsTheCrc) {
  std::string bytes = wire::encode_frame(wire::FrameType::submit, "payload");
  bytes.back() ^= 0x01;  // flip one payload bit
  wire::FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_FALSE(decoder.next().has_value());
  ASSERT_TRUE(decoder.error().has_value());
  EXPECT_EQ(decoder.error()->code, wire::ErrorCode::bad_crc);
}

TEST(Wire, OversizedLengthIsRejectedAtTheHeader) {
  // A decoder with a 64-byte ceiling must refuse a 65-byte frame WITHOUT
  // buffering its payload.
  const std::string bytes =
      wire::encode_frame(wire::FrameType::submit, std::string(65, 'x'));
  wire::FrameDecoder decoder(64);
  decoder.feed(bytes.data(), wire::kHeaderBytes);  // header alone suffices
  EXPECT_FALSE(decoder.next().has_value());
  ASSERT_TRUE(decoder.error().has_value());
  EXPECT_EQ(decoder.error()->code, wire::ErrorCode::oversized_frame);
}

TEST(Wire, SubmitBodyRoundTripsBothKinds) {
  wire::SubmitBody packed;
  packed.kind = wire::SubmitKind::packed;
  packed.category = "branch";
  packed.deadline_ns = 12345;
  packed.trace_id = 0xFEEDFACE12345678ull;
  packed.event_names = {"EV_A", "EV_B"};
  packed.repetitions = 2;
  packed.slots = 3;
  packed.values = {1.0, 2.5, -3.0, 4.0, 5.0, 6.0,
                   7.0, 8.0, 9.0, 10.0, 11.5, 12.0};
  const wire::SubmitBody packed2 =
      wire::decode_submit(wire::encode_submit(packed));
  EXPECT_EQ(packed2.category, "branch");
  EXPECT_EQ(packed2.deadline_ns, 12345u);
  EXPECT_EQ(packed2.trace_id, 0xFEEDFACE12345678ull);
  EXPECT_EQ(packed2.event_names, packed.event_names);
  EXPECT_EQ(packed2.repetitions, 2u);
  EXPECT_EQ(packed2.slots, 3u);
  EXPECT_EQ(packed2.values, packed.values);

  wire::SubmitBody json;
  json.kind = wire::SubmitKind::json;
  json.category = "icache";
  json.archive_json = "{\"not\": \"validated here\"}";
  const wire::SubmitBody json2 = wire::decode_submit(wire::encode_submit(json));
  EXPECT_EQ(json2.kind, wire::SubmitKind::json);
  EXPECT_EQ(json2.archive_json, json.archive_json);
}

TEST(Wire, SubmitCarriesTheCollectionMode) {
  // v3: the collection-mode byte rides after the trace id.  All three modes
  // round-trip; anything above the known range is a typed decode error (a
  // future mode must bump the version, not smuggle through).
  for (const int mode : {0, 1, 2}) {
    wire::SubmitBody body;
    body.kind = wire::SubmitKind::packed;
    body.category = "branch";
    body.collection_mode = static_cast<std::uint8_t>(mode);
    body.event_names = {"EV_A"};
    body.repetitions = 1;
    body.slots = 1;
    body.values = {1.0};
    const wire::SubmitBody back =
        wire::decode_submit(wire::encode_submit(body));
    EXPECT_EQ(back.collection_mode, mode);
  }
  wire::SubmitBody bad;
  bad.kind = wire::SubmitKind::packed;
  bad.category = "branch";
  bad.collection_mode = 3;
  bad.event_names = {"EV_A"};
  bad.repetitions = 1;
  bad.slots = 1;
  bad.values = {1.0};
  EXPECT_THROW(wire::decode_submit(wire::encode_submit(bad)),
               wire::PayloadError);
}

TEST(Wire, SubmitDecoderRejectsTruncationAndTrailingGarbage) {
  wire::SubmitBody body;
  body.kind = wire::SubmitKind::packed;
  body.category = "branch";
  body.event_names = {"EV_A"};
  body.repetitions = 2;
  body.slots = 2;
  body.values = {1.0, 2.0, 3.0, 4.0};
  const std::string good = wire::encode_submit(body);
  EXPECT_THROW(wire::decode_submit(good.substr(0, good.size() - 3)),
               wire::PayloadError);
  EXPECT_THROW(wire::decode_submit(good + "x"), wire::PayloadError);
  EXPECT_THROW(wire::decode_submit(""), wire::PayloadError);
}

TEST(Wire, ErrorMessagesAreBoundedOnTheWire) {
  wire::ErrorBody body;
  body.request_id = 7;
  body.code = wire::ErrorCode::analysis_failed;
  body.message = std::string(100000, 'm');
  const wire::ErrorBody decoded = wire::decode_error(wire::encode_error(body));
  EXPECT_EQ(decoded.request_id, 7u);
  EXPECT_EQ(decoded.code, wire::ErrorCode::analysis_failed);
  // bounded_excerpt keeps kMaxErrorMessageBytes of the message and appends
  // a short truncation marker; decode_error budgets 32 bytes for it.
  EXPECT_LE(decoded.message.size(), wire::kMaxErrorMessageBytes + 32);
  EXPECT_LT(decoded.message.size(), body.message.size() / 10);
}

// --- session state machine ---------------------------------------------------

/// Scripted broker: protocol tests assert on how the session FRAMES broker
/// outcomes, not on real queue mechanics (ServiceCore has its own tests).
class FakeBroker final : public RequestBroker {
 public:
  SubmitOutcome submit_outcome;
  PollOutcome poll_outcome;
  bool cancel_outcome = true;
  std::size_t submits = 0, polls = 0, cancels = 0;

  SubmitOutcome submit(SessionId, wire::SubmitBody) override {
    ++submits;
    return submit_outcome;
  }
  PollOutcome poll(SessionId, std::uint64_t) override {
    ++polls;
    return poll_outcome;
  }
  bool cancel(SessionId, std::uint64_t) override {
    ++cancels;
    return cancel_outcome;
  }
};

void feed(Session& session, nanoseconds now, const std::string& bytes) {
  session.on_bytes(now, bytes.data(), bytes.size());
}

std::string hello() {
  return wire::encode_frame(wire::FrameType::hello, "test-client");
}

std::string minimal_submit() {
  wire::SubmitBody body;
  body.kind = wire::SubmitKind::json;
  body.category = "branch";
  body.archive_json = "{}";
  return wire::encode_frame(wire::FrameType::submit,
                            wire::encode_submit(body));
}

TEST(Session, HandshakeThenGoodbye) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  EXPECT_EQ(session.state(), Session::State::handshake);

  feed(session, 1ms, hello());
  auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::hello_ok);
  EXPECT_EQ(session.state(), Session::State::ready);

  feed(session, 2ms, wire::encode_frame(wire::FrameType::bye, ""));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::bye);
  EXPECT_TRUE(session.closed());
  EXPECT_TRUE(session.finished());
}

TEST(Session, TransitionTableRejectsOutOfStateFrames) {
  struct Case {
    std::string name;
    std::vector<std::string> preamble;  // frames to reach the state
    std::string offending;
  };
  const std::string poll_frame = [] {
    std::string p;
    wire::put_u64(p, 1);
    return wire::encode_frame(wire::FrameType::poll, p);
  }();
  const Case cases[] = {
      {"SUBMIT before HELLO", {}, minimal_submit()},
      {"POLL before HELLO", {}, poll_frame},
      {"BYE before HELLO", {}, wire::encode_frame(wire::FrameType::bye, "")},
      {"second HELLO", {hello()}, hello()},
      {"server-only type echoed back",
       {hello()},
       wire::encode_frame(wire::FrameType::hello_ok, "")},
  };
  for (const Case& c : cases) {
    FakeBroker broker;
    Session session(1, &broker, {}, 0ns);
    for (const auto& frame : c.preamble) feed(session, 0ns, frame);
    session.take_output();
    feed(session, 1ms, c.offending);
    const auto frames = decode_all(session.take_output());
    ASSERT_EQ(frames.size(), 1u) << c.name;
    EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::bad_state) << c.name;
    EXPECT_TRUE(session.closed()) << c.name;
    EXPECT_EQ(broker.submits + broker.polls + broker.cancels, 0u) << c.name;
  }
}

TEST(Session, GarbageBytesYieldOneTypedErrorThenTeardown) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, "this is definitely not a catalyst-wire-v1 frame......");
  const auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::malformed_frame);
  EXPECT_TRUE(session.closed());
  // Later bytes are ignored, not crashed on.
  feed(session, 1ms, hello());
  EXPECT_TRUE(decode_all(session.take_output()).empty());
}

TEST(Session, BadCrcTearsDownWithTheRightCode) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, hello());
  session.take_output();
  std::string corrupt = minimal_submit();
  corrupt.back() ^= 0x40;
  feed(session, 1ms, corrupt);
  const auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::bad_crc);
  EXPECT_TRUE(session.closed());
}

TEST(Session, UndecodableSubmitPayloadIsRecoverable) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, hello());
  session.take_output();
  // Well-framed (magic + CRC pass) but the payload is not a submission.
  feed(session, 1ms,
       wire::encode_frame(wire::FrameType::submit, "not a submit body"));
  auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::bad_request);
  EXPECT_EQ(session.state(), Session::State::ready) << "session must survive";
  EXPECT_EQ(broker.submits, 0u);

  // And the connection still works afterwards.
  broker.submit_outcome.kind = SubmitOutcome::Kind::accepted;
  broker.submit_outcome.request_id = 9;
  feed(session, 2ms, minimal_submit());
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::accepted);
  wire::Get cursor(frames[0].payload);
  EXPECT_EQ(cursor.u64(), 9u);
}

TEST(Session, BrokerOutcomesAreFramedFaithfully) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, hello());
  session.take_output();

  broker.submit_outcome.kind = SubmitOutcome::Kind::retry_after;
  broker.submit_outcome.retry_after = 50ms;
  feed(session, 1ms, minimal_submit());
  auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::retry_after);
  {
    wire::Get cursor(frames[0].payload);
    cursor.u64();  // request id slot (0)
    EXPECT_EQ(cursor.u64(), static_cast<std::uint64_t>(
                                nanoseconds(50ms).count()));
  }

  broker.submit_outcome.kind = SubmitOutcome::Kind::rejected;
  broker.submit_outcome.code = wire::ErrorCode::quota_exceeded;
  broker.submit_outcome.message = "too greedy";
  feed(session, 2ms, minimal_submit());
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  const wire::ErrorBody err = error_of(frames[0]);
  EXPECT_EQ(err.code, wire::ErrorCode::quota_exceeded);
  EXPECT_EQ(err.message, "too greedy");
  EXPECT_EQ(session.state(), Session::State::ready)
      << "quota rejection is recoverable";

  const auto poll_for = [](std::uint64_t id) {
    std::string p;
    wire::put_u64(p, id);
    return wire::encode_frame(wire::FrameType::poll, p);
  };
  broker.poll_outcome.kind = PollOutcome::Kind::queued;
  feed(session, 3ms, poll_for(4));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::pending);
  EXPECT_EQ(frames[0].payload[8], 0);  // phase byte after the u64 id

  broker.poll_outcome.kind = PollOutcome::Kind::analyzing;
  feed(session, 4ms, poll_for(4));
  frames = decode_all(session.take_output());
  EXPECT_EQ(frames[0].payload[8], 1);

  broker.poll_outcome.kind = PollOutcome::Kind::result;
  broker.poll_outcome.text = "the report";
  broker.poll_outcome.trace_id = 0xBEEF;
  feed(session, 5ms, poll_for(4));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
  {
    wire::Get cursor(frames[0].payload);
    EXPECT_EQ(cursor.u64(), 4u);
    EXPECT_EQ(cursor.string(), "the report");
    EXPECT_EQ(cursor.u64(), 0xBEEFu) << "RESULT echoes the SUBMIT trace id";
  }

  broker.poll_outcome.kind = PollOutcome::Kind::unknown;
  feed(session, 6ms, poll_for(99));
  frames = decode_all(session.take_output());
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::unknown_request);

  const auto cancel_for = [](std::uint64_t id) {
    std::string p;
    wire::put_u64(p, id);
    return wire::encode_frame(wire::FrameType::cancel, p);
  };
  feed(session, 7ms, cancel_for(4));
  frames = decode_all(session.take_output());
  EXPECT_EQ(frames[0].type, wire::FrameType::cancelled);
  broker.cancel_outcome = false;
  feed(session, 8ms, cancel_for(99));
  frames = decode_all(session.take_output());
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::unknown_request);
  EXPECT_EQ(session.state(), Session::State::ready);
}

TEST(Session, StatsAndTraceAnswerInReadyState) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, hello());
  session.take_output();

  // STATS: empty request, STATS_OK carrying one JSON string.  FakeBroker
  // inherits the RequestBroker defaults, so this also proves scripted
  // brokers stay source-compatible with the v2 telemetry hooks.
  feed(session, 1ms, wire::encode_frame(wire::FrameType::stats, ""));
  auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::stats_ok);
  {
    wire::Get cursor(frames[0].payload);
    const std::string json = cursor.string();
    cursor.expect_done();
    EXPECT_NE(json.find("\"format\": \"catalyst-metrics-v1\""),
              std::string::npos);
  }

  // STATS with trailing bytes: recoverable bad_request, session stays up.
  feed(session, 2ms, wire::encode_frame(wire::FrameType::stats, "junk"));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::bad_request);
  EXPECT_EQ(session.state(), Session::State::ready);

  // TRACE: u64 id in, TRACE_OK echoing the id plus a Chrome fragment.
  std::string trace_payload;
  wire::put_u64(trace_payload, 42);
  feed(session, 3ms,
       wire::encode_frame(wire::FrameType::trace, trace_payload));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::trace_ok);
  {
    wire::Get cursor(frames[0].payload);
    EXPECT_EQ(cursor.u64(), 42u);
    EXPECT_NE(cursor.string().find("\"traceEvents\""), std::string::npos);
    cursor.expect_done();
  }

  // Truncated TRACE id: recoverable bad_request.
  feed(session, 4ms, wire::encode_frame(wire::FrameType::trace, "abc"));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::bad_request);
  EXPECT_EQ(session.state(), Session::State::ready);

  // STATS before HELLO is a state-machine violation, not a scrape.
  FakeBroker broker2;
  Session fresh(2, &broker2, {}, 0ns);
  feed(fresh, 0ns, wire::encode_frame(wire::FrameType::stats, ""));
  frames = decode_all(fresh.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::bad_state);
  EXPECT_TRUE(fresh.closed());
}

TEST(Session, IdleTimeoutFiresExactly) {
  FakeBroker broker;
  Session::Limits limits;
  limits.idle_timeout = 30s;
  Session session(1, &broker, limits, 0ns);
  feed(session, 0ns, hello());
  session.take_output();

  session.on_tick(nanoseconds(30s));  // exactly at the limit: still alive
  EXPECT_FALSE(session.closed());
  session.on_tick(nanoseconds(30s) + 1ns);
  EXPECT_TRUE(session.closed());
  const auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::deadline_exceeded);
}

TEST(Session, SlowLorisDribbleIsCutOff) {
  FakeBroker broker;
  Session::Limits limits;
  limits.partial_frame_timeout = 5s;
  limits.idle_timeout = 1h;  // not the timer under test
  Session session(1, &broker, limits, 0ns);
  feed(session, 0ns, hello());
  session.take_output();

  // One header byte at t=1s starts the partial-frame stopwatch.
  const std::string frame = minimal_submit();
  feed(session, nanoseconds(1s), frame.substr(0, 1));
  // Another dribbled byte must NOT reset the stopwatch (that would let a
  // loris stay alive forever at one byte per timeout).
  feed(session, nanoseconds(3s), frame.substr(1, 1));
  session.on_tick(nanoseconds(1s) + 5s);
  EXPECT_FALSE(session.closed());
  session.on_tick(nanoseconds(1s) + 5s + 1ns);
  EXPECT_TRUE(session.closed());
  const auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::deadline_exceeded);
}

TEST(Session, CompletingAFrameDisarmsTheLorisStopwatch) {
  FakeBroker broker;
  Session::Limits limits;
  limits.partial_frame_timeout = 5s;
  limits.idle_timeout = 1h;
  Session session(1, &broker, limits, 0ns);
  feed(session, 0ns, hello());
  session.take_output();

  const std::string frame = minimal_submit();
  feed(session, nanoseconds(1s), frame.substr(0, 4));
  feed(session, nanoseconds(2s), frame.substr(4));  // frame completes
  session.take_output();
  session.on_tick(nanoseconds(2s) + 1min);  // way past the partial budget
  EXPECT_FALSE(session.closed())
      << "no partial frame is pending; only idle applies";
}

TEST(Session, SessionDeadlineCapsTheConnection) {
  FakeBroker broker;
  Session::Limits limits;
  limits.session_deadline = 10s;
  limits.idle_timeout = 1h;
  Session session(1, &broker, limits, nanoseconds(5s));
  feed(session, nanoseconds(5s), hello());
  session.take_output();
  // Fresh bytes don't extend an absolute lifetime cap: recent traffic at
  // t=14s does not save the session at t=15s+.
  feed(session, nanoseconds(14s), hello().substr(0, 0));
  session.on_tick(nanoseconds(15s) + 1ns);
  EXPECT_TRUE(session.closed());
  const auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::deadline_exceeded);
}

TEST(Session, ShutdownRefusesSubmitsButStillAnswersPolls) {
  FakeBroker broker;
  broker.poll_outcome.kind = PollOutcome::Kind::result;
  broker.poll_outcome.text = "late harvest";
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, hello());
  session.take_output();
  session.begin_shutdown();

  feed(session, 1ms, minimal_submit());
  auto frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(error_of(frames[0]).code, wire::ErrorCode::shutting_down);
  EXPECT_EQ(broker.submits, 0u);
  EXPECT_EQ(session.state(), Session::State::ready);

  std::string p;
  wire::put_u64(p, 3);
  feed(session, 2ms, wire::encode_frame(wire::FrameType::poll, p));
  frames = decode_all(session.take_output());
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, wire::FrameType::result);
}

TEST(Session, EofDropsUnsentOutput) {
  FakeBroker broker;
  Session session(1, &broker, {}, 0ns);
  feed(session, 0ns, hello());
  EXPECT_TRUE(session.has_output());
  session.on_eof();
  EXPECT_TRUE(session.finished());
  EXPECT_FALSE(session.has_output());
}

// --- ServiceCore -------------------------------------------------------------

/// Builds one REAL branch-category archive (once; the pipeline run is the
/// expensive part) so core tests can submit analyzable data.
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

const std::string& branch_expected_text() {
  static const std::string text = [] {
    const auto setup = category_setup("branch");
    return render_result(core::analyze_archive(branch_archive(),
                                               setup->signatures,
                                               setup->options));
  }();
  return text;
}

ServiceCore::Options sync_core_options(faults::Clock* clock) {
  ServiceCore::Options options;
  options.workers = 0;  // tests drive execution synchronously via run_one()
  options.clock = clock;
  return options;
}

TEST(ServiceCore, SubmitRunPollRoundTripIsCollectOnce) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  const SubmitOutcome submitted =
      core.submit(7, packed_submit_from_archive(branch_archive(), "branch"));
  ASSERT_EQ(submitted.kind, SubmitOutcome::Kind::accepted);

  EXPECT_EQ(core.poll(7, submitted.request_id).kind,
            PollOutcome::Kind::queued);
  ASSERT_TRUE(core.run_one());
  const PollOutcome done = core.poll(7, submitted.request_id);
  ASSERT_EQ(done.kind, PollOutcome::Kind::result);
  EXPECT_EQ(done.text, branch_expected_text());
  // Collect-once: the entry (and its quota slot) was freed by that poll.
  EXPECT_EQ(core.poll(7, submitted.request_id).kind,
            PollOutcome::Kind::unknown);
  EXPECT_FALSE(core.run_one()) << "queue must be empty";
}

TEST(ServiceCore, SessionsAreIsolated) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  const SubmitOutcome submitted =
      core.submit(7, packed_submit_from_archive(branch_archive(), "branch"));
  ASSERT_EQ(submitted.kind, SubmitOutcome::Kind::accepted);
  // Another session's poll/cancel sees "no such request", not "someone
  // else's request".
  EXPECT_EQ(core.poll(8, submitted.request_id).kind,
            PollOutcome::Kind::unknown);
  EXPECT_FALSE(core.cancel(8, submitted.request_id));
  EXPECT_EQ(core.poll(7, submitted.request_id).kind,
            PollOutcome::Kind::queued);
}

TEST(ServiceCore, FullQueueLoadShedsWithRetryAfter) {
  faults::FakeClock clock;
  ServiceCore::Options options = sync_core_options(&clock);
  options.queue_capacity = 2;
  options.retry_after_hint = std::chrono::milliseconds(75);
  ServiceCore core(options);
  const auto body = packed_submit_from_archive(branch_archive(), "branch");
  EXPECT_EQ(core.submit(1, body).kind, SubmitOutcome::Kind::accepted);
  EXPECT_EQ(core.submit(2, body).kind, SubmitOutcome::Kind::accepted);
  const SubmitOutcome shed = core.submit(3, body);
  EXPECT_EQ(shed.kind, SubmitOutcome::Kind::retry_after);
  EXPECT_EQ(shed.retry_after, std::chrono::nanoseconds(75ms));
  EXPECT_EQ(core.queued_count(), 2u);
}

TEST(ServiceCore, PerSessionQuotasRejectTyped) {
  faults::FakeClock clock;
  ServiceCore::Options options = sync_core_options(&clock);
  options.max_inflight_per_session = 2;
  ServiceCore core(options);
  const auto body = packed_submit_from_archive(branch_archive(), "branch");
  EXPECT_EQ(core.submit(5, body).kind, SubmitOutcome::Kind::accepted);
  EXPECT_EQ(core.submit(5, body).kind, SubmitOutcome::Kind::accepted);
  const SubmitOutcome third = core.submit(5, body);
  EXPECT_EQ(third.kind, SubmitOutcome::Kind::rejected);
  EXPECT_EQ(third.code, wire::ErrorCode::quota_exceeded);
  // A DIFFERENT session is unaffected: quotas are the isolation mechanism,
  // not global throttling.
  EXPECT_EQ(core.submit(6, body).kind, SubmitOutcome::Kind::accepted);

  ServiceCore::Options byte_options = sync_core_options(&clock);
  byte_options.max_bytes_per_session = 16;  // smaller than any submission
  ServiceCore byte_core(byte_options);
  const SubmitOutcome fat = byte_core.submit(5, body);
  EXPECT_EQ(fat.kind, SubmitOutcome::Kind::rejected);
  EXPECT_EQ(fat.code, wire::ErrorCode::quota_exceeded);
}

TEST(ServiceCore, CancelQueuedSkipsExecution) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  const SubmitOutcome submitted =
      core.submit(7, packed_submit_from_archive(branch_archive(), "branch"));
  ASSERT_EQ(submitted.kind, SubmitOutcome::Kind::accepted);
  EXPECT_TRUE(core.cancel(7, submitted.request_id));
  EXPECT_FALSE(core.run_one()) << "cancelled request must leave the queue";
  EXPECT_EQ(core.poll(7, submitted.request_id).kind,
            PollOutcome::Kind::cancelled);
  // Terminal cancel is an idempotent no-op; unknown ids are not.
  EXPECT_FALSE(core.cancel(7, 424242));
}

TEST(ServiceCore, RequestDeadlineCancelsTheAnalysisMidPipeline) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  // 1ns budget: FakeClock advances 1us per query, so the first stage
  // boundary's check_cancel already sees the deadline passed.
  const SubmitOutcome submitted = core.submit(
      7, packed_submit_from_archive(branch_archive(), "branch", 1));
  ASSERT_EQ(submitted.kind, SubmitOutcome::Kind::accepted);
  ASSERT_TRUE(core.run_one());
  const PollOutcome done = core.poll(7, submitted.request_id);
  ASSERT_EQ(done.kind, PollOutcome::Kind::failed);
  EXPECT_EQ(done.code, wire::ErrorCode::deadline_exceeded);
}

TEST(ServiceCore, BadSubmissionsFailTypedNotThrown) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));

  auto unknown_cat = packed_submit_from_archive(branch_archive(), "no_such");
  const SubmitOutcome s1 = core.submit(7, std::move(unknown_cat));
  ASSERT_EQ(s1.kind, SubmitOutcome::Kind::accepted);
  ASSERT_TRUE(core.run_one());
  const PollOutcome p1 = core.poll(7, s1.request_id);
  ASSERT_EQ(p1.kind, PollOutcome::Kind::failed);
  EXPECT_EQ(p1.code, wire::ErrorCode::bad_request);

  wire::SubmitBody garbage_json;
  garbage_json.kind = wire::SubmitKind::json;
  garbage_json.category = "branch";
  garbage_json.archive_json = "{\"definitely\": \"not an archive\"}";
  const SubmitOutcome s2 = core.submit(7, std::move(garbage_json));
  ASSERT_EQ(s2.kind, SubmitOutcome::Kind::accepted);
  ASSERT_TRUE(core.run_one());
  const PollOutcome p2 = core.poll(7, s2.request_id);
  ASSERT_EQ(p2.kind, PollOutcome::Kind::failed);
  EXPECT_EQ(p2.code, wire::ErrorCode::analysis_failed);
  EXPECT_LE(p2.message.size(), wire::kMaxErrorMessageBytes);

  auto wrong_slots = packed_submit_from_archive(branch_archive(), "branch");
  wrong_slots.slots -= 1;
  wrong_slots.values.resize(static_cast<std::size_t>(wrong_slots.slots) *
                            wrong_slots.repetitions *
                            wrong_slots.event_names.size());
  const SubmitOutcome s3 = core.submit(7, std::move(wrong_slots));
  ASSERT_EQ(s3.kind, SubmitOutcome::Kind::accepted);
  ASSERT_TRUE(core.run_one());
  const PollOutcome p3 = core.poll(7, s3.request_id);
  ASSERT_EQ(p3.kind, PollOutcome::Kind::failed);
  EXPECT_EQ(p3.code, wire::ErrorCode::bad_request);
}

TEST(ServiceCore, JsonSubmitWithAnotherBasisIsRefused) {
  // A JSON archive carries its own expectation matrix, but the analysis
  // runs against the catalog's: an archive whose basis differs from the
  // category's is refused, not analyzed against a basis it does not hold.
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  core::MeasurementArchive archive = branch_archive();
  archive.expectation(0, 0) += 1.0;
  wire::SubmitBody body;
  body.kind = wire::SubmitKind::json;
  body.category = "branch";
  body.archive_json = core::save_archive(archive);
  const SubmitOutcome submitted = core.submit(7, std::move(body));
  ASSERT_EQ(submitted.kind, SubmitOutcome::Kind::accepted);
  ASSERT_TRUE(core.run_one());
  const PollOutcome done = core.poll(7, submitted.request_id);
  ASSERT_EQ(done.kind, PollOutcome::Kind::failed);
  EXPECT_EQ(done.code, wire::ErrorCode::bad_request);
}

TEST(ServiceCore, ForgetSessionReleasesItsWork) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  const auto body = packed_submit_from_archive(branch_archive(), "branch");
  const SubmitOutcome a = core.submit(7, body);
  const SubmitOutcome b = core.submit(7, body);
  ASSERT_EQ(a.kind, SubmitOutcome::Kind::accepted);
  ASSERT_EQ(b.kind, SubmitOutcome::Kind::accepted);
  core.forget_session(7);
  EXPECT_EQ(core.queued_count(), 0u);
  EXPECT_EQ(core.poll(7, a.request_id).kind, PollOutcome::Kind::unknown);
  EXPECT_FALSE(core.run_one());
}

TEST(ServiceCore, ShutdownDrainsCheckpointsAndRestores) {
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "/catalyst_service_ckpt_test";
  fs::remove_all(dir);
  faults::FakeClock clock;

  std::string first_text;
  std::uint64_t queued_id_1 = 0, queued_id_2 = 0;
  {
    ServiceCore::Options options = sync_core_options(&clock);
    options.checkpoint_dir = dir;
    ServiceCore core(options);
    EXPECT_EQ(core.restored_requests(), 0u);
    const auto body = packed_submit_from_archive(branch_archive(), "branch");
    const SubmitOutcome a = core.submit(7, body);
    const SubmitOutcome b = core.submit(7, body);
    const SubmitOutcome c = core.submit(7, body);
    ASSERT_EQ(a.kind, SubmitOutcome::Kind::accepted);
    queued_id_1 = b.request_id;
    queued_id_2 = c.request_id;

    ASSERT_TRUE(core.run_one());  // request `a` finishes before the SIGTERM
    core.begin_shutdown();
    core.begin_shutdown();  // idempotent

    // Drained: nothing queued or running; `a`'s result survives to be
    // polled; the queued-unstarted pair is on disk AND answers with the
    // typed truth.
    EXPECT_TRUE(core.drained());
    const PollOutcome done = core.poll(7, a.request_id);
    ASSERT_EQ(done.kind, PollOutcome::Kind::result);
    first_text = done.text;
    const PollOutcome parked = core.poll(7, queued_id_1);
    ASSERT_EQ(parked.kind, PollOutcome::Kind::failed);
    EXPECT_EQ(parked.code, wire::ErrorCode::shutting_down);
    EXPECT_TRUE(fs::exists(dir + "/request-" + std::to_string(queued_id_1) +
                           ".json"));
    EXPECT_TRUE(fs::exists(dir + "/request-" + std::to_string(queued_id_2) +
                           ".json"));
    const SubmitOutcome late = core.submit(7, body);
    EXPECT_EQ(late.kind, SubmitOutcome::Kind::rejected);
    EXPECT_EQ(late.code, wire::ErrorCode::shutting_down);
  }
  EXPECT_EQ(first_text, branch_expected_text());

  // The restarted daemon replays the checkpointed queue in arrival order,
  // under fresh ids' namespace (restored ids are preserved).
  {
    ServiceCore::Options options = sync_core_options(&clock);
    options.checkpoint_dir = dir;
    ServiceCore core(options);
    EXPECT_EQ(core.restored_requests(), 2u);
    EXPECT_EQ(core.queued_count(), 2u);
    // Restored requests are session-0 orphans: ANY session can poll them.
    EXPECT_EQ(core.poll(42, queued_id_1).kind, PollOutcome::Kind::queued);
    ASSERT_TRUE(core.run_one());
    ASSERT_TRUE(core.run_one());
    EXPECT_FALSE(core.run_one());
    const PollOutcome r1 = core.poll(42, queued_id_1);
    const PollOutcome r2 = core.poll(43, queued_id_2);
    ASSERT_EQ(r1.kind, PollOutcome::Kind::result);
    ASSERT_EQ(r2.kind, PollOutcome::Kind::result);
    EXPECT_EQ(r1.text, branch_expected_text());
    EXPECT_EQ(r2.text, branch_expected_text());
    // Consumed checkpoints are gone: a THIRD daemon restores nothing.
    EXPECT_FALSE(fs::exists(dir + "/request-" + std::to_string(queued_id_1) +
                            ".json"));
  }
  {
    ServiceCore::Options options = sync_core_options(&clock);
    options.checkpoint_dir = dir;
    ServiceCore core(options);
    EXPECT_EQ(core.restored_requests(), 0u);
  }
  fs::remove_all(dir);
}

TEST(ServiceCore, CorruptCheckpointIsSkippedNotFatal) {
  namespace fs = std::filesystem;
  const std::string dir =
      ::testing::TempDir() + "/catalyst_service_ckpt_corrupt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  core::write_text_file(dir + "/request-5.json", "{torn write");
  core::write_text_file(dir + "/request-6.json",
                        "{\"format\": \"something-else\"}");
  faults::FakeClock clock;
  ServiceCore::Options options = sync_core_options(&clock);
  options.checkpoint_dir = dir;
  ServiceCore core(options);
  EXPECT_EQ(core.restored_requests(), 0u);
  // The foreign-format file is left alone; the torn one is simply not
  // restorable (the request is lost, the daemon is not).
  EXPECT_TRUE(fs::exists(dir + "/request-6.json"));
  fs::remove_all(dir);
}

// --- byte identity -----------------------------------------------------------

// The acceptance bar: for every Tables V-VIII category, the report rendered
// through the service path equals the CLI-path rendering of the same
// archive, byte for byte.  Both submission encodings are exercised (the
// packed fast path and the JSON archive path must agree with the CLI and
// therefore with each other).
// `analyze --from` reads category_info() instead of category_setup(): it
// must be the setup short of its benchmark, for every category.
TEST(ServiceCatalog, CategoryInfoIsTheSetupWithoutItsBenchmark) {
  for (const std::string& category : category_names()) {
    SCOPED_TRACE(category);
    const auto info = category_info(category);
    const auto setup = category_setup(category);
    ASSERT_TRUE(info.has_value() && setup.has_value());
    EXPECT_EQ(info->benchmark_name, setup->benchmark.name);
    EXPECT_EQ(info->default_machine, setup->default_machine);
    EXPECT_TRUE(is_machine_name(info->default_machine));
    EXPECT_EQ(info->options.tau, setup->options.tau);
    EXPECT_EQ(info->options.alpha, setup->options.alpha);
    EXPECT_EQ(info->options.projection_max_error,
              setup->options.projection_max_error);
    EXPECT_EQ(info->options.fitness_threshold,
              setup->options.fitness_threshold);
    ASSERT_EQ(info->signatures.size(), setup->signatures.size());
    for (std::size_t i = 0; i < info->signatures.size(); ++i) {
      EXPECT_EQ(info->signatures[i].name, setup->signatures[i].name);
      EXPECT_EQ(info->signatures[i].coordinates,
                setup->signatures[i].coordinates);
    }
  }
  EXPECT_FALSE(category_info("no_such_category").has_value());
  EXPECT_FALSE(is_machine_name("no_such_machine"));
}

TEST(ServiceByteIdentity, TablesCategoriesMatchCliRendering) {
  faults::FakeClock clock;
  ServiceCore core(sync_core_options(&clock));
  const char* const categories[] = {"cpu_flops", "branch", "dcache",
                                    "icache"};
  std::size_t index = 0;
  for (const char* category : categories) {
    SCOPED_TRACE(category);
    const auto setup = category_setup(category);
    ASSERT_TRUE(setup.has_value());
    const auto machine = machine_by_name(setup->default_machine);
    const auto result = core::run_pipeline(*machine, setup->benchmark,
                                           setup->signatures, setup->options);
    const core::MeasurementArchive archive =
        core::make_archive(*machine, setup->benchmark, result);
    const std::string cli_text = render_result(
        core::analyze_archive(archive, setup->signatures, setup->options));

    wire::SubmitBody body;
    if (index % 2 == 0) {
      body = packed_submit_from_archive(archive, category);
    } else {
      body.kind = wire::SubmitKind::json;
      body.category = category;
      body.archive_json = core::save_archive(archive);
    }
    // Round-trip through the WIRE encoding too: what the daemon decodes is
    // what a real client would have sent.
    const SubmitOutcome submitted =
        core.submit(1, wire::decode_submit(wire::encode_submit(body)));
    ASSERT_EQ(submitted.kind, SubmitOutcome::Kind::accepted);
    ASSERT_TRUE(core.run_one());
    const PollOutcome done = core.poll(1, submitted.request_id);
    ASSERT_EQ(done.kind, PollOutcome::Kind::result);
    EXPECT_EQ(done.text, cli_text)
        << "service path must render bit-identically to the CLI path";
    ++index;
  }
}

}  // namespace
}  // namespace catalyst::service
