// catalyst/service -- the catalyst-wire-v2 framing layer.
//
// catalystd speaks a length-prefixed binary protocol over a Unix-domain
// socket.  Every frame is
//
//   magic   u32 LE  0x4C544143 ("CATL")
//   version u16 LE  2
//   type    u16 LE  FrameType
//   length  u32 LE  payload byte count
//   crc32   u32 LE  CRC-32 (IEEE) of the payload bytes
//   payload length bytes
//
// The 16-byte header is fixed (version currently 3); everything that can go
// wrong -- truncated frames, garbage magic, future versions, absurd
// lengths, corrupt payloads -- is detected HERE, before any payload byte is
// interpreted, and surfaces as a typed DecodeError the session turns into
// an ERROR frame.  The decoder is incremental (feed() arbitrary byte
// slices) and never throws on wire data: a daemon must not be crashable by
// anything a client sends.
//
// Payload encodings are little-endian and length-prefixed throughout; the
// SUBMIT payload carries either a packed binary measurement block (the hot
// path -- decoding is a bounds-checked memcpy, never a JSON parse) or a
// JSON measurement archive (compatibility with `catalyst collect` output).
//
// Version history: v1 shipped frame types 1-12 (handshake, submit/poll/
// cancel, results).  v2 adds live telemetry -- a client trace id in SUBMIT
// (echoed in RESULT), STATS/STATS_OK metrics scraping, and TRACE/TRACE_OK
// per-request trace fetch.  v3 adds the collection-mode byte to SUBMIT
// (counting / sampling / strobed, vpapi/sampling.hpp) so the daemon can
// record how a submission's measurements were collected.  The version is a
// strict equality check at the header stage; every codec in this
// repository compiles against one kVersion, so mixed-version peers fail
// fast with bad_version instead of misparsing each other.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace catalyst::service::wire {

inline constexpr std::uint32_t kMagic = 0x4C544143u;  // "CATL" little-endian.
inline constexpr std::uint16_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 16;

/// Hard ceiling on a frame payload.  Anything larger is load-shed at the
/// header stage -- the decoder refuses to even buffer the payload, so a
/// hostile length field cannot make the daemon allocate.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

enum class FrameType : std::uint16_t {
  hello = 1,        ///< client -> server: protocol + client name.
  hello_ok = 2,     ///< server -> client: accepted; server banner.
  submit = 3,       ///< client -> server: one analysis request.
  accepted = 4,     ///< server -> client: request id assigned.
  poll = 5,         ///< client -> server: ask about a request id.
  pending = 6,      ///< server -> client: still queued / analyzing.
  result = 7,       ///< server -> client: rendered analysis report.
  error = 8,        ///< server -> client: typed failure.
  cancel = 9,       ///< client -> server: abandon a request id.
  cancelled = 10,   ///< server -> client: cancellation acknowledged.
  retry_after = 11, ///< server -> client: queue full, back off.
  bye = 12,         ///< either direction: orderly goodbye.
  stats = 13,       ///< client -> server: scrape the live metrics (v2).
  stats_ok = 14,    ///< server -> client: metrics exposition JSON (v2).
  trace = 15,       ///< client -> server: fetch one request's trace (v2).
  trace_ok = 16,    ///< server -> client: Chrome trace fragment JSON (v2).
};

/// Everything that can be wrong with a request, as seen on the wire.
/// Stable numeric values -- they are the protocol, not an implementation
/// detail.
enum class ErrorCode : std::uint16_t {
  malformed_frame = 1,   ///< Bad magic / garbage header.
  bad_version = 2,       ///< Frame version != kVersion.
  bad_crc = 3,           ///< Payload checksum mismatch.
  oversized_frame = 4,   ///< Length field beyond the payload ceiling.
  quota_exceeded = 5,    ///< Per-session byte / inflight quota hit.
  bad_state = 6,         ///< Frame type illegal in the session's state.
  bad_request = 7,       ///< Payload decoded but is semantically invalid.
  unknown_request = 8,   ///< POLL/CANCEL for an id this session never got.
  deadline_exceeded = 9, ///< Request or session deadline passed.
  cancelled = 10,        ///< Request was cancelled before completing.
  analysis_failed = 11,  ///< The pipeline itself rejected the data.
  shutting_down = 12,    ///< Daemon is draining; resubmit elsewhere/later.
};

const char* to_string(FrameType type) noexcept;
const char* to_string(ErrorCode code) noexcept;

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF).  crc32 of
/// "123456789" is 0xCBF43926 -- the standard check value, asserted in
/// tests.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

struct Frame {
  FrameType type = FrameType::error;
  std::string payload;
};

/// Serializes one frame (header + payload), ready to write to the socket.
std::string encode_frame(FrameType type, const std::string& payload);

/// Why the decoder gave up on a connection.  After an error the decoder is
/// poisoned: the byte stream has lost framing, so the only safe move is to
/// report and close (resynchronising on attacker-controlled bytes is how
/// parsers get confused).
struct DecodeError {
  ErrorCode code = ErrorCode::malformed_frame;
  std::string message;  ///< Bounded; safe to echo into an ERROR frame.
};

/// Incremental frame parser.  feed() buffers bytes and surfaces complete
/// frames via next(); any malformation sets error() and discards the rest.
class FrameDecoder {
 public:
  /// `max_payload` lets a session impose a quota tighter than the protocol
  /// ceiling (it is clamped to kMaxPayloadBytes).
  explicit FrameDecoder(std::uint32_t max_payload = kMaxPayloadBytes);

  /// Consumes a byte slice.  Safe to call after an error (bytes are
  /// dropped).
  void feed(const char* data, std::size_t size);

  /// Pops the next complete frame, if any.
  std::optional<Frame> next();

  /// Set once the stream is unrecoverable; sticky.
  const std::optional<DecodeError>& error() const noexcept { return error_; }

  /// True while a frame is partially buffered (header or payload): the
  /// slow-loris detector asks this to distinguish "idle between frames"
  /// from "dribbling a frame byte by byte".
  bool mid_frame() const noexcept { return !buffer_.empty(); }

  /// Bytes consumed over the decoder's lifetime (session byte quotas).
  std::uint64_t bytes_consumed() const noexcept { return bytes_consumed_; }

 private:
  void fail(ErrorCode code, std::string message);

  std::uint32_t max_payload_;
  std::string buffer_;
  std::deque<Frame> ready_;
  std::optional<DecodeError> error_;
  std::uint64_t bytes_consumed_ = 0;
};

// --- payload codecs ---------------------------------------------------------
// Append/read little-endian scalars and length-prefixed strings.  The `Get`
// cursor is bounds-checked: running off the end throws PayloadError, which
// the session maps to ErrorCode::bad_request (the frame itself was sound;
// its contents were not).

class PayloadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void put_u8(std::string& out, std::uint8_t v);
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);
void put_string(std::string& out, const std::string& s);  ///< u32 len + bytes.

class Get {
 public:
  explicit Get(const std::string& payload) : data_(payload) {}
  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Reads n doubles in one bounds check (a bulk memcpy on little-endian
  /// hosts) -- the packed-SUBMIT hot path.
  void f64_block(double* out, std::size_t n);
  std::string string(std::size_t max_len = kMaxPayloadBytes);
  bool done() const noexcept { return pos_ == data_.size(); }
  /// Throws PayloadError unless every byte was consumed (trailing garbage
  /// in a payload is a malformation, not padding).
  void expect_done() const;

 private:
  const std::string& data_;
  std::size_t pos_ = 0;
};

// --- request payloads -------------------------------------------------------

/// How the measurements of a SUBMIT are encoded.
enum class SubmitKind : std::uint8_t {
  packed = 0,  ///< Binary block; decoding is bounds-checked memcpy.
  json = 1,    ///< A catalyst-measurements-v{1,2} archive.
};

/// A decoded SUBMIT.  `category` names a catalog entry (the server resolves
/// benchmark basis, signatures, and default thresholds from it -- every
/// analysis runs against the catalog's basis, and a JSON archive whose own
/// expectation matrix differs from it is refused as bad_request, so a
/// request cannot smuggle an inconsistent one).
struct SubmitBody {
  SubmitKind kind = SubmitKind::packed;
  std::string category;
  std::uint64_t deadline_ns = 0;  ///< 0 = server default analysis timeout.
  /// Client-chosen trace id (0 = untraced).  Stamped onto every span the
  /// request touches server-side and echoed in the RESULT frame, so the
  /// whole request can be fetched later with TRACE.
  std::uint64_t trace_id = 0;
  /// How the submitted measurements were collected (v3): a
  /// vpapi::CollectionMode value (0 counting, 1 sampling, 2 strobed).
  /// Values above 2 are rejected at decode as bad_request.
  std::uint8_t collection_mode = 0;
  // kind == json:
  std::string archive_json;
  // kind == packed: the measurements as one block in (event, repetition,
  // slot) row-major order -- vpapi::Measurements' own order, so the block
  // is the tensor's storage as is.
  std::vector<std::string> event_names;
  std::uint32_t repetitions = 0;
  std::uint32_t slots = 0;
  std::vector<double> values;
};

std::string encode_submit(const SubmitBody& body);
/// Throws PayloadError on any inconsistency (lengths, counts, overflow).
SubmitBody decode_submit(const std::string& payload);

/// ERROR payload: request id (0 = session-scoped), code, bounded message.
struct ErrorBody {
  std::uint64_t request_id = 0;
  ErrorCode code = ErrorCode::malformed_frame;
  std::string message;
};
std::string encode_error(const ErrorBody& body);
ErrorBody decode_error(const std::string& payload);

/// Hard ceiling on an outgoing ERROR message -- the bounded-excerpt rule of
/// core::ArchiveError applied at the wire: no failure may echo a multi-GB
/// submission back at its sender.
inline constexpr std::size_t kMaxErrorMessageBytes = 512;

}  // namespace catalyst::service::wire
