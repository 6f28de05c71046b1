// Framed wire protocol for the streaming tuning service.
//
// A wire stream is a header followed by a sequence of frames, mirroring
// the `.dckp` checkpoint container (checkpoint.hpp): magic + version up
// front, then length-prefixed CRC-checked records, then an explicit
// terminator so truncation is always detectable.
//
// Layout (all integers little-endian):
//
//   magic "DCWP" | u32 protocol version
//   repeated frames:  u32 type (FourCC) | u64 payload length
//                     | payload bytes | u32 CRC32(type | length | payload)
//   terminator frame: type "END " with zero length
//
// Unlike the checkpoint sections (whose CRC covers the payload only), a
// frame's CRC also covers its own type and length words: a checkpoint tag
// flip degrades to a skippable/missing section, but a frame-type flip
// would silently turn one imperative into another (one bit separates
// "REQ " from "REP "), so the header itself must be integrity-checked.
//
// Frame types in version 4 (payloads are the service's JSONL objects,
// without the trailing newline):
//
//   "REQ "  client -> server: one tuning request
//   "REP "  server -> client: one session report (+ model, model_epoch)
//   "TELE"  server -> client: versioned telemetry snapshot — one
//           aggregate JSON line ("tele" schema tag + the aggregate
//           metrics fields + build labels) followed by the full
//           name-sorted instrument set, one JSON line per instrument.
//           Emitted at every "FLSH" boundary, in answer to "STAT", and
//           before "END "
//   "STAT"  client -> server: poll an on-demand "TELE" right now, without
//           a flush barrier; payload empty or a flat JSON object
//   "TSER"  server -> client (v3): convergence time-series snapshot —
//           one {"tser":1,...} header line then one flat JSON line per
//           series (obs/timeseries.hpp encoding). Emitted immediately
//           before each "TELE" at "FLSH"/"STAT"/end-of-stream, and only
//           when the server has a TimeSeriesRegistry attached — a server
//           without one produces byte-identical v2-shaped streams
//   "ERR "  server -> client: protocol or parse error description
//   "FLSH"  client -> server: barrier — merge all completed experience
//           into the masters and take bounded fine-tune steps now
//   "END "  either direction: clean end of stream
//   "METR"  server -> client, v1–v3 only: aggregate metrics flat keys,
//           once before "END ". v4 servers no longer emit it; readers
//           still accept it so older streams parse
//
// Unlike the checkpoint reader (which skips unknown *optional* sections),
// the wire reader is strict: an unknown frame type is a typed error. A
// frame is an imperative, not an annotation — silently dropping one would
// turn a corrupt tag byte into a lost request. Evolution happens through
// the version field instead.
//
// Every failure mode — bad magic, newer version, unknown type, oversized
// length, truncation mid-frame, CRC mismatch — raises WireError with a
// message naming the frame; nothing is UB and no attacker-controlled
// length ever reaches an allocation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace deepcat::service {

/// Current writer protocol version. Readers accept any version <= this.
/// v2 added the "TELE" and "STAT" frames; v3 added "TSER" and the
/// optional REQ "trace" context (both additive — v1/v2 streams parse
/// unchanged); v4 stopped emitting "METR" (the final "TELE" carries the
/// same fields).
inline constexpr std::uint32_t kWireVersion = 4;

/// Hard cap on a single frame payload. The JSONL payloads are a few
/// hundred bytes; anything near this limit is a corrupt or hostile length
/// field, refused before allocation.
inline constexpr std::uint64_t kMaxFramePayload = 16ull << 20;

/// Raised on any malformed, truncated or corrupt wire stream.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FrameType : std::uint32_t {
  kRequest = 0x20514552u,    // "REQ "
  kReply = 0x20504552u,      // "REP "
  kMetrics = 0x5254454Du,    // "METR" (read-only since v4)
  kTelemetry = 0x454C4554u,  // "TELE"
  kStat = 0x54415453u,       // "STAT"
  kTimeSeries = 0x52455354u, // "TSER"
  kError = 0x20525245u,      // "ERR "
  kFlush = 0x48534C46u,      // "FLSH"
  kEnd = 0x20444E45u,        // "END "
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Printable name of a frame type ("REQ", "REP", ...); unknown or corrupt
/// tags render their printable bytes with '?' placeholders.
[[nodiscard]] std::string frame_type_name(std::uint32_t tag);

/// True when `tag` is one of the frame types this version understands. The
/// incremental decoder (net/frame_decoder.hpp) shares the istream reader's
/// type table through this so the two parsers can never drift.
[[nodiscard]] bool known_frame_type(std::uint32_t tag) noexcept;

/// Byte-buffer forms of the header/frame writers, for transports that own
/// their output queue instead of a std::ostream (the serving front end's
/// per-connection write buffers). Byte-identical to the stream writers.
[[nodiscard]] std::string encode_stream_header();
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);

/// Writes the stream header (magic + version).
void write_stream_header(std::ostream& os);

/// Reads and validates the stream header. Throws WireError on bad magic,
/// truncation, or a version newer than kWireVersion.
void read_stream_header(std::istream& is);

/// Writes one frame (type, length, payload, CRC).
void write_frame(std::ostream& os, FrameType type, std::string_view payload);

/// Reads the next frame. Returns nullopt on a clean end-of-stream exactly
/// at a frame boundary (zero bytes of a next frame present); whether that
/// EOF is legal is the caller's call — the serve driver requires an
/// explicit "END " frame first. Throws WireError on everything else.
[[nodiscard]] std::optional<Frame> read_frame(std::istream& is);

/// Convenience for tests and clients: encodes header + frames to a string
/// / decodes a whole stream, validating every frame. decode stops at the
/// "END " frame and errors if the stream ends without one.
[[nodiscard]] std::string encode_frames(
    const std::vector<std::pair<FrameType, std::string>>& frames);
[[nodiscard]] std::vector<Frame> decode_frames(const std::string& bytes);

}  // namespace deepcat::service
