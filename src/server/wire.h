// The tchimera_serve wire protocol: length-prefixed binary frames.
//
//   frame  := length:u32le  type:u8  payload[length]
//
// `length` counts payload bytes only (not the 5-byte header) and is
// bounded by the receiver (ServerOptions::max_frame_bytes on the server
// side): an oversized prefix is a protocol error, answered with an error
// frame and a close — never an allocation the sender chose the size of.
//
// Frame types:
//
//   kHello   (server→client, once per connection)
//            payload = protocol_version:u32le
//   kRequest (client→server)
//            payload = flags:u8  statement-bytes (UTF-8 TQL)
//            flags is reserved: clients send 0 and the server ignores
//            it, whatever its value.
//   kResult  (server→client) payload = result text of a successful
//            statement (the same text Session::Execute returns —
//            values/results rendered by the engine's printer, which is
//            the serializer the rest of the system shares).
//   kError   (server→client)
//            payload = code:u16le  retryable:u8  message-bytes
//            `code` is the StatusCode; `retryable` is 1 for errors the
//            client should back off and resend (admission-control
//            rejections, an exhausted conflict-retry budget), 0 for
//            errors where resending the same request cannot help.
//   kPing / kPong: liveness, empty payload.
//
// Requests on one connection are answered in order, one frame per
// request. The protocol is deliberately dumb: framing + status codes,
// with all statement semantics in the TQL text — the serializer and
// printers already define the value syntax, so the wire adds nothing to
// re-version when the model grows.
#ifndef TCHIMERA_SERVER_WIRE_H_
#define TCHIMERA_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace tchimera {

inline constexpr uint32_t kWireProtocolVersion = 1;

enum class FrameType : uint8_t {
  kHello = 1,
  kRequest = 2,
  kResult = 3,
  kError = 4,
  kPing = 5,
  kPong = 6,
};

struct Frame {
  FrameType type = FrameType::kRequest;
  std::string payload;
};

// Appends the encoded frame to `out` (append, so a connection's output
// buffer accumulates frames without copies).
void AppendFrame(std::string* out, FrameType type, std::string_view payload);

// Convenience encoders.
std::string EncodeHello();
// A kRequest frame with the reserved flags byte 0.
std::string EncodeRequest(std::string_view statement);
void AppendError(std::string* out, StatusCode code, bool retryable,
                 std::string_view message);

// Decodes a kError payload back into (Status, retryable).
Status DecodeError(std::string_view payload, bool* retryable);
// Decodes a kHello payload; fails on a version this client cannot speak.
Status DecodeHello(std::string_view payload);

// Incremental frame decoder for one connection. Feed bytes as they
// arrive; Next() yields complete frames until the buffer runs dry or the
// stream turns out to be garbage. A FrameReader never allocates more
// than `max_frame_bytes` + one header for a single frame, whatever the
// peer claims in the length prefix.
class FrameReader {
 public:
  explicit FrameReader(size_t max_frame_bytes)
      : max_frame_bytes_(max_frame_bytes) {}

  enum class Outcome {
    kFrame,     // *frame holds the next complete frame
    kNeedMore,  // the buffer holds only a frame prefix — feed more bytes
    kBad,       // protocol violation; error() says what, the stream is dead
  };

  void Feed(std::string_view bytes) { buffer_.append(bytes); }
  Outcome Next(Frame* frame);
  const Status& error() const { return error_; }
  // Bytes buffered but not yet consumed by Next (for input caps).
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
  Status error_;
};

// True for status codes the client should retry after backoff: the
// request was fine, the server's moment was not.
bool IsRetryableStatus(StatusCode code);

}  // namespace tchimera

#endif  // TCHIMERA_SERVER_WIRE_H_
