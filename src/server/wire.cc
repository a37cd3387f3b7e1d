#include "server/wire.h"

namespace tchimera {
namespace {

void AppendU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

void AppendU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

uint16_t ReadU16(const char* p) {
  return static_cast<uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<uint16_t>(static_cast<unsigned char>(p[1])) << 8));
}

bool KnownType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kPong);
}

}  // namespace

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

std::string EncodeHello() {
  std::string payload;
  AppendU32(&payload, kWireProtocolVersion);
  std::string out;
  AppendFrame(&out, FrameType::kHello, payload);
  return out;
}

std::string EncodeRequest(std::string_view statement) {
  std::string payload;
  payload.push_back('\0');  // reserved flags byte
  payload.append(statement);
  std::string out;
  AppendFrame(&out, FrameType::kRequest, payload);
  return out;
}

void AppendError(std::string* out, StatusCode code, bool retryable,
                 std::string_view message) {
  std::string payload;
  AppendU16(&payload, static_cast<uint16_t>(code));
  payload.push_back(retryable ? '\x01' : '\x00');
  payload.append(message);
  AppendFrame(out, FrameType::kError, payload);
}

Status DecodeError(std::string_view payload, bool* retryable) {
  if (payload.size() < 3) {
    return Status::IoError("malformed error frame (short payload)");
  }
  StatusCode code = static_cast<StatusCode>(ReadU16(payload.data()));
  if (retryable != nullptr) *retryable = payload[2] != '\x00';
  return Status(code, std::string(payload.substr(3)));
}

Status DecodeHello(std::string_view payload) {
  if (payload.size() < 4) {
    return Status::IoError("malformed hello frame (short payload)");
  }
  uint32_t version = ReadU32(payload.data());
  if (version != kWireProtocolVersion) {
    return Status::InvalidArgument("server speaks protocol version " +
                                   std::to_string(version) +
                                   ", this client speaks " +
                                   std::to_string(kWireProtocolVersion));
  }
  return Status::OK();
}

FrameReader::Outcome FrameReader::Next(Frame* frame) {
  if (!error_.ok()) return Outcome::kBad;
  // Drop already-consumed bytes lazily, once they dominate the buffer, so
  // a stream of small frames does not memmove on every call.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  size_t avail = buffer_.size() - consumed_;
  if (avail < 5) return Outcome::kNeedMore;
  const char* p = buffer_.data() + consumed_;
  uint32_t length = ReadU32(p);
  uint8_t type = static_cast<unsigned char>(p[4]);
  // Validate the header *before* waiting for the payload: an oversized
  // length prefix or unknown type is detectable — and must be rejected —
  // from the first five bytes, or a hostile peer could park the
  // connection claiming a 4GiB frame.
  if (length > max_frame_bytes_) {
    error_ = Status::InvalidArgument(
        "frame of " + std::to_string(length) + " bytes exceeds the " +
        std::to_string(max_frame_bytes_) + "-byte limit");
    return Outcome::kBad;
  }
  if (!KnownType(type)) {
    error_ = Status::InvalidArgument("unknown frame type " +
                                     std::to_string(static_cast<int>(type)));
    return Outcome::kBad;
  }
  if (avail < 5 + static_cast<size_t>(length)) return Outcome::kNeedMore;
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(p + 5, length);
  consumed_ += 5 + static_cast<size_t>(length);
  return Outcome::kFrame;
}

bool IsRetryableStatus(StatusCode code) {
  return code == StatusCode::kConflict || code == StatusCode::kUnavailable;
}

}  // namespace tchimera
