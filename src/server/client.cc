#include "server/client.h"

#include <poll.h>
#include <unistd.h>

#include <thread>

#include "server/net.h"

namespace tchimera {
namespace {

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

Client::Client(int fd, ClientOptions options)
    : fd_(fd), options_(options) {}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ClientOptions options) {
  IgnoreSigpipe();
  TCH_ASSIGN_OR_RETURN(int fd, ConnectTcp(host, port, options.timeout_ms));
  std::unique_ptr<Client> client(new Client(fd, options));
  Frame hello;
  TCH_RETURN_IF_ERROR(client->ReadFrame(&hello));
  if (hello.type != FrameType::kHello) {
    return Status::IoError("server did not open with a hello frame");
  }
  TCH_RETURN_IF_ERROR(DecodeHello(hello.payload));
  return client;
}

Status Client::SendFrame(FrameType type, std::string_view payload) {
  if (fd_ < 0) return Status::Unavailable("client is closed");
  std::string frame;
  AppendFrame(&frame, type, payload);
  Status s = SendAll(fd_, frame, options_.timeout_ms);
  if (!s.ok()) Close();
  return s;
}

Status Client::ReadFrame(Frame* frame) {
  if (fd_ < 0) return Status::Unavailable("client is closed");
  char header[5];
  Status s = RecvExactly(fd_, header, sizeof(header), options_.timeout_ms);
  if (!s.ok()) {
    Close();
    return s;
  }
  uint32_t length = ReadU32(header);
  uint8_t type = static_cast<unsigned char>(header[4]);
  if (length > options_.max_frame_bytes) {
    Close();
    return Status::IoError("reply frame of " + std::to_string(length) +
                           " bytes exceeds the client's " +
                           std::to_string(options_.max_frame_bytes) +
                           "-byte limit");
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload.resize(length);
  if (length > 0) {
    s = RecvExactly(fd_, frame->payload.data(), length, options_.timeout_ms);
    if (!s.ok()) {
      Close();
      return s;
    }
  }
  return Status::OK();
}

Result<std::string> Client::Execute(std::string_view statement) {
  last_error_retryable_ = false;
  std::string payload;
  payload.push_back('\0');  // reserved flags byte (wire.h)
  payload.append(statement);
  TCH_RETURN_IF_ERROR(SendFrame(FrameType::kRequest, payload));
  Frame reply;
  TCH_RETURN_IF_ERROR(ReadFrame(&reply));
  switch (reply.type) {
    case FrameType::kResult:
      return std::move(reply.payload);
    case FrameType::kError: {
      bool retryable = false;
      Status s = DecodeError(reply.payload, &retryable);
      last_error_retryable_ = retryable;
      return s;
    }
    default:
      Close();
      return Status::IoError("unexpected reply frame type");
  }
}

Result<std::string> Client::ExecuteRetrying(std::string_view statement) {
  int backoff_ms = options_.initial_backoff_ms < 1
                       ? 1
                       : options_.initial_backoff_ms;
  Result<std::string> result = Execute(statement);
  for (int attempt = 0;
       !result.ok() && last_error_retryable_ && attempt < options_.max_retries;
       ++attempt) {
    ++retries_absorbed_;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms *= 2;
    if (backoff_ms > options_.max_backoff_ms) {
      backoff_ms = options_.max_backoff_ms;
    }
    result = Execute(statement);
  }
  return result;
}

Status Client::Ping() {
  TCH_RETURN_IF_ERROR(SendFrame(FrameType::kPing, ""));
  Frame reply;
  TCH_RETURN_IF_ERROR(ReadFrame(&reply));
  if (reply.type != FrameType::kPong) {
    Close();
    return Status::IoError("unexpected reply to ping");
  }
  return Status::OK();
}

}  // namespace tchimera
