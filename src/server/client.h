// Client library for the tchimera_serve wire protocol (wire.h).
//
// A Client is one connection: blocking, single-threaded, one request in
// flight (matching the server's per-connection ordering guarantee). Open
// one Client per thread; they are cheap.
//
// Error handling mirrors the server's backpressure contract: Execute()
// returns the server's Status verbatim, and last_error_retryable() says
// whether the server marked it retryable (admission rejection, exhausted
// conflict budget). ExecuteRetrying() packages the polite response —
// exponential backoff and resend — so callers that just want the
// statement to land eventually need one call.
#ifndef TCHIMERA_SERVER_CLIENT_H_
#define TCHIMERA_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "server/wire.h"

namespace tchimera {

struct ClientOptions {
  // Per-socket-operation timeout; also bounds connect. < 0 = no timeout.
  int timeout_ms = 30000;
  // Largest reply frame this client will accept.
  size_t max_frame_bytes = 16 << 20;
  // ExecuteRetrying: attempts and backoff schedule (doubling from
  // initial, capped). Deterministic — clients that need herd-avoiding
  // jitter layer it on top.
  int max_retries = 8;
  int initial_backoff_ms = 2;
  int max_backoff_ms = 200;
};

class Client {
 public:
  // Connects and validates the server's hello frame.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // One statement, one reply. OK = the kResult text; error = the
  // server's Status (or a transport error, which is never retryable —
  // the connection is dead, reconnect instead).
  Result<std::string> Execute(std::string_view statement);

  // Execute with backoff-and-resend on retryable server errors.
  // Transport errors and non-retryable statuses surface immediately.
  Result<std::string> ExecuteRetrying(std::string_view statement);

  // Liveness round-trip.
  Status Ping();

  // Whether the last Execute error carried the server's retryable bit.
  bool last_error_retryable() const { return last_error_retryable_; }
  // Retryable errors absorbed by ExecuteRetrying since construction.
  uint64_t retries_absorbed() const { return retries_absorbed_; }

  // Closes the socket; every later call fails. Idempotent.
  void Close();

 private:
  Client(int fd, ClientOptions options);

  Status SendFrame(FrameType type, std::string_view payload);
  Status ReadFrame(Frame* frame);

  int fd_ = -1;
  ClientOptions options_;
  bool last_error_retryable_ = false;
  uint64_t retries_absorbed_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_SERVER_CLIENT_H_
