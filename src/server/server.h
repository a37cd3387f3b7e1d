// The tchimera socket server: an epoll front end over the concurrent
// engine (query/session.h).
//
// Threading model (sized for "many connections, few cores"): run to
// completion. Each of the worker_threads workers owns an epoll set, ONE
// pooled Session (Sessions are single-threaded; the worker count bounds
// concurrent statement execution) and the connections dealt to it. It
// reads, decodes, executes and writes each reply itself; only a short
// write stays buffered and arms EPOLLOUT. No connection state is touched
// by two threads, so connections need no locks. The listening socket
// sits in every worker's epoll set (EPOLLEXCLUSIVE); the worker that
// accepts deals the connection round-robin through the next worker's
// mailbox (a locked vector plus an eventfd, which also carries Stop()),
// so connections opened back to back land on different workers.
//
// Head-of-line blocking is the price: a long statement, or a durable
// write waiting for its fdatasync, delays the other connections of its
// worker, never those of another worker.
//
// Ordering: one request in flight per connection. Each epoll round a
// worker admits at most one request per ready connection, executes the
// admitted ones in order, and decodes a connection's next buffered frame
// only after its reply is queued: a pipelining client gets responses in
// request order, and one that outruns execution is throttled by TCP.
//
// Backpressure (admission control) — the server sheds load instead of
// queueing without bound:
//   * admitted requests not yet executing, counted over all workers,
//     >= max_pending_requests                     → retryable error frame
//   * group-commit backlog (enqueued - durable) > max_commit_backlog,
//     for durable statements only                 → retryable error frame
// Both are counted in ServerStats::admission_rejections; the client is
// expected to back off and resend (client.h does).
//
// Conflict policy: pooled Sessions run WriteRetryPolicy{1, false}, so an
// optimistic validation loss surfaces kConflict to the *server* loop,
// which retries up to conflict_retry_budget times. An exhausted budget
// becomes a retryable wire error — backpressure to the client — instead
// of the embedded default of convoying every loser on the writer lock.
//
// A protocol violation (oversized length prefix, unknown frame type,
// garbage bytes) gets a best-effort error frame and a close; a client
// that stops reading until its output buffer exceeds
// max_output_buffer_bytes is closed as a slow reader. Neither path can
// leak a pooled session: sessions belong to workers, never to
// connections.
#ifndef TCHIMERA_SERVER_SERVER_H_
#define TCHIMERA_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"

namespace tchimera {

class Engine;

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; Server::port() reports the real one
  int listen_backlog = 1024;

  // Worker threads == number of pooled Sessions == max concurrent
  // statement executions. Small on purpose: throughput comes from group
  // commit, not from thousands of threads convoying on the writer lock.
  int worker_threads = 4;

  // Admission control. max_pending_requests bounds the requests, over all
  // workers, that are decoded and admitted but not yet executing (0 =
  // admit nothing).
  size_t max_pending_requests = 256;
  uint64_t max_commit_backlog = 1024;
  // Probe for the group-commit backlog (enqueued - durable). Unset =
  // no durability-based admission (in-memory serving).
  std::function<uint64_t()> commit_backlog;

  // Conflict-retry budget per request (total optimistic attempts).
  int conflict_retry_budget = 5;

  // Wire limits.
  size_t max_frame_bytes = 1 << 20;          // 1 MiB statement cap
  size_t max_output_buffer_bytes = 4 << 20;  // slow-reader close threshold
};

// All counters are cumulative since Start(); readable at any time.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> results{0};
  std::atomic<uint64_t> error_frames{0};
  // Retryable rejections from admission control (both limits).
  std::atomic<uint64_t> admission_rejections{0};
  // kConflict losses retried inside the server's budget...
  std::atomic<uint64_t> conflict_retries{0};
  // ...and requests whose budget ran out (surfaced as retryable errors).
  std::atomic<uint64_t> conflict_budget_exhausted{0};
  std::atomic<uint64_t> protocol_errors{0};
  std::atomic<uint64_t> slow_reader_closes{0};
};

class Server {
 public:
  // Serves `engine`, which must outlive the server. The engine's commit
  // sink / recovery wiring is the caller's job (tools/tchimera_serve.cpp
  // is the canonical assembly).
  Server(Engine* engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and spawns the worker threads.
  Status Start();
  // Stops accepting, lets each worker finish its current round, closes
  // every connection, joins all threads. Idempotent.
  void Stop();

  // The bound port (after Start; resolves port 0).
  uint16_t port() const { return port_; }
  const ServerStats& stats() const { return stats_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServerStats stats_;
  uint16_t port_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_SERVER_SERVER_H_
