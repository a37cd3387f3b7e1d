#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "query/parser.h"
#include "query/session.h"
#include "server/net.h"
#include "server/wire.h"

namespace tchimera {
namespace {

// epoll data.u64 sentinels for a worker's two non-connection fds.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kMailboxId = 1;
constexpr uint64_t kFirstConnId = 2;

// True when the statement would join the group-commit pipeline. A parse
// error is not durable: it fails in Execute without touching the sink.
bool IsDurable(std::string_view statement) {
  Result<Statement> parsed = ParseStatement(statement);
  return parsed.ok() && TraitsOf(parsed->kind).durable;
}

struct Conn {
  uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  std::string out;      // encoded frames not yet fully written
  size_t out_off = 0;   // bytes of `out` already written
  bool close_after_flush = false;
  uint32_t armed = 0;   // epoll events currently registered

  explicit Conn(size_t max_frame) : reader(max_frame) {}
};

// A request that passed admission, waiting for this round's execution.
struct Admitted {
  uint64_t conn_id = 0;
  std::string statement;
};

// What decoding a connection's buffered frames left it in.
enum class Decoded { kClosed, kDrained, kAdmitted };

}  // namespace

struct Server::Impl {
  struct Worker;

  Engine* engine;
  ServerOptions opts;
  ServerStats* stats;

  int listen_fd = -1;
  std::vector<std::unique_ptr<Worker>> workers;
  std::atomic<bool> stop{false};
  bool started = false;
  // Requests decoded and admitted but not yet executing, server-wide:
  // the quantity max_pending_requests bounds.
  std::atomic<size_t> pending{0};
  // Round-robin cursor for dealing accepted connections.
  std::atomic<size_t> next_worker{0};

  Impl(Engine* e, ServerOptions o, ServerStats* s)
      : engine(e), opts(std::move(o)), stats(s) {}

  // Closes every fd Start opened; the worker threads must be joined.
  void CloseFds();
};

// One thread with its own epoll set, pooled Session and connections. It
// reads, decodes, executes and writes its connections' requests itself;
// the only cross-thread traffic is the mailbox.
struct Server::Impl::Worker {
  Impl& srv;
  int epoll_fd = -1;
  // Mailbox: connections dealt here by another worker's accept, plus
  // Stop()'s wake, both signalled on `event_fd`.
  int event_fd = -1;
  std::mutex mailbox_mu;
  std::vector<int> mailbox;

  // Owner-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  uint64_t next_id = kFirstConnId;
  std::vector<Admitted> admitted;

  std::thread thread;  // runs Run(); declared after what it uses

  explicit Worker(Impl& s) : srv(s) {}

  Status Open() {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    event_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    // EPOLLEXCLUSIVE: a new connection wakes one waiting worker, not all.
    if (epoll_fd < 0 || event_fd < 0 ||
        !Watch(srv.listen_fd, EPOLLIN | EPOLLEXCLUSIVE, kListenId) ||
        !Watch(event_fd, EPOLLIN, kMailboxId)) {
      return Status::IoError(std::string("worker epoll setup: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

  // Adds `fd` to the epoll set under `id`.
  bool Watch(int fd, uint32_t events, uint64_t id) {
    struct epoll_event ev {};
    ev.events = events;
    ev.data.u64 = id;
    return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  void Wake() {
    uint64_t one = 1;
    ssize_t n;
    do {
      n = ::write(event_fd, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  }

  // --- connection output ------------------------------------------------

  // Reads stay armed until a close is scheduled; writes are armed only
  // while a short write left output pending.
  void UpdateEvents(Conn* c) {
    struct epoll_event ev {};
    ev.events = EPOLLRDHUP;
    if (!c->close_after_flush) ev.events |= EPOLLIN;
    if (c->out_off < c->out.size()) ev.events |= EPOLLOUT;
    if (c->armed == ev.events) return;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
      c->armed = ev.events;
    }
  }

  void CloseConn(Conn* c) {
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    CloseFd(c->fd);
    srv.stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
    conns.erase(c->id);  // destroys *c
  }

  // Writes as much pending output as the socket takes. Returns false if
  // the connection was closed (error, or flush-then-close completed).
  bool FlushOutput(Conn* c) {
    while (c->out_off < c->out.size()) {
      ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                         c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(c);
        return false;
      }
      c->out_off += static_cast<size_t>(n);
    }
    if (c->out_off == c->out.size()) {
      c->out.clear();
      c->out_off = 0;
      if (c->close_after_flush) {
        CloseConn(c);
        return false;
      }
    }
    return true;
  }

  // Queues an encoded frame on the connection, enforcing the slow-reader
  // bound. Returns false if the connection was closed.
  bool QueueOutput(Conn* c, std::string_view frame) {
    c->out.append(frame);
    if (c->out.size() - c->out_off > srv.opts.max_output_buffer_bytes) {
      srv.stats->slow_reader_closes.fetch_add(1, std::memory_order_relaxed);
      CloseConn(c);
      return false;
    }
    return FlushOutput(c);
  }

  // A retryable admission rejection.
  Decoded Reject(Conn* c, std::string_view message) {
    srv.stats->admission_rejections.fetch_add(1, std::memory_order_relaxed);
    std::string frame;
    AppendError(&frame, StatusCode::kUnavailable, true, message);
    srv.stats->error_frames.fetch_add(1, std::memory_order_relaxed);
    return QueueOutput(c, frame) ? Decoded::kDrained : Decoded::kClosed;
  }

  // Best-effort error frame, then close once it drains.
  Decoded SendErrorAndClose(Conn* c, std::string_view message) {
    std::string frame;
    AppendError(&frame, StatusCode::kInvalidArgument, false, message);
    srv.stats->error_frames.fetch_add(1, std::memory_order_relaxed);
    c->close_after_flush = true;
    if (!QueueOutput(c, frame)) return Decoded::kClosed;
    UpdateEvents(c);
    return Decoded::kDrained;
  }

  // --- request input ----------------------------------------------------

  // One request frame: admission control, then onto this round's
  // execute list.
  Decoded HandleRequest(Conn* c, std::string&& payload) {
    srv.stats->requests.fetch_add(1, std::memory_order_relaxed);
    if (payload.empty()) {
      srv.stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return SendErrorAndClose(c, "request frame missing flags byte");
    }
    // Byte 0 is the reserved flags byte (wire.h): ignored.
    std::string statement = payload.substr(1);

    // Admission: too many requests waiting to execute rejects
    // everything...
    if (srv.pending.fetch_add(1, std::memory_order_acq_rel) >=
        srv.opts.max_pending_requests) {
      srv.pending.fetch_sub(1, std::memory_order_acq_rel);
      return Reject(c, "server overloaded: request queue full, retry");
    }
    // ...and a saturated group-commit pipeline rejects statements that
    // would join it (reads still flow: they never touch the sink). Only
    // an over-limit backlog pays for the parse that classifies.
    if (srv.opts.commit_backlog &&
        srv.opts.commit_backlog() > srv.opts.max_commit_backlog &&
        IsDurable(statement)) {
      srv.pending.fetch_sub(1, std::memory_order_acq_rel);
      return Reject(c, "server overloaded: commit backlog full, retry");
    }
    admitted.push_back(Admitted{c->id, std::move(statement)});
    return Decoded::kAdmitted;
  }

  // Decodes buffered frames up to the first admitted request: one request
  // in flight per connection keeps a pipelining client's replies in
  // request order.
  Decoded DecodeFrames(Conn* c) {
    Frame frame;
    while (!c->close_after_flush) {
      FrameReader::Outcome outcome = c->reader.Next(&frame);
      if (outcome == FrameReader::Outcome::kNeedMore) break;
      if (outcome == FrameReader::Outcome::kBad) {
        srv.stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return SendErrorAndClose(c, c->reader.error().message());
      }
      switch (frame.type) {
        case FrameType::kPing: {
          std::string pong;
          AppendFrame(&pong, FrameType::kPong, "");
          if (!QueueOutput(c, pong)) return Decoded::kClosed;
          break;
        }
        case FrameType::kRequest: {
          Decoded d = HandleRequest(c, std::move(frame.payload));
          if (d != Decoded::kDrained) return d;
          break;
        }
        default:
          // Server-to-client types arriving at the server are as dead a
          // stream as an unknown byte.
          srv.stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
          return SendErrorAndClose(c, "unexpected frame type from client");
      }
    }
    return Decoded::kDrained;
  }

  // Reads until the socket is drained or a request is admitted. Bytes
  // after an admitted request stay in the kernel (TCP throttles a client
  // that outruns execution); level-triggered epoll reports them again
  // next round.
  void HandleReadable(Conn* c) {
    char buf[16384];
    while (true) {
      ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        CloseConn(c);
        return;
      }
      if (n == 0) {  // orderly EOF
        CloseConn(c);
        return;
      }
      c->reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
      Decoded d = DecodeFrames(c);
      if (d == Decoded::kClosed) return;
      if (d == Decoded::kAdmitted) break;
    }
    UpdateEvents(c);
  }

  // --- connections in ---------------------------------------------------

  void AcceptAll() {
    while (true) {
      int fd = ::accept4(srv.listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: drained (or another worker won the race). Anything
        // else (EMFILE, ECONNABORTED): skip this round rather than take
        // the accept loop down.
        return;
      }
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      size_t next = srv.next_worker.fetch_add(1, std::memory_order_relaxed);
      Worker* owner = srv.workers[next % srv.workers.size()].get();
      if (owner == this) {
        Adopt(fd);
        continue;
      }
      {
        std::lock_guard<std::mutex> lk(owner->mailbox_mu);
        owner->mailbox.push_back(fd);
      }
      owner->Wake();
    }
  }

  void Adopt(int fd) {
    auto conn = std::make_unique<Conn>(srv.opts.max_frame_bytes);
    conn->id = next_id++;
    conn->fd = fd;
    Conn* c = conn.get();
    c->armed = EPOLLIN | EPOLLRDHUP;
    if (!Watch(fd, c->armed, c->id)) {
      CloseFd(fd);
      return;
    }
    conns.emplace(c->id, std::move(conn));
    srv.stats->connections_accepted.fetch_add(1, std::memory_order_relaxed);
    if (!QueueOutput(c, EncodeHello())) return;
    UpdateEvents(c);
  }

  void DrainMailbox() {
    uint64_t drain;
    while (::read(event_fd, &drain, sizeof(drain)) > 0) {
    }
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lk(mailbox_mu);
      fds.swap(mailbox);
    }
    for (int fd : fds) Adopt(fd);
  }

  // --- execution --------------------------------------------------------

  // Runs one statement within the conflict-retry budget and returns the
  // encoded reply frame.
  std::string Execute(Session& session, const std::string& statement) {
    const int budget = std::max(1, srv.opts.conflict_retry_budget);
    Result<std::string> result = Status::Unavailable("request not executed");
    bool exhausted = false;
    for (int attempt = 1;; ++attempt) {
      result = session.Execute(statement);
      if (result.ok() || result.status().code() != StatusCode::kConflict) {
        break;
      }
      if (attempt >= budget) {
        exhausted = true;
        srv.stats->conflict_budget_exhausted.fetch_add(
            1, std::memory_order_relaxed);
        break;
      }
      srv.stats->conflict_retries.fetch_add(1, std::memory_order_relaxed);
    }
    std::string frame;
    if (result.ok()) {
      AppendFrame(&frame, FrameType::kResult, result.value());
      srv.stats->results.fetch_add(1, std::memory_order_relaxed);
    } else {
      const Status& s = result.status();
      std::string message = s.message();
      if (exhausted) {
        message += " (conflict-retry budget of " + std::to_string(budget) +
                   " attempts exhausted)";
      }
      AppendError(&frame, s.code(), IsRetryableStatus(s.code()), message);
      srv.stats->error_frames.fetch_add(1, std::memory_order_relaxed);
    }
    return frame;
  }

  // One epoll round: read and admit one request per ready connection,
  // then execute them in admission order. A connection whose reply went
  // out decodes its next buffered request onto the end of the list.
  void Run() {
    Session session = srv.engine->OpenSession();
    // One optimistic attempt per Execute, never the exclusive fallback:
    // the *server* owns the retry budget, and a hopeless statement should
    // become client backpressure, not a writer-lock convoy.
    session.set_write_retry_policy(WriteRetryPolicy{1, false});
    constexpr int kMaxEvents = 256;
    struct epoll_event events[kMaxEvents];
    while (!srv.stop.load(std::memory_order_acquire)) {
      int n = ::epoll_wait(epoll_fd, events, kMaxEvents, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        uint64_t id = events[i].data.u64;
        if (id == kListenId) {
          AcceptAll();
          continue;
        }
        if (id == kMailboxId) {
          DrainMailbox();
          continue;
        }
        auto it = conns.find(id);
        if (it == conns.end()) continue;  // closed earlier this round
        Conn* c = it->second.get();
        uint32_t ev = events[i].events;
        if (ev & (EPOLLERR | EPOLLHUP)) {
          CloseConn(c);
          continue;
        }
        if (ev & EPOLLOUT) {
          if (!FlushOutput(c)) continue;
          UpdateEvents(c);
        }
        if (ev & (EPOLLIN | EPOLLRDHUP)) HandleReadable(c);
      }
      // The list grows while it runs: index, and move each entry out
      // before anything can append.
      for (size_t i = 0; i < admitted.size(); ++i) {
        Admitted request = std::move(admitted[i]);
        srv.pending.fetch_sub(1, std::memory_order_acq_rel);
        std::string frame = Execute(session, request.statement);
        auto it = conns.find(request.conn_id);
        if (it == conns.end()) continue;
        Conn* c = it->second.get();
        if (!QueueOutput(c, frame)) continue;
        if (DecodeFrames(c) == Decoded::kClosed) continue;
        UpdateEvents(c);
      }
      admitted.clear();
    }
    // Teardown on the owning thread: every connection state lives here.
    for (auto& [id, conn] : conns) {
      CloseFd(conn->fd);
      srv.stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
    }
    conns.clear();
  }
};

void Server::Impl::CloseFds() {
  for (std::unique_ptr<Worker>& w : workers) {
    // Connections dealt to a worker after it stopped were never adopted.
    for (int fd : w->mailbox) CloseFd(fd);
    CloseFd(w->epoll_fd);
    CloseFd(w->event_fd);
  }
  workers.clear();
  CloseFd(listen_fd);
  listen_fd = -1;
}

Server::Server(Engine* engine, ServerOptions options)
    : impl_(std::make_unique<Impl>(engine, std::move(options), &stats_)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (impl_->started) return Status::InvalidArgument("server already started");
  IgnoreSigpipe();
  TCH_ASSIGN_OR_RETURN(impl_->listen_fd,
                       ListenTcp(impl_->opts.host, impl_->opts.port,
                                 impl_->opts.listen_backlog));
  Result<uint16_t> port = LocalPort(impl_->listen_fd);
  if (!port.ok()) {
    impl_->CloseFds();
    return port.status();
  }
  port_ = port.value();
  const int n_workers = std::max(1, impl_->opts.worker_threads);
  // Every worker's fds exist before any thread runs: the first accept may
  // deal to any of them.
  for (int i = 0; i < n_workers; ++i) {
    impl_->workers.push_back(std::make_unique<Impl::Worker>(*impl_));
    Status s = impl_->workers.back()->Open();
    if (!s.ok()) {
      impl_->CloseFds();
      return s;
    }
  }
  for (std::unique_ptr<Impl::Worker>& w : impl_->workers) {
    w->thread = std::thread([worker = w.get()] { worker->Run(); });
  }
  impl_->started = true;
  return Status::OK();
}

void Server::Stop() {
  if (!impl_ || !impl_->started) return;
  impl_->stop.store(true, std::memory_order_release);
  for (std::unique_ptr<Impl::Worker>& w : impl_->workers) w->Wake();
  for (std::unique_ptr<Impl::Worker>& w : impl_->workers) {
    if (w->thread.joinable()) w->thread.join();
  }
  impl_->CloseFds();
  impl_->started = false;
}

}  // namespace tchimera
