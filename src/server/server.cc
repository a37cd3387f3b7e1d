#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "query/parser.h"
#include "query/session.h"
#include "server/net.h"
#include "server/wire.h"

namespace tchimera {
namespace {

// epoll data.u64 sentinels for the two non-connection fds.
constexpr uint64_t kListenId = 0;
constexpr uint64_t kEventId = 1;
constexpr uint64_t kFirstConnId = 2;

// True when the statement would join the group-commit pipeline. A parse
// error is not durable: it fails in the worker without touching the sink.
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
  bool in_flight = false;        // a request is executing on a worker
  bool close_after_flush = false;
  uint32_t armed = 0;   // epoll events currently registered

  explicit Conn(size_t max_frame) : reader(max_frame) {}
};

struct Task {
  uint64_t conn_id = 0;
  std::string statement;
};

struct Completion {
  uint64_t conn_id = 0;
  std::string frame;
};

}  // namespace

struct Server::Impl {
  Engine* engine;
  ServerOptions opts;
  ServerStats* stats;

  int listen_fd = -1;
  int epoll_fd = -1;
  int event_fd = -1;

  std::thread io;
  std::vector<std::thread> workers;
  std::atomic<bool> stop{false};
  bool started = false;

  std::mutex task_mu;
  std::condition_variable task_cv;
  std::deque<Task> tasks;

  std::mutex comp_mu;
  std::deque<Completion> completions;

  // IO-thread-only state.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns;
  uint64_t next_id = kFirstConnId;

  Impl(Engine* e, ServerOptions o, ServerStats* s)
      : engine(e), opts(std::move(o)), stats(s) {}

  // --- IO thread --------------------------------------------------------

  void WakeIo() {
    uint64_t one = 1;
    ssize_t n;
    do {
      n = ::write(event_fd, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  }

  void Arm(Conn* c, uint32_t events) {
    if (c->armed == events) return;
    struct epoll_event ev {};
    ev.events = events;
    ev.data.u64 = c->id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c->fd, &ev) == 0) {
      c->armed = events;
    }
  }

  // Recomputes the connection's epoll interest: reads are parked while a
  // request executes AND the next frame is already buffered (TCP
  // backpressure throttles a client that outruns execution); writes are
  // armed only while output is pending.
  void UpdateEvents(Conn* c) {
    uint32_t events = EPOLLRDHUP;
    bool parked = c->in_flight &&
                  c->reader.buffered() >= opts.max_frame_bytes + 5;
    if (!c->close_after_flush && !parked) events |= EPOLLIN;
    if (c->out_off < c->out.size()) events |= EPOLLOUT;
    Arm(c, events);
  }

  void CloseConn(Conn* c) {
    (void)::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
    CloseFd(c->fd);
    stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
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
    if (c->out.size() - c->out_off > opts.max_output_buffer_bytes) {
      stats->slow_reader_closes.fetch_add(1, std::memory_order_relaxed);
      CloseConn(c);
      return false;
    }
    return FlushOutput(c);
  }

  // Best-effort error frame, then close once it drains.
  bool SendErrorAndClose(Conn* c, StatusCode code, bool retryable,
                         std::string_view message) {
    std::string frame;
    AppendError(&frame, code, retryable, message);
    stats->error_frames.fetch_add(1, std::memory_order_relaxed);
    c->close_after_flush = true;
    if (!QueueOutput(c, frame)) return false;
    UpdateEvents(c);
    return true;
  }

  // One request frame: admission control, then hand to the worker pool.
  // Returns false if the connection was closed.
  bool HandleRequest(Conn* c, std::string&& payload) {
    stats->requests.fetch_add(1, std::memory_order_relaxed);
    if (payload.empty()) {
      stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      return SendErrorAndClose(c, StatusCode::kInvalidArgument, false,
                               "request frame missing flags byte");
    }
    // Byte 0 is the reserved flags byte (wire.h): ignored.
    std::string statement = payload.substr(1);

    // Admission: a full task queue rejects everything...
    size_t depth;
    {
      std::lock_guard<std::mutex> lk(task_mu);
      depth = tasks.size();
    }
    if (depth >= opts.max_pending_requests) {
      stats->admission_rejections.fetch_add(1, std::memory_order_relaxed);
      std::string frame;
      AppendError(&frame, StatusCode::kUnavailable, true,
                  "server overloaded: request queue full, retry");
      stats->error_frames.fetch_add(1, std::memory_order_relaxed);
      if (!QueueOutput(c, frame)) return false;
      return true;
    }
    // ...and a saturated group-commit pipeline rejects statements that
    // would join it (reads still flow: they never touch the sink). Only
    // an over-limit backlog pays for the parse that classifies.
    if (opts.commit_backlog &&
        opts.commit_backlog() > opts.max_commit_backlog &&
        IsDurable(statement)) {
      stats->admission_rejections.fetch_add(1, std::memory_order_relaxed);
      std::string frame;
      AppendError(&frame, StatusCode::kUnavailable, true,
                  "server overloaded: commit backlog full, retry");
      stats->error_frames.fetch_add(1, std::memory_order_relaxed);
      if (!QueueOutput(c, frame)) return false;
      return true;
    }

    c->in_flight = true;
    {
      std::lock_guard<std::mutex> lk(task_mu);
      tasks.push_back(Task{c->id, std::move(statement)});
    }
    task_cv.notify_one();
    return true;
  }

  // Decodes as many complete frames as ordering allows (stops while a
  // request is in flight). Returns false if the connection was closed.
  bool ParseFrames(Conn* c) {
    Frame frame;
    while (!c->in_flight && !c->close_after_flush) {
      FrameReader::Outcome outcome = c->reader.Next(&frame);
      if (outcome == FrameReader::Outcome::kNeedMore) break;
      if (outcome == FrameReader::Outcome::kBad) {
        stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
        return SendErrorAndClose(c, StatusCode::kInvalidArgument, false,
                                 c->reader.error().message());
      }
      switch (frame.type) {
        case FrameType::kPing: {
          std::string pong;
          AppendFrame(&pong, FrameType::kPong, "");
          if (!QueueOutput(c, pong)) return false;
          break;
        }
        case FrameType::kRequest:
          if (!HandleRequest(c, std::move(frame.payload))) return false;
          break;
        default:
          // Server-to-client types arriving at the server are as dead a
          // stream as an unknown byte.
          stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
          return SendErrorAndClose(
              c, StatusCode::kInvalidArgument, false,
              "unexpected frame type from client");
      }
    }
    return true;
  }

  void HandleReadable(Conn* c) {
    char buf[16384];
    while (true) {
      if (c->in_flight &&
          c->reader.buffered() >= opts.max_frame_bytes + 5) {
        break;  // parked: UpdateEvents drops EPOLLIN until completion
      }
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
      if (!ParseFrames(c)) return;
    }
    UpdateEvents(c);
  }

  void AcceptAll() {
    while (true) {
      int fd = ::accept4(listen_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        // EAGAIN: drained. Anything else (EMFILE, ECONNABORTED): skip
        // this round rather than take the accept loop down.
        return;
      }
      int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_unique<Conn>(opts.max_frame_bytes);
      conn->id = next_id++;
      conn->fd = fd;
      Conn* c = conn.get();
      struct epoll_event ev {};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.u64 = c->id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        CloseFd(fd);
        continue;
      }
      c->armed = ev.events;
      conns.emplace(c->id, std::move(conn));
      stats->connections_accepted.fetch_add(1, std::memory_order_relaxed);
      if (!QueueOutput(c, EncodeHello())) continue;
      UpdateEvents(c);
    }
  }

  void DrainCompletions() {
    std::deque<Completion> batch;
    {
      std::lock_guard<std::mutex> lk(comp_mu);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      auto it = conns.find(done.conn_id);
      if (it == conns.end()) continue;  // client left mid-request: drop
      Conn* c = it->second.get();
      c->in_flight = false;
      if (!QueueOutput(c, done.frame)) continue;
      // The client may have pipelined the next request while this one
      // executed; resume decoding the buffered bytes.
      if (!ParseFrames(c)) continue;
      UpdateEvents(c);
    }
  }

  void IoLoop() {
    constexpr int kMaxEvents = 256;
    struct epoll_event events[kMaxEvents];
    while (!stop.load(std::memory_order_acquire)) {
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
        if (id == kEventId) {
          uint64_t drain;
          while (::read(event_fd, &drain, sizeof(drain)) > 0) {
          }
          DrainCompletions();
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
        if (ev & (EPOLLIN | EPOLLRDHUP)) {
          HandleReadable(c);
        }
      }
    }
    // Teardown on the owning thread: every connection state lives here.
    for (auto& [id, conn] : conns) {
      CloseFd(conn->fd);
      stats->connections_closed.fetch_add(1, std::memory_order_relaxed);
    }
    conns.clear();
  }

  // --- worker pool ------------------------------------------------------

  void PostCompletion(uint64_t conn_id, std::string frame) {
    {
      std::lock_guard<std::mutex> lk(comp_mu);
      completions.push_back(Completion{conn_id, std::move(frame)});
    }
    WakeIo();
  }

  void WorkerLoop() {
    Session session = engine->OpenSession();
    // One optimistic attempt per Execute, never the exclusive fallback:
    // the *server* owns the retry budget, and a hopeless statement should
    // become client backpressure, not a writer-lock convoy.
    session.set_write_retry_policy(WriteRetryPolicy{1, false});
    const int budget = opts.conflict_retry_budget < 1
                           ? 1
                           : opts.conflict_retry_budget;
    while (true) {
      Task task;
      {
        std::unique_lock<std::mutex> lk(task_mu);
        task_cv.wait(lk, [this] {
          return stop.load(std::memory_order_acquire) || !tasks.empty();
        });
        if (tasks.empty()) return;  // stopping and drained
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      Result<std::string> result =
          Status::Unavailable("request not executed");
      bool exhausted = false;
      for (int attempt = 1;; ++attempt) {
        result = session.Execute(task.statement);
        if (result.ok() ||
            result.status().code() != StatusCode::kConflict) {
          break;
        }
        if (attempt >= budget) {
          exhausted = true;
          stats->conflict_budget_exhausted.fetch_add(
              1, std::memory_order_relaxed);
          break;
        }
        stats->conflict_retries.fetch_add(1, std::memory_order_relaxed);
      }
      std::string frame;
      if (result.ok()) {
        AppendFrame(&frame, FrameType::kResult, result.value());
        stats->results.fetch_add(1, std::memory_order_relaxed);
      } else {
        const Status& s = result.status();
        bool retryable = IsRetryableStatus(s.code());
        std::string message = s.message();
        if (exhausted) {
          message += " (conflict-retry budget of " +
                     std::to_string(budget) + " attempts exhausted)";
        }
        AppendError(&frame, s.code(), retryable, message);
        stats->error_frames.fetch_add(1, std::memory_order_relaxed);
      }
      PostCompletion(task.conn_id, std::move(frame));
    }
  }
};

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
    CloseFd(impl_->listen_fd);
    impl_->listen_fd = -1;
    return port.status();
  }
  port_ = port.value();
  impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  impl_->event_fd =
      ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (impl_->epoll_fd < 0 || impl_->event_fd < 0) {
    Status s = Status::IoError(std::string("epoll/eventfd setup: ") +
                               std::strerror(errno));
    CloseFd(impl_->listen_fd);
    CloseFd(impl_->epoll_fd);
    CloseFd(impl_->event_fd);
    impl_->listen_fd = impl_->epoll_fd = impl_->event_fd = -1;
    return s;
  }
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->listen_fd, &ev) !=
      0) {
    return Status::IoError(std::string("epoll_ctl(listen): ") +
                           std::strerror(errno));
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kEventId;
  if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, impl_->event_fd, &ev) !=
      0) {
    return Status::IoError(std::string("epoll_ctl(eventfd): ") +
                           std::strerror(errno));
  }
  int n_workers = impl_->opts.worker_threads < 1 ? 1
                                                 : impl_->opts.worker_threads;
  impl_->workers.reserve(static_cast<size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
  impl_->io = std::thread([this] { impl_->IoLoop(); });
  impl_->started = true;
  return Status::OK();
}

void Server::Stop() {
  if (!impl_ || !impl_->started) return;
  impl_->stop.store(true, std::memory_order_release);
  impl_->WakeIo();
  {
    // Wake the workers; leftover tasks are dropped (their connections are
    // about to close anyway).
    std::lock_guard<std::mutex> lk(impl_->task_mu);
    impl_->tasks.clear();
  }
  impl_->task_cv.notify_all();
  if (impl_->io.joinable()) impl_->io.join();
  for (std::thread& w : impl_->workers) {
    if (w.joinable()) w.join();
  }
  impl_->workers.clear();
  CloseFd(impl_->listen_fd);
  CloseFd(impl_->epoll_fd);
  CloseFd(impl_->event_fd);
  impl_->listen_fd = impl_->epoll_fd = impl_->event_fd = -1;
  impl_->started = false;
}

}  // namespace tchimera
