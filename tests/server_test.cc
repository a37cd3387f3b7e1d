// Wire-protocol and resilience tests for the socket server
// (src/server/server.h). The adversarial half of this file feeds the
// server what real networks produce — torn frames, hostile length
// prefixes, garbage, clients that vanish mid-request or stop reading —
// and requires the same outcome every time: an error frame or a closed
// connection, never a crash and never a leaked pooled session (proved by
// the server still answering well-formed traffic afterwards).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_fs.h"
#include "query/session.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

namespace stdfs = std::filesystem;

std::string FreshDir(const std::string& name) {
  stdfs::path dir = stdfs::temp_directory_path() / ("tchimera_srv_" + name);
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  stdfs::create_directories(dir, ec);
  return dir.string();
}

// An in-memory engine + server, torn down in reverse order.
struct TestServer {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;

  static TestServer Start(ServerOptions options = {}) {
    TestServer t;
    t.engine = std::make_unique<Engine>();
    options.port = 0;  // ephemeral
    t.server = std::make_unique<Server>(t.engine.get(), options);
    Status s = t.server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
    return t;
  }

  Result<std::unique_ptr<Client>> Connect(ClientOptions opts = {}) {
    return Client::Connect("127.0.0.1", server->port(), opts);
  }

  // A raw connection that has consumed the hello frame — the entry point
  // for sending bytes no well-behaved client would.
  int RawConnect() {
    Result<int> fd = ConnectTcp("127.0.0.1", server->port(), 5000);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    char hello[9];  // 5-byte header + u32 version
    Status s = RecvExactly(fd.value(), hello, sizeof(hello), 5000);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return fd.value();
  }
};

// Reads one frame from a raw fd. Returns false on EOF/error (closed).
bool ReadRawFrame(int fd, Frame* frame) {
  char header[5];
  if (!RecvExactly(fd, header, sizeof(header), 5000).ok()) return false;
  uint32_t length = static_cast<unsigned char>(header[0]) |
                    (static_cast<uint32_t>(
                         static_cast<unsigned char>(header[1]))
                     << 8) |
                    (static_cast<uint32_t>(
                         static_cast<unsigned char>(header[2]))
                     << 16) |
                    (static_cast<uint32_t>(
                         static_cast<unsigned char>(header[3]))
                     << 24);
  frame->type = static_cast<FrameType>(static_cast<unsigned char>(header[4]));
  frame->payload.resize(length);
  if (length == 0) return true;
  return RecvExactly(fd, frame->payload.data(), length, 5000).ok();
}

// After an adversarial exchange, the server must still answer a
// well-formed request — the proof that no session leaked and no thread
// died.
void ExpectServerHealthy(TestServer& t) {
  Result<std::unique_ptr<Client>> client = t.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<std::string> pong = (*client)->Execute("show now");
  EXPECT_TRUE(pong.ok()) << pong.status().ToString();
}

// --- happy path ------------------------------------------------------------

TEST(ServerTest, ExecuteRoundTrip) {
  TestServer t = TestServer::Start();
  Result<std::unique_ptr<Client>> client = t.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Client& c = **client;

  Result<std::string> r = c.Execute(
      "define class person attributes name: string, age: integer end");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  r = c.Execute("create person (name: 'ada', age: 36)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "i1");
  r = c.Execute("select x.name from x in person");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "'ada'");

  // Statement errors come back as non-retryable error frames carrying
  // the engine's status, and the connection stays usable.
  r = c.Execute("select utter nonsense");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(c.last_error_retryable());
  r = c.Execute("select x.age from x in person");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r, "36");

  EXPECT_TRUE(c.Ping().ok());
  EXPECT_GE(t.server->stats().results.load(), 3u);
}

TEST(ServerTest, ManyConcurrentClients) {
  ServerOptions options;
  options.worker_threads = 4;
  TestServer t = TestServer::Start(options);
  {
    Result<std::unique_ptr<Client>> setup = t.Connect();
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(
        (*setup)
            ->Execute("define class counter attributes v: integer end")
            .ok());
    ASSERT_TRUE((*setup)->Execute("create counter (v: 0)").ok());
  }
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, &failures, i] {
      Result<std::unique_ptr<Client>> client = t.Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int j = 0; j < kPerThread; ++j) {
        // Writers hammer one object (conflict pressure); readers verify
        // response pairing under interleaving.
        Result<std::string> r =
            (i % 2 == 0)
                ? (*client)->ExecuteRetrying("update i1 set v = " +
                                             std::to_string(i * 100 + j))
                : (*client)->Execute("select x.v from x in counter");
        if (!r.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  ExpectServerHealthy(t);
}

// Three request frames in one send: each is answered, in request order.
TEST(ServerTest, PipelinedRequestsAreAnsweredInOrder) {
  TestServer t = TestServer::Start();
  int fd = t.RawConnect();
  // Non-blocking, so a missing reply fails after the 5 s read timeout.
  ASSERT_TRUE(SetNonBlocking(fd, true).ok());
  std::string burst =
      EncodeRequest("define class p attributes v: integer end") +
      EncodeRequest("create p (v: 7)") +
      EncodeRequest("select x.v from x in p");
  ASSERT_TRUE(SendAll(fd, burst, 5000).ok());
  const std::vector<std::string> expected = {"class p defined", "i1", "7"};
  for (const std::string& want : expected) {
    Frame reply;
    ASSERT_TRUE(ReadRawFrame(fd, &reply)) << want;
    EXPECT_EQ(reply.type, FrameType::kResult) << want;
    EXPECT_EQ(reply.payload, want);
  }
  CloseFd(fd);
}

// A commit sink whose Await, once closed, blocks every durable statement
// until the test opens it again.
class GateSink : public CommitSink {
 public:
  Ticket Enqueue(std::string_view) override {
    return Ticket{seq_.fetch_add(1) + 1, Status::OK()};
  }
  Status Await(Ticket) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (!closed_) return Status::OK();
    ++parked_;
    cv_.notify_all();
    cv_.wait(lk, [this] { return !closed_; });
    return Status::OK();
  }
  void Close() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  void Open() {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = false;
    cv_.notify_all();
  }
  // True once a statement waits in Await (false after 5 s).
  bool WaitForParked() {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, std::chrono::seconds(5),
                        [this] { return parked_ > 0; });
  }

 private:
  std::atomic<uint64_t> seq_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int parked_ = 0;
};

// A durable write parked in the group-commit wait holds only its own
// connection: a connection opened next is served meanwhile.
TEST(ServerTest, ParkedWriteDoesNotStallTheNextConnection) {
  GateSink sink;
  Engine engine;
  engine.set_commit_sink(&sink);
  ServerOptions options;
  options.port = 0;
  options.worker_threads = 2;
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  Result<int> a = ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  Frame reply;
  ASSERT_TRUE(ReadRawFrame(a.value(), &reply));  // hello
  ASSERT_TRUE(SendAll(a.value(),
                      EncodeRequest("define class d attributes v: integer end"),
                      5000)
                  .ok());
  ASSERT_TRUE(ReadRawFrame(a.value(), &reply));
  ASSERT_EQ(reply.type, FrameType::kResult) << reply.payload;

  sink.Close();
  ASSERT_TRUE(SendAll(a.value(), EncodeRequest("create d (v: 1)"), 5000).ok());
  EXPECT_TRUE(sink.WaitForParked());
  // Non-blocking, so a missing reply fails after the 5 s read timeout.
  Result<int> b = ConnectTcp("127.0.0.1", server.port(), 5000);
  EXPECT_TRUE(b.ok()) << b.status().ToString();
  if (b.ok()) {
    EXPECT_TRUE(SetNonBlocking(b.value(), true).ok());
    Frame hello, now;
    EXPECT_TRUE(ReadRawFrame(b.value(), &hello) &&
                SendAll(b.value(), EncodeRequest("show now"), 5000).ok() &&
                ReadRawFrame(b.value(), &now));
    EXPECT_EQ(now.type, FrameType::kResult) << now.payload;
    CloseFd(b.value());
  }
  sink.Open();
  ASSERT_TRUE(ReadRawFrame(a.value(), &reply));
  EXPECT_EQ(reply.type, FrameType::kResult);
  EXPECT_EQ(reply.payload, "i1");
  CloseFd(a.value());
  server.Stop();
}

// --- adversarial wire input ------------------------------------------------

TEST(ServerTest, OversizedLengthPrefixGetsErrorFrameThenClose) {
  TestServer t = TestServer::Start();
  int fd = t.RawConnect();
  // 4 GiB frame announcement: must be rejected from the header alone.
  std::string evil = {'\xff', '\xff', '\xff', '\xff',
                      static_cast<char>(FrameType::kRequest)};
  ASSERT_TRUE(SendAll(fd, evil, 5000).ok());
  Frame reply;
  ASSERT_TRUE(ReadRawFrame(fd, &reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  bool retryable = true;
  Status s = DecodeError(reply.payload, &retryable);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(retryable);
  // ...and then the stream ends.
  EXPECT_FALSE(ReadRawFrame(fd, &reply));
  CloseFd(fd);
  EXPECT_GE(t.server->stats().protocol_errors.load(), 1u);
  ExpectServerHealthy(t);
}

TEST(ServerTest, UnknownFrameTypeGetsErrorFrameThenClose) {
  TestServer t = TestServer::Start();
  int fd = t.RawConnect();
  std::string evil = {'\x00', '\x00', '\x00', '\x00', '\x7f'};
  ASSERT_TRUE(SendAll(fd, evil, 5000).ok());
  Frame reply;
  ASSERT_TRUE(ReadRawFrame(fd, &reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_FALSE(ReadRawFrame(fd, &reply));
  CloseFd(fd);
  ExpectServerHealthy(t);
}

TEST(ServerTest, ServerOnlyFrameTypeFromClientIsRejected) {
  TestServer t = TestServer::Start();
  int fd = t.RawConnect();
  std::string evil;
  AppendFrame(&evil, FrameType::kResult, "i am the server now");
  ASSERT_TRUE(SendAll(fd, evil, 5000).ok());
  Frame reply;
  ASSERT_TRUE(ReadRawFrame(fd, &reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  EXPECT_FALSE(ReadRawFrame(fd, &reply));
  CloseFd(fd);
  ExpectServerHealthy(t);
}

TEST(ServerTest, RequestMissingFlagsByteIsRejected) {
  TestServer t = TestServer::Start();
  int fd = t.RawConnect();
  std::string evil;
  AppendFrame(&evil, FrameType::kRequest, "");  // zero-length payload
  ASSERT_TRUE(SendAll(fd, evil, 5000).ok());
  Frame reply;
  ASSERT_TRUE(ReadRawFrame(fd, &reply));
  EXPECT_EQ(reply.type, FrameType::kError);
  CloseFd(fd);
  ExpectServerHealthy(t);
}

// Runs `statements` over raw kRequest frames carrying `flags` against a
// fresh durable server in `dir`, and returns each reply frame.
std::vector<Frame> RunRawRequests(const std::string& dir, uint8_t flags,
                                  const std::vector<std::string>& statements,
                                  uint64_t* durable) {
  Engine engine;
  GroupCommitJournal sink;
  EXPECT_TRUE(sink.Open(dir + "/journal.tql").ok());
  engine.set_commit_sink(&sink);
  ServerOptions options;
  options.port = 0;
  Server server(&engine, options);
  EXPECT_TRUE(server.Start().ok());
  Result<int> fd = ConnectTcp("127.0.0.1", server.port(), 5000);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  std::vector<Frame> replies;
  Frame hello;
  if (fd.ok() && ReadRawFrame(fd.value(), &hello)) {
    for (const std::string& statement : statements) {
      std::string frame;
      AppendFrame(&frame, FrameType::kRequest,
                  std::string(1, static_cast<char>(flags)) + statement);
      EXPECT_TRUE(SendAll(fd.value(), frame, 5000).ok());
      Frame reply;
      EXPECT_TRUE(ReadRawFrame(fd.value(), &reply)) << statement;
      replies.push_back(std::move(reply));
    }
  }
  if (fd.ok()) CloseFd(fd.value());
  server.Stop();
  *durable = sink.durable();
  sink.Close();
  return replies;
}

// The request flags byte is reserved: an older client that set bit 0 on
// every request must get exactly the replies a flags-0 client gets,
// for durable writes and reads alike.
TEST(ServerTest, ReservedFlagsByteIsIgnored) {
  const std::vector<std::string> statements = {
      "define class d attributes v: temporal(integer) end",
      "create d (v: 1)",
      "tick 2",
      "update i1 set v = 2",
      "select x.v from x in d",
      "history i1.v",
  };
  uint64_t durable_plain = 0;
  uint64_t durable_flagged = 0;
  std::vector<Frame> plain = RunRawRequests(FreshDir("flags_plain"), 0x00,
                                            statements, &durable_plain);
  std::vector<Frame> flagged = RunRawRequests(
      FreshDir("flags_flagged"), 0x01, statements, &durable_flagged);
  ASSERT_EQ(plain.size(), statements.size());
  ASSERT_EQ(flagged.size(), statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    EXPECT_EQ(plain[i].type, FrameType::kResult) << statements[i];
    EXPECT_EQ(flagged[i].type, plain[i].type) << statements[i];
    EXPECT_EQ(flagged[i].payload, plain[i].payload) << statements[i];
  }
  EXPECT_EQ(plain[4].payload, "2");
  EXPECT_EQ(durable_plain, 4u);  // define, create, tick, update
  EXPECT_EQ(durable_flagged, durable_plain);
}

TEST(ServerTest, TornFrameThenDisconnectLeavesServerHealthy) {
  TestServer t = TestServer::Start();
  for (int i = 1; i < 5; ++i) {
    int fd = t.RawConnect();
    std::string frame = EncodeRequest("select 1");
    // Send an i-byte prefix of a valid frame, then vanish.
    ASSERT_TRUE(SendAll(fd, std::string_view(frame).substr(0, i), 5000).ok());
    CloseFd(fd);
  }
  ExpectServerHealthy(t);
}

TEST(ServerTest, GarbageStormNeverCrashesOrLeaksSessions) {
  ServerOptions options;
  options.worker_threads = 2;  // a tiny pool leaks loudly
  TestServer t = TestServer::Start(options);
  // Deterministic pseudo-garbage (no real randomness in tests).
  uint64_t x = 0x243f6a8885a308d3ULL;
  for (int round = 0; round < 40; ++round) {
    int fd = t.RawConnect();
    std::string garbage;
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      garbage.push_back(static_cast<char>(x >> 56));
    }
    (void)SendAll(fd, garbage, 5000);  // peer may already have closed us
    CloseFd(fd);
  }
  ExpectServerHealthy(t);
  EXPECT_GE(t.server->stats().protocol_errors.load(), 1u);
}

TEST(ServerTest, MidRequestDisconnectDropsReplyNotSession) {
  ServerOptions options;
  options.worker_threads = 2;
  TestServer t = TestServer::Start(options);
  // More vanishing requesters than pooled sessions: if a disconnect
  // leaked its session, the pool would drain and the final health check
  // would hang or fail.
  for (int i = 0; i < 10; ++i) {
    int fd = t.RawConnect();
    ASSERT_TRUE(SendAll(fd, EncodeRequest("show now"), 5000).ok());
    CloseFd(fd);  // gone before the reply
  }
  ExpectServerHealthy(t);
}

TEST(ServerTest, SlowReaderIsClosedAtTheOutputBound) {
  ServerOptions options;
  // Big enough for the 9-byte hello, too small for a fat result frame:
  // the bounded output buffer must close the connection instead of
  // buffering without limit for a reader that never drains.
  options.max_output_buffer_bytes = 64;
  TestServer t = TestServer::Start(options);
  Result<std::unique_ptr<Client>> client = t.Connect();
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  // Store a value long enough that its result frame exceeds the bound.
  // (The setup results — "class blob defined", "i1" — fit under it and
  // drain immediately, so only the fat reply trips the limit.)
  std::string fat(256, 'x');
  ASSERT_TRUE(c.Execute("define class blob attributes s: string end").ok());
  ASSERT_TRUE(c.Execute("create blob (s: '" + fat + "')").ok());
  Result<std::string> r = c.Execute("select x.s from x in blob");
  EXPECT_FALSE(r.ok());  // connection died before the reply arrived
  EXPECT_GE(t.server->stats().slow_reader_closes.load(), 1u);
  ExpectServerHealthy(t);
}

// --- backpressure ----------------------------------------------------------

TEST(ServerTest, FullRequestQueueRejectsRetryably) {
  ServerOptions options;
  options.max_pending_requests = 0;  // admit nothing: every request sheds
  TestServer t = TestServer::Start(options);
  Result<std::unique_ptr<Client>> client = t.Connect();
  ASSERT_TRUE(client.ok());
  Result<std::string> r = (*client)->Execute("show now");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE((*client)->last_error_retryable());
  EXPECT_GE(t.server->stats().admission_rejections.load(), 1u);

  // ExecuteRetrying honors the retryable bit: it backs off and resends
  // until its budget runs out, then surfaces the rejection.
  ClientOptions copts;
  copts.max_retries = 3;
  copts.initial_backoff_ms = 1;
  Result<std::unique_ptr<Client>> retrying = t.Connect(copts);
  ASSERT_TRUE(retrying.ok());
  r = (*retrying)->ExecuteRetrying("show now");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ((*retrying)->retries_absorbed(), 3u);
}

TEST(ServerTest, CommitBacklogShedsWritesButServesReads) {
  std::atomic<uint64_t> backlog{0};
  ServerOptions options;
  options.max_commit_backlog = 100;
  options.commit_backlog = [&backlog] { return backlog.load(); };
  TestServer t = TestServer::Start(options);
  Result<std::unique_ptr<Client>> client = t.Connect();
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  ASSERT_TRUE(
      c.Execute("define class d attributes v: integer end").ok());
  ASSERT_TRUE(c.Execute("create d (v: 1)").ok());

  backlog.store(101);  // the group-commit pipeline "saturates"
  Result<std::string> w = c.Execute("update i1 set v = 2");
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(c.last_error_retryable());
  // Reads never touch the sink, so they are admitted regardless.
  Result<std::string> rd = c.Execute("select x.v from x in d");
  ASSERT_TRUE(rd.ok()) << rd.status().ToString();
  EXPECT_EQ(*rd, "1");

  backlog.store(0);  // drained: writes flow again
  EXPECT_TRUE(c.Execute("update i1 set v = 2").ok());
}

// One client's multi-line write must not poison the shared group-commit
// sink (the journal cannot frame it). The engine refuses it before it
// applies, so every client's later writes keep committing durably.
TEST(ServerTest, MultiLineWriteCannotDisableWritesForOtherClients) {
  const std::string dir = FreshDir("multiline");
  Engine engine;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tql").ok());
  engine.set_commit_sink(&sink);
  ServerOptions options;
  options.port = 0;
  Server server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<Client>> a = Client::Connect("127.0.0.1",
                                                      server.port());
  Result<std::unique_ptr<Client>> b = Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*a)->Execute("define class d attributes v: integer end").ok());
  ASSERT_TRUE((*a)->Execute("create d (v: 1)").ok());

  Result<std::string> bad = (*a)->Execute("update i1\nset v = 9");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  Result<std::string> v = (*b)->Execute("select x.v from x in d");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "1");  // nothing was applied

  Result<std::string> other = (*b)->Execute("update i1 set v = 2");
  EXPECT_TRUE(other.ok()) << other.status().ToString();
  Result<std::string> same = (*a)->Execute("create d (v: 3)");
  EXPECT_TRUE(same.ok()) << same.status().ToString();
  server.Stop();
  EXPECT_EQ(sink.durable(), 4u);
  sink.Close();
}

// --- retry policy (the refactor the server motivated) ----------------------

TEST(ServerTest, WriteRetryPolicySurfacesConflictWithoutFallback) {
  // With exclusive_fallback=false the session must hand kConflict to the
  // caller instead of silently escalating to the writer lock; with the
  // default policy the same contention always succeeds. Exercised under
  // real contention so the policy's branch actually runs.
  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(
        setup.Execute("define class c attributes v: integer end").ok());
    ASSERT_TRUE(setup.Execute("create c (v: 0)").ok());
  }
  constexpr int kThreads = 4;
  constexpr int kWrites = 50;
  std::atomic<int> surfaced_conflicts{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&engine, &surfaced_conflicts, &failures, i] {
      Session s = engine.OpenSession();
      s.set_write_retry_policy(WriteRetryPolicy{1, false});
      for (int j = 0; j < kWrites; ++j) {
        std::string stmt = "update i1 set v = " + std::to_string(i * 1000 + j);
        // The caller-owned retry loop a server implements.
        while (true) {
          Result<std::string> r = s.Execute(stmt);
          if (r.ok()) break;
          if (r.status().code() == StatusCode::kConflict) {
            surfaced_conflicts.fetch_add(1);
            continue;
          }
          failures.fetch_add(1);
          break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Every write eventually landed despite the policy never taking the
  // exclusive fallback; the DDL path (which *requires* the exclusive
  // lock) already ran during setup under the same policy default.
  Session check = engine.OpenSession();
  Result<std::string> v = check.Execute("select x.v from x in c");
  ASSERT_TRUE(v.ok());
}

// --- crash equivalence -----------------------------------------------------

// Recovers `dir` the way tchimera_serve does at boot and returns the
// state hash (definitions included).
uint32_t RecoverAndHash(const std::string& dir) {
  RecoveryManager recovery(dir + "/snapshot.tchdb", dir + "/journal.tql");
  Result<std::unique_ptr<Engine>> engine = recovery.RecoverEngine();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return 0;
  Result<uint32_t> hash =
      DatabaseStateHash((*engine)->OpenSnapshot().db(),
                        (*engine)->active().DefinitionStatements());
  EXPECT_TRUE(hash.ok()) << hash.status().ToString();
  return hash.ok() ? hash.value() : 0;
}

const std::vector<std::string>& CrashWorkload() {
  static const std::vector<std::string>& statements =
      *new std::vector<std::string>{
          "define class person attributes name: temporal(string), "
          "birthyear: integer end",
          "create person (name: 'Ann', birthyear: 1970)",
          "create person (name: 'Bob', birthyear: 1980)",
          "tick 3",
          "update i1 set name = 'Anna'",
          "update i2 set name = 'Bobby'",
          "delete i2",
      };
  return statements;
}

#ifdef TCHIMERA_SERVE_BIN
// The acceptance criterion for serving durability: a server killed with
// SIGKILL mid-operation recovers to state identical to a clean
// shutdown's, because every acknowledged statement was group-committed
// (fdatasynced) before its result frame left the server.
TEST(ServerCrashTest, KillNineRecoversToCleanShutdownState) {
  const std::string crash_dir = FreshDir("kill9");
  const std::string clean_dir = FreshDir("kill9_clean");
  const std::string port_file = crash_dir + "/port";

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::string port_flag = "--port-file=" + port_file;
    ::execl(TCHIMERA_SERVE_BIN, "tchimera_serve", "--port=0",
            port_flag.c_str(), crash_dir.c_str(), (char*)nullptr);
    _exit(127);  // exec failed
  }
  // Wait for the port file (write-then-rename, so a read sees all of it).
  uint16_t port = 0;
  for (int i = 0; i < 200 && port == 0; ++i) {
    Result<std::string> contents =
        FileSystem::Default()->ReadFileToString(port_file);
    if (contents.ok() && !contents.value().empty()) {
      port = static_cast<uint16_t>(std::atoi(contents.value().c_str()));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_NE(port, 0) << "server never published its port";

  {
    Result<std::unique_ptr<Client>> client =
        Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (const std::string& stmt : CrashWorkload()) {
      Result<std::string> r = (*client)->ExecuteRetrying(stmt);
      ASSERT_TRUE(r.ok()) << stmt << ": " << r.status().ToString();
    }
  }
  // Every statement above was acknowledged; now the power goes out.
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);

  // The clean-shutdown twin: same workload, in-process, orderly Close.
  {
    Engine engine;
    GroupCommitJournal sink;
    ASSERT_TRUE(sink.Open(clean_dir + "/journal.tql").ok());
    engine.set_commit_sink(&sink);
    Session session = engine.OpenSession();
    for (const std::string& stmt : CrashWorkload()) {
      ASSERT_TRUE(session.Execute(stmt).ok()) << stmt;
    }
    sink.Close();
  }

  EXPECT_EQ(RecoverAndHash(crash_dir), RecoverAndHash(clean_dir));
}
#endif  // TCHIMERA_SERVE_BIN

}  // namespace
}  // namespace tchimera
