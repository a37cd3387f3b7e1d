// Replication tests: journal shipping into replicas, durable-horizon
// capping, retryable stream faults (seq gap / epoch mismatch / CRC
// corruption), live-tail reads that never salvage, checkpoint resync,
// promotion fencing, and crash-point enumeration on both the shipping
// (primary) and replay (replica) sides with state-hash equality after
// recovery + resync + drain.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/fault_fs.h"
#include "query/session.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/replication.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

namespace stdfs = std::filesystem;

std::string FreshDir(const std::string& name) {
  stdfs::path dir = stdfs::temp_directory_path() / ("tchimera_repl_" + name);
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  stdfs::create_directories(dir, ec);
  return dir.string();
}

// TCHIMERA_CRASH_STRIDE picks every Nth crash point in the enumeration
// tests (nightly CI sets 1 for the full sweep; the fallback keeps local
// runs quick).
uint64_t CrashStride(uint64_t fallback) {
  const char* env = std::getenv("TCHIMERA_CRASH_STRIDE");
  if (env == nullptr) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  return (end != env && *end == '\0' && v > 0) ? static_cast<uint64_t>(v)
                                               : fallback;
}

// Workload split so tests can interleave checkpoints: part one builds the
// schema and objects, part two mutates them.
const std::vector<std::string>& WorkloadPartOne() {
  static const std::vector<std::string>& statements =
      *new std::vector<std::string>{
          "define class person attributes name: temporal(string), "
          "birthyear: integer end",
          "create person (name: 'Ann', birthyear: 1970)",  // i1
          "create person (name: 'Bob', birthyear: 1980)",  // i2
          "define class fan attributes idol: person end",
          "create fan (idol: i1)",  // i3
      };
  return statements;
}

const std::vector<std::string>& WorkloadPartTwo() {
  static const std::vector<std::string>& statements =
      *new std::vector<std::string>{
          "tick 3",
          "update i1 set name = 'Anna'",
          "update i2 set name = 'Bobby'",
          "tick 2",
          "update i3 set idol = i2",
          "delete i1",
      };
  return statements;
}

// A primary node: engine + group-commit sink over `dir`. All statements
// run through sessions AFTER the sink is installed, so the journal holds
// the complete history and a replica can replay from empty.
struct Primary {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<GroupCommitJournal> sink;
  std::string dir;

  std::string journal_path() const { return dir + "/journal.tql"; }
  std::string snapshot_path() const { return dir + "/snapshot.tchdb"; }

  static Primary Start(const std::string& dir, FileSystem* fs = nullptr) {
    Primary p;
    p.dir = dir;
    p.engine = std::make_unique<Engine>();
    p.sink = std::make_unique<GroupCommitJournal>();
    JournalOptions jopts;
    jopts.fs = fs;
    EXPECT_TRUE(p.sink->Open(p.journal_path(), jopts).ok());
    p.engine->set_commit_sink(p.sink.get());
    return p;
  }

  // Recovers a primary from whatever `dir` holds (the post-crash path).
  static Status Recover(const std::string& dir, FileSystem* fs, Primary* p) {
    p->dir = dir;
    RecoveryOptions ropts;
    ropts.fs = fs;
    ropts.audit = AuditMode::kOff;
    RecoveryManager manager(p->snapshot_path(), p->journal_path(), ropts);
    RecoveryStats stats;
    TCH_ASSIGN_OR_RETURN(p->engine, manager.RecoverEngine(&stats));
    p->sink = std::make_unique<GroupCommitJournal>();
    JournalOptions jopts;
    jopts.fs = fs;
    jopts.epoch = stats.next_epoch;
    TCH_RETURN_IF_ERROR(p->sink->Open(p->journal_path(), jopts));
    p->engine->set_commit_sink(p->sink.get());
    return Status::OK();
  }

  Status Checkpoint(FileSystem* fs = nullptr) {
    return engine->WithExclusive(
        [this, fs](Database& live, ActiveDatabase& active) {
          return sink->WithQuiesced([&](Journal& journal) {
            return RecoveryManager::Checkpoint(live, &journal,
                                               snapshot_path(), fs,
                                               active.DefinitionStatements());
          });
        });
  }

  ReplicationSource::Options SourceOptions() const {
    ReplicationSource::Options opts;
    opts.horizon = sink.get();
    opts.snapshot_path = snapshot_path();
    return opts;
  }
};

uint32_t StateHashOf(Engine* engine) {
  uint32_t hash = 0;
  Status status = engine->WithExclusive(
      [&hash](Database& db, ActiveDatabase& active) {
        Result<uint32_t> h =
            DatabaseStateHash(db, active.DefinitionStatements());
        if (!h.ok()) return h.status();
        hash = h.value();
        return Status::OK();
      });
  EXPECT_TRUE(status.ok()) << status;
  return hash;
}

ReplicationShipper::Options InstantShipperOptions() {
  ReplicationShipper::Options opts;
  opts.sleeper = [](std::chrono::microseconds) {};  // no real sleeping
  return opts;
}

bool HasCorruptQuarantine(const std::string& dir) {
  for (const auto& entry : stdfs::directory_iterator(dir)) {
    if (entry.path().string().find(".corrupt") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// A framed v2 record line exactly as the journal writes it.
std::string FramedRecord(uint64_t seq, const std::string& statement) {
  std::string payload = std::to_string(seq) + " " + statement;
  return "R " + std::to_string(seq) + " " +
         std::to_string(statement.size()) + " " +
         Crc32Hex(Crc32(payload)) + " " + statement + "\n";
}

// ---------------------------------------------------------------------------
// Basic shipping

TEST(ReplicationTest, ShipsWorkloadAndConvergesStateHash) {
  Primary primary = Primary::Start(FreshDir("basic_primary"));
  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  auto replica = Replica::Open(FreshDir("basic_replica"));
  ASSERT_TRUE(replica.ok()) << replica.status();

  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "r1");

  Session session = primary.engine->OpenSession();
  for (const std::string& statement : WorkloadPartOne()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  for (const std::string& statement : WorkloadPartTwo()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  ASSERT_TRUE(shipper.DrainAll().ok());

  EXPECT_EQ(StateHashOf(primary.engine.get()),
            StateHashOf(&replica.value()->engine()));
  EXPECT_EQ(replica.value()->statements_applied(),
            WorkloadPartOne().size() + WorkloadPartTwo().size());
}

TEST(ReplicationTest, IndexDdlShipsAndReplicaRebuildsIdentically) {
  // Index DDL is a mutating statement: it must journal, ship, and replay
  // on the replica — which rebuilds the index data from its own objects
  // and must land bit-identical to the primary's incrementally-maintained
  // state (index data never travels over the wire).
  Primary primary = Primary::Start(FreshDir("idx_primary"));
  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  auto replica = Replica::Open(FreshDir("idx_replica"));
  ASSERT_TRUE(replica.ok()) << replica.status();
  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "r1");

  Session session = primary.engine->OpenSession();
  const std::vector<std::string> workload = {
      "define class person attributes name: temporal(string), "
      "salary: temporal(integer) end",
      "create person (name: 'Ann', salary: 100)",
      "create person (name: 'Bob', salary: 200)",
      "create index psal on person (salary)",
      "create index plife on person lifespan",
      "tick 3",
      "update i1 set salary = 150",
      "update i2 set salary = 50 during [1,2]",
      "tick 2",
      "drop index plife",
      "create person (name: 'Cyd', salary: 70)",
  };
  for (const std::string& statement : workload) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  ASSERT_TRUE(shipper.DrainAll().ok());

  EXPECT_EQ(StateHashOf(primary.engine.get()),
            StateHashOf(&replica.value()->engine()));
  ReadSnapshot primary_snap = primary.engine->OpenSnapshot();
  ReadSnapshot replica_snap = replica.value()->engine().OpenSnapshot();
  const Database& pdb = primary_snap.db();
  const Database& rdb = replica_snap.db();
  ASSERT_NE(rdb.GetIndexDef("psal"), nullptr);
  EXPECT_EQ(rdb.GetIndexDef("plife"), nullptr);  // dropped before drain
  EXPECT_EQ(pdb.DebugDumpIndexes(), rdb.DebugDumpIndexes());
  // The replica's index actually answers probes over its replayed data.
  std::vector<Oid> hit =
      rdb.IndexProbe("psal", ProbeOp::kEq, Value::Integer(150), rdb.now());
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].id, 1u);
}

// ---------------------------------------------------------------------------
// Stream-fault validation (satellite: each is a retryable Status, no
// crash, no silent skip)

class StreamFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    primary_ = Primary::Start(FreshDir("fault_primary"));
    Session session = primary_.engine->OpenSession();
    for (const std::string& statement : WorkloadPartOne()) {
      ASSERT_TRUE(session.Execute(statement).ok()) << statement;
    }
    source_ = std::make_unique<ReplicationSource>(primary_.journal_path(),
                                                  primary_.SourceOptions());
    auto replica = Replica::Open(FreshDir("fault_replica"));
    ASSERT_TRUE(replica.ok()) << replica.status();
    replica_ = std::move(replica.value());
  }

  Result<ReplicationBatch> FetchAll() {
    return source_->Fetch(replica_->cursor(), 1024);
  }

  // After a rejected delivery the stream must still complete from the
  // replica's (unchanged or prefix-advanced) cursor.
  void ExpectStreamStillCompletes() {
    auto batch = FetchAll();
    ASSERT_TRUE(batch.ok()) << batch.status();
    ASSERT_TRUE(replica_->Apply(batch.value()).ok());
    EXPECT_EQ(StateHashOf(primary_.engine.get()),
              StateHashOf(&replica_->engine()));
  }

  Primary primary_;
  std::unique_ptr<ReplicationSource> source_;
  std::unique_ptr<Replica> replica_;
};

TEST_F(StreamFaultTest, SequenceGapIsRetryableNotSkipped) {
  auto batch = FetchAll();
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_GE(batch.value().records.size(), 3u);
  // Drop a middle record: the delivery must stop AT the gap — records
  // before it apply, the gap and everything after are refused.
  ReplicationBatch tampered = batch.value();
  tampered.records.erase(tampered.records.begin() + 1);
  Status status = replica_->Apply(tampered);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(replica_->cursor().next_seq, 2u);  // stopped at the gap
  ExpectStreamStillCompletes();
}

TEST_F(StreamFaultTest, EpochMismatchIsRetryable) {
  auto batch = FetchAll();
  ASSERT_TRUE(batch.ok()) << batch.status();
  ReplicationBatch tampered = batch.value();
  ASSERT_FALSE(tampered.records.empty());
  tampered.records.front().epoch += 7;
  Status status = replica_->Apply(tampered);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(replica_->cursor().next_seq, 1u);  // nothing applied
  ExpectStreamStillCompletes();
}

TEST_F(StreamFaultTest, CrcCorruptionIsRetryable) {
  auto batch = FetchAll();
  ASSERT_TRUE(batch.ok()) << batch.status();
  ReplicationBatch tampered = batch.value();
  ASSERT_FALSE(tampered.records.empty());
  tampered.records.front().statement[0] ^= 0x20;  // bit flip in transit
  Status status = replica_->Apply(tampered);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_EQ(replica_->cursor().next_seq, 1u);
  ExpectStreamStillCompletes();
}

// ---------------------------------------------------------------------------
// Live-tail semantics (satellite: a partial record at the live tail is
// retried, never salvaged)

TEST(ReplicationTest, PartialLiveTailIsRetriedNeverSalvaged) {
  const std::string dir = FreshDir("partial_tail");
  const std::string path = dir + "/journal.tql";
  const std::string complete = FramedRecord(1, "tick 1");
  std::string torn = FramedRecord(2, "tick 2");
  torn.resize(torn.size() / 2);  // an append in flight: no newline yet
  {
    std::ofstream out(path, std::ios::binary);
    out << "TCHIMERA-JOURNAL 2 0\n" << complete << torn;
    ASSERT_TRUE(out.good());
  }

  // Offline source (no horizon provider): everything on disk ships.
  ReplicationSource source(path);
  ReplicationCursor cursor;
  auto first = source.Fetch(cursor, 16);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first.value().records.size(), 1u);
  EXPECT_TRUE(first.value().at_horizon);
  EXPECT_FALSE(HasCorruptQuarantine(dir)) << "live tail was salvaged";

  // Retrying at the tail keeps returning "nothing yet" without ever
  // touching the file.
  auto retry = source.Fetch(first.value().next, 16);
  ASSERT_TRUE(retry.ok()) << retry.status();
  EXPECT_TRUE(retry.value().records.empty());
  EXPECT_FALSE(HasCorruptQuarantine(dir));

  // The writer finishes the append: the record ships on the next fetch.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    std::string full = FramedRecord(2, "tick 2");
    out << full.substr(torn.size());
    ASSERT_TRUE(out.good());
  }
  auto after = source.Fetch(retry.value().next, 16);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after.value().records.size(), 1u);
  EXPECT_EQ(after.value().records.front().seq, 2u);
  EXPECT_EQ(after.value().records.front().statement, "tick 2");
  EXPECT_FALSE(HasCorruptQuarantine(dir));
}

TEST(ReplicationTest, UnsyncedTailBeyondHorizonIsNotShipped) {
  Primary primary = Primary::Start(FreshDir("horizon_primary"));
  Session session = primary.engine->OpenSession();
  ASSERT_TRUE(session.Execute("tick 1").ok());

  // Forge bytes beyond the durable horizon: on disk, but the sink never
  // synced them — a crash could drop them, so they must not ship.
  {
    std::ofstream out(primary.journal_path(),
                      std::ios::binary | std::ios::app);
    out << FramedRecord(2, "tick 99");
    ASSERT_TRUE(out.good());
  }
  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  ReplicationCursor cursor;
  auto batch = source.Fetch(cursor, 16);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch.value().records.size(), 1u);
  EXPECT_EQ(batch.value().records.front().statement, "tick 1");
  EXPECT_TRUE(batch.value().at_horizon);
}

// ---------------------------------------------------------------------------
// Checkpoint resync + epoch rollover

TEST(ReplicationTest, LateJoinerResyncsFromCheckpoint) {
  Primary primary = Primary::Start(FreshDir("resync_primary"));
  Session session = primary.engine->OpenSession();
  for (const std::string& statement : WorkloadPartOne()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  // The checkpoint deletes the epoch-0 journal: a follower that never
  // saw epoch 0 can only join via the snapshot.
  ASSERT_TRUE(primary.Checkpoint().ok());
  for (const std::string& statement : WorkloadPartTwo()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }

  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  auto replica = Replica::Open(FreshDir("resync_replica"));
  ASSERT_TRUE(replica.ok()) << replica.status();
  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "late");

  ASSERT_TRUE(shipper.DrainAll().ok());
  EXPECT_GE(shipper.resyncs(), 1u);
  EXPECT_EQ(replica.value()->checkpoints_installed(), 1u);
  EXPECT_EQ(StateHashOf(primary.engine.get()),
            StateHashOf(&replica.value()->engine()));
}

TEST(ReplicationTest, FollowerRollsEpochsAcrossPrimaryCheckpoints) {
  Primary primary = Primary::Start(FreshDir("roll_primary"));
  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  auto replica = Replica::Open(FreshDir("roll_replica"));
  ASSERT_TRUE(replica.ok()) << replica.status();
  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "r1");

  Session session = primary.engine->OpenSession();
  for (const std::string& statement : WorkloadPartOne()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  ASSERT_TRUE(shipper.DrainAll().ok());  // follower current in epoch 0

  ASSERT_TRUE(primary.Checkpoint().ok());
  for (const std::string& statement : WorkloadPartTwo()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  ASSERT_TRUE(shipper.DrainAll().ok());

  // The follower crossed the rotation incrementally — no resync needed.
  EXPECT_EQ(shipper.resyncs(), 0u);
  EXPECT_EQ(replica.value()->cursor().epoch, 1u);
  EXPECT_EQ(StateHashOf(primary.engine.get()),
            StateHashOf(&replica.value()->engine()));

  // The replica mirrored the rotation locally: its own directory is a
  // recoverable snapshot+journal pair at the new epoch. Reopen it cold.
  std::string replica_dir = replica.value()->dir();
  replica.value().reset();
  auto reopened = Replica::Open(replica_dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(StateHashOf(primary.engine.get()),
            StateHashOf(&reopened.value()->engine()));
  EXPECT_EQ(reopened.value()->cursor().epoch, 1u);
}

// ---------------------------------------------------------------------------
// Promotion fencing

TEST(ReplicationTest, PromotionFencesOldPrimary) {
  EpochFence fence;
  Primary primary = Primary::Start(FreshDir("fence_primary"));
  primary.sink->AttachFence(&fence, /*authority_token=*/0);

  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  auto replica = Replica::Open(FreshDir("fence_replica"));
  ASSERT_TRUE(replica.ok()) << replica.status();
  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "r1");

  Session session = primary.engine->OpenSession();
  for (const std::string& statement : WorkloadPartOne()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  ASSERT_TRUE(shipper.DrainAll().ok());

  // Failover: promote the replica. The fence must now reject the old
  // primary even though its process is still alive and its sink open.
  auto promotion = replica.value()->Promote(&fence);
  ASSERT_TRUE(promotion.ok()) << promotion.status();
  EXPECT_GT(promotion.value().token, 0u);

  Result<std::string> rejected = session.Execute("tick 1");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition)
      << rejected.status();
  // Checkpoints (the other way an ex-primary writes) are fenced too.
  Status checkpoint = primary.Checkpoint();
  EXPECT_EQ(checkpoint.code(), StatusCode::kFailedPrecondition);

  // The promoted node serves writes under its own authority: reopen its
  // journal through a group-commit sink carrying the promotion token.
  Replica& promoted = *replica.value();
  GroupCommitJournal new_sink;
  ASSERT_TRUE(new_sink.Open(promoted.dir() + "/journal.tql").ok());
  new_sink.AttachFence(&fence, promotion.value().token);
  promoted.engine().set_commit_sink(&new_sink);
  Session new_session = promoted.engine().OpenSession();
  EXPECT_TRUE(new_session.Execute("tick 1").ok());
  // A promoted replica never applies the old stream again.
  ReplicationBatch stale;
  EXPECT_EQ(promoted.Apply(stale).code(), StatusCode::kFailedPrecondition);
  new_sink.Close();
}

// A fenced sink refuses every durable statement, and a refused statement
// publishes nothing: no snapshot, no later commit and no checkpoint of
// the ex-primary ever holds what its journal could not record — on the
// exclusive path (definitions) exactly as on the optimistic one.
TEST(ReplicationTest, FencedSinkRefusesDefinitionsWithoutPublishing) {
  EpochFence fence;
  Primary primary = Primary::Start(FreshDir("fence_ddl_primary"));
  primary.sink->AttachFence(&fence, /*authority_token=*/0);
  Session session = primary.engine->OpenSession();
  ASSERT_TRUE(
      session.Execute("define class emp attributes v: integer end").ok());
  const uint64_t version = primary.engine->version();

  fence.Fence(1);  // a promotion elsewhere revoked this node's authority
  for (const std::string& refused :
       {std::string("define class dept attributes n: integer end"),
        std::string("trigger audit on create of emp do tick 1"),
        std::string("create emp (v: 1)")}) {
    Result<std::string> out = session.Execute(refused);
    ASSERT_FALSE(out.ok()) << refused;
    EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition)
        << out.status();
  }
  EXPECT_EQ(primary.engine->version(), version);
  ReadSnapshot snap = primary.engine->OpenSnapshot();
  EXPECT_EQ(snap.db().GetClass("dept"), nullptr);
  EXPECT_EQ(snap.db().object_count(), 0u);
  EXPECT_TRUE(primary.engine->active().DefinitionStatements().empty());
  // The next commit (an unjournaled exclusive write) publishes a copy of
  // the head, which does not carry the refused definition either.
  ASSERT_TRUE(primary.engine
                  ->WithExclusive([](Database& db, ActiveDatabase& active) {
                    EXPECT_EQ(db.GetClass("dept"), nullptr);
                    EXPECT_TRUE(active.DefinitionStatements().empty());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(primary.engine->OpenSnapshot().db().GetClass("dept"), nullptr);
}

// ---------------------------------------------------------------------------
// Backoff

TEST(ReplicationTest, BackoffIsBoundedDeterministicAndJittered) {
  ExponentialBackoff::Options opts;
  opts.initial = std::chrono::microseconds(100);
  opts.max = std::chrono::microseconds(10'000);
  opts.multiplier = 2.0;
  opts.jitter = 0.2;
  ExponentialBackoff a(opts), b(opts);
  std::chrono::microseconds prev{0};
  for (int i = 0; i < 12; ++i) {
    auto delay_a = a.NextDelay();
    auto delay_b = b.NextDelay();
    EXPECT_EQ(delay_a, delay_b) << "same seed must reproduce";
    EXPECT_GE(delay_a.count(), 0);
    EXPECT_LE(delay_a.count(), opts.max.count());
    if (i < 5) {
      EXPECT_GE(delay_a, prev / 4);  // roughly growing
    }
    prev = delay_a;
  }
  // The tail of the sequence saturates near max (within jitter).
  EXPECT_GE(prev.count(),
            static_cast<int64_t>(opts.max.count() * (1.0 - opts.jitter)));
  a.Reset();
  EXPECT_EQ(a.attempts(), 0u);
  EXPECT_LE(a.NextDelay().count(),
            static_cast<int64_t>(opts.initial.count() * (1.0 + opts.jitter)));
}

TEST(ReplicationTest, PerReplicaSeedsSpreadTheHerd) {
  // Regression: every follower used to construct its backoff from the
  // shared options verbatim — identical seed, identical jitter stream —
  // so after a primary hiccup all replicas retried in lockstep, which is
  // exactly the thundering herd jitter exists to prevent. SeededFor must
  // derive distinct streams per replica name while staying deterministic
  // for a given (seed, name) pair.
  ExponentialBackoff::Options opts;
  opts.initial = std::chrono::microseconds(1'000);
  opts.max = std::chrono::microseconds(1'000'000);
  opts.multiplier = 2.0;
  opts.jitter = 0.5;

  const char* names[] = {"r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8"};
  std::vector<ExponentialBackoff> herd;
  for (const char* name : names) {
    herd.emplace_back(ExponentialBackoff::SeededFor(opts, name));
  }
  // Deterministic: the same (options, name) yields the same stream.
  ExponentialBackoff again(ExponentialBackoff::SeededFor(opts, "r1"));
  EXPECT_EQ(herd[0].NextDelay(), again.NextDelay());

  // Spread: across a few rounds the herd must not collapse onto one
  // delay. With 50% jitter and distinct streams, even one all-equal
  // round is astronomically unlikely — require most delays distinct.
  for (int round = 0; round < 4; ++round) {
    std::set<int64_t> distinct;
    for (ExponentialBackoff& b : herd) {
      distinct.insert(b.NextDelay().count());
    }
    EXPECT_GE(distinct.size(), herd.size() / 2)
        << "followers retried in lockstep on round " << round;
  }

  // A zero caller seed must not defeat the name mixing.
  ExponentialBackoff::Options zero = opts;
  zero.seed = 0;
  auto s1 = ExponentialBackoff::SeededFor(zero, "a");
  auto s2 = ExponentialBackoff::SeededFor(zero, "b");
  EXPECT_NE(s1.seed, s2.seed);
  EXPECT_NE(s1.seed, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent replica reads while the pump applies (MVCC isolation)

TEST(ReplicationTest, SnapshotReadsRaceFreeWithApply) {
  Primary primary = Primary::Start(FreshDir("race_primary"));
  Session session = primary.engine->OpenSession();
  for (const std::string& statement : WorkloadPartOne()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }
  for (const std::string& statement : WorkloadPartTwo()) {
    ASSERT_TRUE(session.Execute(statement).ok()) << statement;
  }

  ReplicationSource source(primary.journal_path(), primary.SourceOptions());
  auto replica = Replica::Open(FreshDir("race_replica"));
  ASSERT_TRUE(replica.ok()) << replica.status();
  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "r1");

  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      ReadSnapshot snap = replica.value()->OpenSnapshot();
      // Touch the snapshot: versions must be immutable under the reader.
      (void)snap.db().now();
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Drain only once the reader runs, so its reads overlap the apply
  // however the two threads happen to be scheduled.
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  Status drained = shipper.DrainAll();
  done.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(drained.ok()) << drained;
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(StateHashOf(primary.engine.get()),
            StateHashOf(&replica.value()->engine()));
}

// ---------------------------------------------------------------------------
// Crash-point enumeration — primary (shipping) side. The primary runs
// the workload with a checkpoint in the middle on a fault-injection
// filesystem, crashing at every Nth mutating operation. After each
// crash: recover the primary, attach a fresh replica, drain, and demand
// state-hash equality. This proves the stream is always reconstructible
// from whatever a primary crash leaves on disk (salvaged tails, half
// checkpoints, deleted epochs).

// Runs the primary workload (part one, checkpoint, part two); failures
// are expected when a crash plan is armed.
void RunPrimaryWorkloadOn(Primary* primary, FileSystem* fs) {
  Session session = primary->engine->OpenSession();
  for (const std::string& statement : WorkloadPartOne()) {
    if (!session.Execute(statement).ok()) return;
  }
  if (!primary->Checkpoint(fs).ok()) return;
  for (const std::string& statement : WorkloadPartTwo()) {
    if (!session.Execute(statement).ok()) return;
  }
}

TEST(ReplicationCrashTest, PrimaryCrashPointsAllRecoverAndShip) {
  FaultInjectionFileSystem ffs(FileSystem::Default());

  // Fault-free baseline: count the primary's mutating fs operations.
  {
    Primary baseline = Primary::Start(FreshDir("pcrash_base"), &ffs);
    ffs.ClearPlan();
    RunPrimaryWorkloadOn(&baseline, &ffs);
    baseline.sink->Close();
  }
  const uint64_t total_ops = ffs.ops_seen();
  ASSERT_GT(total_ops, 0u);
  const uint64_t stride = CrashStride((total_ops / 10) + 1);

  for (uint64_t crash_at = 0; crash_at < total_ops; crash_at += stride) {
    SCOPED_TRACE("crash at primary op " + std::to_string(crash_at));
    const std::string dir = FreshDir("pcrash_p");
    {
      Primary doomed = Primary::Start(dir, &ffs);
      FaultPlan plan;
      plan.mode = FaultPlan::Mode::kCrash;
      plan.at_op = crash_at;
      plan.surviving_tail_bytes = crash_at % 7;  // vary the torn prefix
      ffs.SetPlan(plan);
      RunPrimaryWorkloadOn(&doomed, &ffs);
      // The doomed node's buffers die with it (sink poisoned already).
    }
    ffs.ClearPlan();

    Primary recovered;
    Status status = Primary::Recover(dir, &ffs, &recovered);
    ASSERT_TRUE(status.ok()) << status;

    ReplicationSource source(recovered.journal_path(),
                             recovered.SourceOptions());
    auto replica = Replica::Open(FreshDir("pcrash_r"));
    ASSERT_TRUE(replica.ok()) << replica.status();
    ReplicationShipper shipper(&source, InstantShipperOptions());
    shipper.AddReplica(replica.value().get(), "r1");
    Status drained = shipper.DrainAll();
    ASSERT_TRUE(drained.ok()) << drained;
    EXPECT_EQ(StateHashOf(recovered.engine.get()),
              StateHashOf(&replica.value()->engine()));
    recovered.sink->Close();
  }
}

// ---------------------------------------------------------------------------
// Crash-point enumeration — replica (replay) side. The primary is
// healthy; the replica's filesystem crashes at every Nth mutating
// operation while it follows the stream across a checkpoint rollover.
// After each crash: reopen the replica (ordinary local recovery), drain
// again, and demand state-hash equality.

// One full follower run on `ffs`: join, drain part one, follow the
// primary across its checkpoint, drain part two. Failures expected.
void RunReplicaFollow(Primary* primary, FaultInjectionFileSystem* ffs,
                      const std::string& replica_dir) {
  ReplicationSource source(primary->journal_path(),
                           primary->SourceOptions());
  ReplicaOptions ropts;
  ropts.fs = ffs;
  auto replica = Replica::Open(replica_dir, ropts);
  if (!replica.ok()) return;  // crashed during open
  ReplicationShipper shipper(&source, InstantShipperOptions());
  shipper.AddReplica(replica.value().get(), "r1");
  if (!shipper.DrainAll().ok()) return;

  Session session = primary->engine->OpenSession();
  if (!primary->Checkpoint(nullptr).ok()) return;
  for (const std::string& statement : WorkloadPartTwo()) {
    if (!session.Execute(statement).ok()) return;
  }
  (void)shipper.DrainAll();
}

TEST(ReplicationCrashTest, ReplicaCrashPointsAllRecoverAndConverge) {
  // Fault-free baseline for the operation count.
  FaultInjectionFileSystem ffs(FileSystem::Default());
  uint64_t total_ops = 0;
  {
    Primary primary = Primary::Start(FreshDir("rcrash_base_p"));
    Session session = primary.engine->OpenSession();
    for (const std::string& statement : WorkloadPartOne()) {
      ASSERT_TRUE(session.Execute(statement).ok()) << statement;
    }
    ffs.ClearPlan();
    RunReplicaFollow(&primary, &ffs, FreshDir("rcrash_base_r"));
    total_ops = ffs.ops_seen();
    primary.sink->Close();
  }
  ASSERT_GT(total_ops, 0u);
  const uint64_t stride = CrashStride((total_ops / 10) + 1);

  for (uint64_t crash_at = 0; crash_at < total_ops; crash_at += stride) {
    SCOPED_TRACE("crash at replica op " + std::to_string(crash_at));
    Primary primary = Primary::Start(FreshDir("rcrash_p"));
    Session session = primary.engine->OpenSession();
    for (const std::string& statement : WorkloadPartOne()) {
      ASSERT_TRUE(session.Execute(statement).ok()) << statement;
    }
    const std::string replica_dir = FreshDir("rcrash_r");
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = crash_at;
    plan.surviving_tail_bytes = crash_at % 5;
    ffs.SetPlan(plan);
    RunReplicaFollow(&primary, &ffs, replica_dir);
    ffs.ClearPlan();

    // Make sure the primary finished its side regardless of where the
    // follower died (the follower's crash must never stall the primary).
    {
      Session finish = primary.engine->OpenSession();
      ReadSnapshot tip = primary.engine->OpenSnapshot();
      if (tip.db().now() < 5) {
        if (primary.Checkpoint(nullptr).ok()) {
          for (const std::string& statement : WorkloadPartTwo()) {
            (void)finish.Execute(statement);
          }
        }
      }
    }

    // Replica restart: ordinary local recovery over the shipped copy,
    // then resume the stream (resyncing if its epoch was pruned).
    ReplicaOptions ropts;
    ropts.fs = &ffs;
    auto reopened = Replica::Open(replica_dir, ropts);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    ReplicationSource source(primary.journal_path(),
                             primary.SourceOptions());
    ReplicationShipper shipper(&source, InstantShipperOptions());
    shipper.AddReplica(reopened.value().get(), "r1");
    Status drained = shipper.DrainAll();
    ASSERT_TRUE(drained.ok()) << drained;
    EXPECT_EQ(StateHashOf(primary.engine.get()),
              StateHashOf(&reopened.value()->engine()));
    primary.sink->Close();
  }
}

}  // namespace
}  // namespace tchimera
