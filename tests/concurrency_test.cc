// Tests for the session/transaction engine: snapshot-isolated readers
// over a VersionedDatabase, serialized writes through the query Engine,
// and cross-session group commit (storage/group_commit.h) — including
// crash-point enumeration proving acknowledged commits land on
// whole-batch boundaries.
//
// The stress tests here are the ones the TSan CI job exercises
// (-DTCHIMERA_SANITIZE=thread): a data race in the snapshot or commit
// protocol is a test failure there, not a flake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/diagnostic.h"
#include "analysis/lint_driver.h"
#include "common/fault_fs.h"
#include "core/db/consistency.h"
#include "core/db/database.h"
#include "core/db/versioned_db.h"
#include "query/interpreter.h"
#include "query/session.h"
#include "storage/deserializer.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

// A fresh scratch directory per test case (wiped on entry, so reruns are
// deterministic).
std::string FreshDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("tchimera_conc_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

constexpr char kSchema[] = "define class emp attributes v: integer end";

// Checkpoints `engine` through `sink` into `snapshot_path`: what ran
// before the sink was installed lands in the snapshot, and the journal
// holds exactly what commits afterwards.
Status CheckpointThrough(Engine* engine, GroupCommitJournal* sink,
                         const std::string& snapshot_path) {
  return engine->WithExclusive([&](Database& live, ActiveDatabase& active) {
    return sink->WithQuiesced([&](Journal& journal) {
      return RecoveryManager::Checkpoint(live, &journal, snapshot_path,
                                         nullptr,
                                         active.DefinitionStatements());
    });
  });
}

// ---------------------------------------------------------------------------
// VersionedDatabase: the core snapshot/commit protocol.

TEST(VersionedDbTest, SnapshotPinsVersionAndCommitBumpsIt) {
  VersionedDatabase vdb;
  EXPECT_EQ(vdb.version(), 0u);

  ReadSnapshot before = vdb.OpenSnapshot();
  EXPECT_TRUE(before.valid());
  EXPECT_EQ(before.version(), 0u);
  EXPECT_EQ(before.db().now(), 0);
  // Snapshots of the same version are views of one immutable Database,
  // not copies: concurrent snapshots are free.
  ReadSnapshot sibling = vdb.OpenSnapshot();
  EXPECT_EQ(&sibling.db(), &before.db());
  {
    ReadSnapshot released = std::move(sibling);  // movable; pin travels
    EXPECT_TRUE(released.valid());
  }

  // MVCC: `before` stays alive across the write — a held snapshot never
  // blocks a writer, it just keeps pinning its own version.
  {
    WriteGuard guard = vdb.BeginWrite();
    guard.db().Tick();
    EXPECT_EQ(guard.Commit(), 1u);
  }
  EXPECT_EQ(vdb.version(), 1u);
  EXPECT_EQ(before.version(), 0u);
  EXPECT_EQ(before.db().now(), 0);  // still the pinned pre-commit state
  ReadSnapshot after = vdb.OpenSnapshot();
  EXPECT_EQ(after.version(), 1u);
  EXPECT_EQ(after.db().now(), 1);

  // A guard dropped without Commit publishes nothing, and its mutation
  // leaves no trace: the next commit starts from the published head.
  {
    WriteGuard abandoned = vdb.BeginWrite();
    abandoned.db().Tick(5);
  }
  EXPECT_EQ(vdb.version(), 1u);
  {
    WriteGuard guard = vdb.BeginWrite();
    EXPECT_EQ(guard.db().now(), 1);
    guard.db().Tick();
    EXPECT_EQ(guard.Commit(), 2u);
  }
  EXPECT_EQ(vdb.OpenSnapshot().db().now(), 2);
}

// Satellite regression: Commit() publishes under the writer lock and
// releases it — a second Commit() (the old commit-after-release pattern,
// which used to bump the version counter without the lock and could
// publish out of order) is a hard error, not a silent race.
TEST(VersionedDbDeathTest, CommitAfterReleaseIsAHardError) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  VersionedDatabase vdb;
  EXPECT_DEATH(
      {
        WriteGuard guard = vdb.BeginWrite();
        guard.db().Tick();
        guard.Commit();
        guard.Commit();  // lock already released by the first Commit
      },
      "no longer holds the writer lock");
}

// Version chains retire by refcount: a published version's Database is
// freed as soon as no snapshot pins it and a newer version exists.
TEST(VersionedDbTest, RetiredVersionsFreeTheirDatabases) {
  const int64_t base = Database::live_instance_count();
  VersionedDatabase vdb;  // the published version 0, nothing else
  EXPECT_EQ(Database::live_instance_count(), base + 1);
  {
    ReadSnapshot pinned = vdb.OpenSnapshot();
    for (int i = 0; i < 5; ++i) {
      WriteGuard guard = vdb.BeginWrite();
      guard.db().Tick();
      guard.Commit();
    }
    // Intermediate versions 1..4 retired the moment their successor was
    // published; alive: pinned version 0, latest version 5.
    EXPECT_EQ(vdb.version(), 5u);
    EXPECT_EQ(Database::live_instance_count(), base + 2);
    EXPECT_EQ(pinned.db().now(), 0);
  }
  // Dropping the last pin retires version 0 too.
  EXPECT_EQ(Database::live_instance_count(), base + 1);
}

// Satellite: snapshot-retirement property test (run under ASan in CI).
// After N random commit / open / drop steps, the process holds exactly
// the Databases still reachable: one per *distinct* version some
// snapshot pins (or the published head). No retired version leaks.
TEST(VersionedDbTest, SnapshotRetirementProperty) {
  const int64_t base = Database::live_instance_count();
  VersionedDatabase vdb;
  std::mt19937 rng(0x7c01u);  // deterministic: failures must reproduce
  std::vector<ReadSnapshot> held;
  for (int step = 0; step < 400; ++step) {
    switch (rng() % 3) {
      case 0: {
        WriteGuard guard = vdb.BeginWrite();
        guard.db().Tick();
        guard.Commit();
        break;
      }
      case 1:
        held.push_back(vdb.OpenSnapshot());
        break;
      default:
        if (!held.empty()) {
          size_t victim = rng() % held.size();
          held[victim] = std::move(held.back());
          held.pop_back();
        }
        break;
    }
    std::set<uint64_t> pinned_versions;
    for (const ReadSnapshot& snap : held) {
      pinned_versions.insert(snap.version());
    }
    pinned_versions.insert(vdb.version());  // the head is always alive
    ASSERT_EQ(Database::live_instance_count(),
              base + static_cast<int64_t>(pinned_versions.size()))
        << "at step " << step << " with " << held.size() << " snapshots";
  }
  held.clear();
  EXPECT_EQ(Database::live_instance_count(), base + 1);  // the head
}

// ---------------------------------------------------------------------------
// Session routing: reads on snapshots, writes serialized, one version
// bump per successful mutation.

TEST(SessionTest, ReadsSeeCommittedWritesAndDontBumpVersion) {
  Engine engine;
  Session session = engine.OpenSession();

  ASSERT_TRUE(session.Execute(kSchema).ok());
  Result<std::string> oid = session.Execute("create emp (v: 1)");
  ASSERT_TRUE(oid.ok()) << oid.status();
  EXPECT_EQ(*oid, "i1");
  uint64_t after_writes = engine.version();
  EXPECT_EQ(after_writes, 2u);  // one commit per mutating statement

  Result<std::string> read = session.Execute("select x.v from x in emp");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, "1");
  EXPECT_EQ(session.Execute("show now").value(), "now = 0");
  EXPECT_EQ(session.Execute("snapshot i1").value(),
            session.Execute("snapshot i1 at 0").value());
  // Reads never commit.
  EXPECT_EQ(engine.version(), after_writes);

  // A failing write publishes nothing.
  EXPECT_FALSE(session.Execute("create nosuch (v: 1)").ok());
  EXPECT_EQ(engine.version(), after_writes);
}

TEST(SessionTest, DirectSnapshotMatchesWriterState) {
  Engine engine;
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Execute(kSchema).ok());
  ASSERT_TRUE(session.Execute("create emp (v: 7)").ok());

  ReadSnapshot snap = session.snapshot();
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.version(), engine.version());
  EXPECT_EQ(snap.db().object_count(), 1u);
  EXPECT_TRUE(CheckDatabaseConsistency(snap.db()).ok());
}

// ---------------------------------------------------------------------------
// The stress test: >=4 readers racing 1 writer. Every snapshot a reader
// opens must pass the full Definition 5.3-5.6 consistency audit, and the
// version sequence each reader observes must be monotone (snapshot
// isolation: no time travel). Run under TSan this also proves the
// locking protocol is race-free.

TEST(ConcurrencyTest, StressReadersVsWriter) {
  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    ASSERT_TRUE(setup.Execute("create emp (v: 0)").ok());
  }

  constexpr int kReaders = 4;
  constexpr int kWrites = 60;
  std::atomic<bool> done{false};
  std::atomic<int> audit_failures{0};
  std::atomic<int> monotonicity_violations{0};
  std::atomic<int> read_errors{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &done, &audit_failures,
                          &monotonicity_violations, &read_errors] {
      Session session = engine.OpenSession();
      uint64_t last_version = 0;
      do {
        ReadSnapshot snap = session.snapshot();
        if (snap.version() < last_version) {
          monotonicity_violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_version = snap.version();
        if (!CheckDatabaseConsistency(snap.db()).ok()) {
          audit_failures.fetch_add(1, std::memory_order_relaxed);
        }
        snap = ReadSnapshot();  // drop the pin before the TQL read
        Result<std::string> rows =
            session.Execute("select x.v from x in emp");
        if (!rows.ok()) read_errors.fetch_add(1, std::memory_order_relaxed);
        // Breathe between iterations so the writer makes progress per
        // reader-observed version (more interesting interleavings).
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      } while (!done.load(std::memory_order_acquire));
    });
  }

  Session writer = engine.OpenSession();
  for (int i = 0; i < kWrites; ++i) {
    Result<std::string> out = (i % 2 == 0)
                                  ? writer.Execute("create emp (v: 1)")
                                  : writer.Execute("tick 1");
    ASSERT_TRUE(out.ok()) << out.status();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(audit_failures.load(), 0);
  EXPECT_EQ(monotonicity_violations.load(), 0);
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(engine.version(), static_cast<uint64_t>(kWrites) + 2);
  EXPECT_TRUE(CheckDatabaseConsistency(engine.OpenSnapshot().db()).ok());
}

// ---------------------------------------------------------------------------
// The MVCC interference stress: one deliberately slow reader pins a
// single snapshot for the ENTIRE run while a writer commits hundreds of
// statements. Under the old shared_mutex protocol this deadlocked (the
// writer waited on the held read lock); under MVCC the writer never
// waits, the reader's pinned view never changes, and the chain of
// intermediate versions retires as it is superseded. TSan-clean.

TEST(ConcurrencyTest, SlowReaderDoesNotBlockWriters) {
  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    ASSERT_TRUE(setup.Execute("create emp (v: 0)").ok());
  }
  const uint64_t pinned_version = engine.version();
  const int64_t live_before = Database::live_instance_count();

  constexpr int kWrites = 200;
  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> writer_done{false};
  std::atomic<int> reader_failures{0};

  std::thread slow_reader([&engine, &reader_pinned, &writer_done,
                           &reader_failures, pinned_version] {
    Session session = engine.OpenSession();
    ReadSnapshot pinned = session.snapshot();  // held for the whole run
    if (!pinned.valid() || pinned.version() != pinned_version) {
      reader_failures.fetch_add(1, std::memory_order_relaxed);
      reader_pinned.store(true, std::memory_order_release);
      return;
    }
    reader_pinned.store(true, std::memory_order_release);
    const size_t expected_objects = pinned.db().object_count();
    while (!writer_done.load(std::memory_order_acquire)) {
      // The pinned view must be frozen: same version, same state, fully
      // consistent, no matter how many commits land meanwhile.
      if (pinned.version() != pinned_version ||
          pinned.db().object_count() != expected_objects ||
          pinned.db().now() != 0 ||
          !CheckDatabaseConsistency(pinned.db()).ok()) {
        reader_failures.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Only start committing once the reader's pin is in place — the whole
  // point is that the pinned snapshot outlives every one of the writes.
  while (!reader_pinned.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  Session writer = engine.OpenSession();
  for (int i = 0; i < kWrites; ++i) {
    Result<std::string> out = (i % 2 == 0)
                                  ? writer.Execute("create emp (v: 1)")
                                  : writer.Execute("tick 1");
    ASSERT_TRUE(out.ok()) << out.status();
  }
  // With the reader still pinning its snapshot, all writes are already
  // committed and visible — the old protocol never got here.
  EXPECT_EQ(engine.version(), pinned_version + kWrites);
  // The version chain retired as it went: only the published head and
  // the reader's pinned version are alive, not kWrites copies.
  EXPECT_LE(Database::live_instance_count(), live_before + 1);

  writer_done.store(true, std::memory_order_release);
  slow_reader.join();
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_TRUE(CheckDatabaseConsistency(engine.OpenSnapshot().db()).ok());
}

// ---------------------------------------------------------------------------
// Group commit: deterministic batching on one thread.

TEST(GroupCommitTest, OneSyncAcknowledgesManyStatements) {
  std::string dir = FreshDir("batching");
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tchl").ok());

  constexpr uint64_t kStatements = 8;
  CommitSink::Ticket last;
  for (uint64_t i = 0; i < kStatements; ++i) last = sink.Enqueue("tick 1");
  EXPECT_EQ(last.seq, kStatements);
  EXPECT_EQ(sink.durable(), 0u);  // nothing on disk until someone awaits

  ASSERT_TRUE(sink.Await(last).ok());
  EXPECT_EQ(sink.durable(), kStatements);
  EXPECT_EQ(sink.batches(), 1u);  // all eight rode one fdatasync

  Status quiesced = sink.WithQuiesced([&](Journal& journal) {
    EXPECT_EQ(journal.appended(), kStatements);
    EXPECT_EQ(journal.sync_count(), 1u);
    return Status::OK();
  });
  ASSERT_TRUE(quiesced.ok()) << quiesced;
  // Awaiting an already-durable ticket is free — no new batch.
  ASSERT_TRUE(sink.Await(last).ok());
  EXPECT_EQ(sink.batches(), 1u);
  sink.Close();

  Result<JournalScan> scan = ScanJournal(dir + "/journal.tchl");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->tail_error.ok());
  EXPECT_EQ(scan->statements.size(), kStatements);
}

// ---------------------------------------------------------------------------
// Group commit under real concurrency: N writer sessions hammer one
// engine; the journal must replay to the exact final state (journal
// order == commit order, even across threads).

TEST(GroupCommitTest, MultiWriterJournalReplaysToIdenticalState) {
  std::string dir = FreshDir("multiwriter");
  const std::string snapshot_path = dir + "/snapshot.tchdb";
  const std::string journal_path = dir + "/journal.tchl";

  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
  }
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(journal_path).ok());
  engine.set_commit_sink(&sink);
  ASSERT_TRUE(CheckpointThrough(&engine, &sink, snapshot_path).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&engine, &failures] {
      Session session = engine.OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        if (!session.Execute("create emp (v: 1)").ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(sink.durable(), static_cast<uint64_t>(kThreads * kPerThread));
  // Contention should have batched at least some commits (not a hard
  // guarantee per run, but durable/batches is the interesting ratio).
  EXPECT_LE(sink.batches(), sink.durable());
  sink.Close();

  // Recover the snapshot (the schema) plus the journal into a fresh
  // database.
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> replayed =
      RecoveryManager(snapshot_path, journal_path).Recover(&stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(stats.salvaged_bytes, 0u);
  ASSERT_EQ(stats.statements_applied,
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(SaveDatabaseToString(**replayed).value(),
            SaveDatabaseToString(engine.OpenSnapshot().db()).value());
}

// ---------------------------------------------------------------------------
// Crash consistency. Drives the sink directly (single-threaded, so batch
// boundaries are deterministic: each Await flushes exactly one group) on
// a fault-injection filesystem, enumerating every crash point. After
// salvage, the journal must hold (a) at least every acknowledged
// statement and (b) — with no torn tail — a whole number of batches.

struct CrashRunResult {
  uint64_t acked = 0;     // statements whose Await returned OK
  size_t recovered = 0;   // statements in the salvaged journal
  uint64_t ops_seen = 0;  // mutating fs ops during the workload proper
};

CrashRunResult RunCrashWorkload(const std::string& dir,
                                FaultInjectionFileSystem* ffs,
                                const FaultPlan& plan, uint64_t group) {
  const std::string path = dir + "/journal.tchl";
  JournalOptions jopts;
  jopts.fs = ffs;
  GroupCommitJournal sink;
  ffs->ClearPlan();  // header writes are not crash candidates here
  EXPECT_TRUE(sink.Open(path, jopts).ok());
  ffs->SetPlan(plan);

  CrashRunResult result;
  constexpr uint64_t kGroups = 5;
  for (uint64_t g = 0; g < kGroups; ++g) {
    CommitSink::Ticket last;
    for (uint64_t i = 0; i < group; ++i) last = sink.Enqueue("tick 1");
    if (!sink.Await(last).ok()) break;  // sink is poisoned from here on
    result.acked += group;
  }
  sink.Close();
  result.ops_seen = ffs->ops_seen();  // before ClearPlan resets the counter
  ffs->ClearPlan();

  Result<JournalScan> scan = SalvageJournal(path, ffs);
  EXPECT_TRUE(scan.ok()) << scan.status();
  if (scan.ok()) result.recovered = scan->statements.size();
  return result;
}

TEST(GroupCommitCrashTest, RecoveryLandsOnWholeBatchBoundary) {
  FaultInjectionFileSystem ffs(FileSystem::Default());
  constexpr uint64_t kGroup = 3;

  // Fault-free run to learn the op count, then crash at every op.
  std::string dir = FreshDir("crash_count");
  CrashRunResult clean = RunCrashWorkload(dir, &ffs, FaultPlan{}, kGroup);
  ASSERT_EQ(clean.acked, 5 * kGroup);
  ASSERT_EQ(clean.recovered, 5 * kGroup);
  const uint64_t total_ops = clean.ops_seen;
  ASSERT_GT(total_ops, 0u);

  for (uint64_t at = 0; at < total_ops; ++at) {
    std::string crash_dir =
        FreshDir("crash_at_" + std::to_string(at));
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    CrashRunResult r = RunCrashWorkload(crash_dir, &ffs, plan, kGroup);
    // Acknowledged commits survive the crash...
    EXPECT_GE(r.recovered, r.acked) << "crash at op " << at;
    // ...and with the unsynced tail fully lost, the survivors are exactly
    // whole batches: group commit never exposes half a batch. (A crash at
    // the very last ops — during Close, after the final batch synced —
    // legitimately leaves all statements acked and recovered.)
    EXPECT_EQ(r.recovered % kGroup, 0u) << "crash at op " << at;
    EXPECT_LE(r.acked, 5 * kGroup) << "crash at op " << at;
  }
}

TEST(GroupCommitCrashTest, TornTailNeverLosesAcknowledgedCommits) {
  FaultInjectionFileSystem ffs(FileSystem::Default());
  constexpr uint64_t kGroup = 3;

  std::string dir = FreshDir("torn_count");
  CrashRunResult clean = RunCrashWorkload(dir, &ffs, FaultPlan{}, kGroup);
  ASSERT_EQ(clean.acked, 5 * kGroup);
  const uint64_t total_ops = clean.ops_seen;

  for (uint64_t at = 0; at < total_ops; ++at) {
    std::string crash_dir = FreshDir("torn_at_" + std::to_string(at));
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    plan.surviving_tail_bytes = 7;  // a torn write: part of a record
    CrashRunResult r = RunCrashWorkload(crash_dir, &ffs, plan, kGroup);
    // A torn tail may preserve extra *unacknowledged* records (salvage
    // keeps any valid prefix), so only the prefix property holds: nothing
    // acknowledged is ever lost.
    EXPECT_GE(r.recovered, r.acked) << "torn crash at op " << at;
  }
}

TEST(GroupCommitTest, FailedSyncPoisonsTheSink) {
  std::string dir = FreshDir("poison");
  FaultInjectionFileSystem ffs(FileSystem::Default());
  JournalOptions jopts;
  jopts.fs = &ffs;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tchl", jopts).ok());

  Engine engine;
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Execute(kSchema).ok());
  engine.set_commit_sink(&sink);
  ASSERT_TRUE(session.Execute("create emp (v: 1)").ok());

  FaultPlan plan;
  plan.mode = FaultPlan::Mode::kFailOp;
  plan.at_op = 0;  // the very next journal write fails (EIO-style)
  ffs.SetPlan(plan);
  EXPECT_FALSE(session.Execute("create emp (v: 2)").ok());
  ffs.ClearPlan();

  // The lost write can never be acknowledged, so neither can anything
  // after it: the sink stays poisoned even though the disk recovered.
  EXPECT_FALSE(session.Execute("create emp (v: 3)").ok());
  EXPECT_FALSE(session.Execute("tick 1").ok());
  // Reads are unaffected — durability is a write-path concern.
  EXPECT_TRUE(session.Execute("select x.v from x in emp").ok());
  sink.Close();
}

// Satellite regression: Enqueue after Close used to hand out a live
// ticket for a statement that silently never reached the journal. It
// must fail fast instead — a rejected ticket (seq 0, failed status)
// that Await reports verbatim, with nothing counted as enqueued.
TEST(GroupCommitTest, EnqueueAfterCloseFailsFast) {
  std::string dir = FreshDir("enqueue_after_close");
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tchl").ok());
  CommitSink::Ticket ok_ticket = sink.Enqueue("tick 1");
  ASSERT_TRUE(sink.Await(ok_ticket).ok());
  sink.Close();

  CommitSink::Ticket rejected = sink.Enqueue("tick 1");
  EXPECT_EQ(rejected.seq, 0u);
  EXPECT_FALSE(rejected.status.ok());
  Status awaited = sink.Await(rejected);
  EXPECT_FALSE(awaited.ok());
  EXPECT_NE(awaited.message().find("closed"), std::string::npos) << awaited;
  // The rejected statement was never admitted to the pipeline.
  EXPECT_EQ(sink.enqueued(), 1u);
  EXPECT_EQ(sink.durable(), 1u);

  // On disk: exactly the one statement that was acknowledged.
  Result<JournalScan> scan = ScanJournal(dir + "/journal.tchl");
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->statements.size(), 1u);
}

// Same fail-fast contract for a poisoned sink: once a sync has failed,
// Enqueue itself reports the sticky error instead of admitting
// statements that can never become durable.
TEST(GroupCommitTest, EnqueueAfterPoisonFailsFast) {
  std::string dir = FreshDir("enqueue_after_poison");
  FaultInjectionFileSystem ffs(FileSystem::Default());
  JournalOptions jopts;
  jopts.fs = &ffs;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tchl", jopts).ok());

  FaultPlan plan;
  plan.mode = FaultPlan::Mode::kFailOp;
  plan.at_op = 0;  // the first journal write fails (EIO-style)
  ffs.SetPlan(plan);
  CommitSink::Ticket doomed = sink.Enqueue("tick 1");
  ASSERT_EQ(doomed.seq, 1u);  // admitted before the fault fired
  EXPECT_FALSE(sink.Await(doomed).ok());
  ffs.ClearPlan();

  // The sink is poisoned: later Enqueues are rejected outright, with
  // the original failure as the sticky explanation.
  CommitSink::Ticket rejected = sink.Enqueue("tick 1");
  EXPECT_EQ(rejected.seq, 0u);
  EXPECT_FALSE(rejected.status.ok());
  EXPECT_FALSE(sink.Await(rejected).ok());
  EXPECT_EQ(sink.enqueued(), 1u);
  sink.Close();
}

// ---------------------------------------------------------------------------
// The full engine + sink + checkpoint + recovery cycle, with trigger and
// constraint definitions riding the v3 snapshot's DEFINE records.

TEST(EngineRecoveryTest, CheckpointPreservesDefinitionsAcrossRestart) {
  std::string dir = FreshDir("checkpoint");
  const std::string snapshot_path = dir + "/snapshot.tchdb";
  const std::string journal_path = dir + "/journal.tchl";

  {
    Engine engine;
    GroupCommitJournal sink;
    ASSERT_TRUE(sink.Open(journal_path).ok());
    engine.set_commit_sink(&sink);
    Session session = engine.OpenSession();
    ASSERT_TRUE(session.Execute(kSchema).ok());
    ASSERT_TRUE(session
                    .Execute("trigger boost on create of emp do "
                             "update $self set v = 42")
                    .ok());
    ASSERT_TRUE(
        session.Execute("constraint positive on emp always x.v > 0").ok());

    Status checkpointed = CheckpointThrough(&engine, &sink, snapshot_path);
    ASSERT_TRUE(checkpointed.ok()) << checkpointed;
    sink.Close();
  }

  // Restart: the definitions come back on the recovered engine's facade.
  RecoveryManager manager(snapshot_path, journal_path);
  Result<std::unique_ptr<Engine>> recovered = manager.RecoverEngine();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  Engine& engine = **recovered;
  EXPECT_EQ(engine.active().DefinitionStatements().size(), 2u);
  Session session = engine.OpenSession();

  // The restored trigger actually fires...
  Result<std::string> oid = session.Execute("create emp (v: 1)");
  ASSERT_TRUE(oid.ok()) << oid.status();
  EXPECT_EQ(session.Execute("select x.v from x in emp").value(), "42");
  // ...and the restored constraint is actually evaluated: `check` passes
  // now, fails once the history violates it (constraints are checked at
  // `check` points, not per mutation).
  EXPECT_TRUE(session.Execute("check").ok());
  ASSERT_TRUE(session.Execute("tick 1").ok());
  ASSERT_TRUE(session.Execute("update " + *oid + " set v = -5").ok());
  EXPECT_FALSE(session.Execute("check").ok());
}

// ---------------------------------------------------------------------------
// Optimistic multi-writer commits: OptimisticTransaction validation at
// the VersionedDatabase layer, then the engine-level conflict matrix the
// TSan job exercises.

// Primes a VersionedDatabase: executes `script` through an exclusive
// write and publishes the result as the base version.
void Prime(VersionedDatabase* vdb, const std::string& script) {
  WriteGuard guard = vdb->BeginWrite();
  Result<std::string> out = Interpreter(&guard.db()).ExecuteScript(script);
  ASSERT_TRUE(out.ok()) << out.status();
  guard.Commit();
}

TEST(OptimisticTxnTest, DisjointWritersBothCommitWithoutConflict) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)\n"
      "create emp (v: 2)");

  OptimisticTransaction t1 = vdb.BeginTransaction();
  OptimisticTransaction t2 = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&t1.db()).Execute("update i1 set v = 10").ok());
  ASSERT_TRUE(Interpreter(&t2.db()).Execute("update i2 set v = 20").ok());

  Result<uint64_t> c1 = vdb.CommitTransaction(&t1);
  ASSERT_TRUE(c1.ok()) << c1.status();
  // t2's base predates t1's commit, but the footprints are disjoint
  // slots: validation admits it.
  Result<uint64_t> c2 = vdb.CommitTransaction(&t2);
  ASSERT_TRUE(c2.ok()) << c2.status();
  EXPECT_GT(*c2, *c1);
  EXPECT_EQ(vdb.conflict_count(), 0u);
  EXPECT_FALSE(t1.valid());  // consumed by the successful commit

  // Both writes landed in the published head.
  ReadSnapshot snap = vdb.OpenSnapshot();
  Interpreter reader(const_cast<Database*>(&snap.db()));
  EXPECT_EQ(reader.Execute("select x.v from x in emp").value(), "10\n20");
}

TEST(OptimisticTxnTest, SameSlotSecondCommitterAborts) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)");

  OptimisticTransaction t1 = vdb.BeginTransaction();
  OptimisticTransaction t2 = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&t1.db()).Execute("update i1 set v = 10").ok());
  ASSERT_TRUE(Interpreter(&t2.db()).Execute("update i1 set v = 20").ok());

  // First committer wins; the second aborts with the retryable Conflict.
  ASSERT_TRUE(vdb.CommitTransaction(&t1).ok());
  Result<uint64_t> lost = vdb.CommitTransaction(&t2);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict) << lost.status();
  EXPECT_EQ(vdb.conflict_count(), 1u);

  // The winner's value is the published one, and a retry against a
  // fresh base succeeds.
  OptimisticTransaction retry = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&retry.db()).Execute("update i1 set v = 20").ok());
  ASSERT_TRUE(vdb.CommitTransaction(&retry).ok());
  ReadSnapshot snap = vdb.OpenSnapshot();
  Interpreter reader(const_cast<Database*>(&snap.db()));
  EXPECT_EQ(reader.Execute("select x.v from x in emp").value(), "20");
}

TEST(OptimisticTxnTest, ConcurrentOidAllocatorsConflict) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end");

  OptimisticTransaction t1 = vdb.BeginTransaction();
  OptimisticTransaction t2 = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&t1.db()).Execute("create emp (v: 1)").ok());
  ASSERT_TRUE(Interpreter(&t2.db()).Execute("create emp (v: 2)").ok());

  // Both allocated the same oid from the same base: replaying the
  // journal in commit order must re-derive the same oids, so the second
  // allocator aborts rather than silently colliding.
  ASSERT_TRUE(vdb.CommitTransaction(&t1).ok());
  Result<uint64_t> lost = vdb.CommitTransaction(&t2);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict) << lost.status();
}

TEST(OptimisticTxnTest, CommittedClockAdvanceConflictsLaterValidators) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)");

  OptimisticTransaction ticker = vdb.BeginTransaction();
  OptimisticTransaction writer = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&ticker.db()).Execute("tick 1").ok());
  ASSERT_TRUE(Interpreter(&writer.db()).Execute("update i1 set v = 9").ok());

  // The writer computed its assertion against the pre-tick `now`;
  // once the tick commits, that computation is stale.
  ASSERT_TRUE(vdb.CommitTransaction(&ticker).ok());
  Result<uint64_t> lost = vdb.CommitTransaction(&writer);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict) << lost.status();
}

TEST(OptimisticTxnTest, ReferentialIntegrityRecheckAtCommit) {
  // Definition 5.6: even when the slot footprints are disjoint, a delete
  // must abort if a concurrently committed writer made some other object
  // reference the deleted one.
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer, boss: emp end\n"
      "create emp (v: 1)\n"
      "create emp (v: 2)");

  OptimisticTransaction deleter = vdb.BeginTransaction();
  OptimisticTransaction linker = vdb.BeginTransaction();
  // Locally valid: nothing references i2 at the deleter's base.
  ASSERT_TRUE(Interpreter(&deleter.db()).Execute("delete i2").ok());
  // Disjoint slot: touches only i1.
  ASSERT_TRUE(Interpreter(&linker.db()).Execute("update i1 set boss = i2").ok());

  ASSERT_TRUE(vdb.CommitTransaction(&linker).ok());
  Result<uint64_t> lost = vdb.CommitTransaction(&deleter);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict) << lost.status();
  EXPECT_NE(lost.status().message().find("5.6"), std::string::npos)
      << lost.status();

  // And the other direction: the deleter commits first, the linker's
  // reference into the now-dead object aborts.
  VersionedDatabase vdb2;
  Prime(&vdb2,
      "define class emp attributes v: integer, boss: emp end\n"
      "create emp (v: 1)\n"
      "create emp (v: 2)");
  OptimisticTransaction deleter2 = vdb2.BeginTransaction();
  OptimisticTransaction linker2 = vdb2.BeginTransaction();
  ASSERT_TRUE(Interpreter(&deleter2.db()).Execute("delete i2").ok());
  ASSERT_TRUE(
      Interpreter(&linker2.db()).Execute("update i1 set boss = i2").ok());
  ASSERT_TRUE(vdb2.CommitTransaction(&deleter2).ok());
  Result<uint64_t> lost2 = vdb2.CommitTransaction(&linker2);
  ASSERT_FALSE(lost2.ok());
  EXPECT_EQ(lost2.status().code(), StatusCode::kConflict) << lost2.status();
}

TEST(OptimisticTxnTest, ReadOnlyTransactionCommitsWithoutPublishing) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)");
  const uint64_t before = vdb.version();
  OptimisticTransaction txn = vdb.BeginTransaction();
  ASSERT_TRUE(
      Interpreter(&txn.db()).Execute("select x.v from x in emp").ok());
  Result<uint64_t> committed = vdb.CommitTransaction(&txn);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, before);
  EXPECT_EQ(vdb.version(), before);  // nothing to publish
}

TEST(OptimisticTxnTest, FailedPrepareAbortsWithoutPublishing) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)");
  const uint64_t before = vdb.version();
  OptimisticTransaction txn = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&txn.db()).Execute("update i1 set v = 7").ok());
  Result<uint64_t> committed = vdb.CommitTransaction(
      &txn, [] { return Status::IoError("journal unavailable"); });
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(vdb.version(), before);  // abort left no published trace
  ReadSnapshot snap = vdb.OpenSnapshot();
  Interpreter reader(const_cast<Database*>(&snap.db()));
  EXPECT_EQ(reader.Execute("select x.v from x in emp").value(), "1");
}

// ---------------------------------------------------------------------------
// Engine-level conflict matrix (the TSan targets of this PR).

TEST(ConcurrencyTest, DisjointShardWritersCommitWithoutAborts) {
  Engine engine;
  constexpr int kThreads = 4;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(setup.Execute("create emp (v: 0)").ok());
    }
  }
  constexpr int kPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&engine, &failures, t] {
      Session session = engine.OpenSession();
      const std::string target = "i" + std::to_string(t + 1);
      for (int i = 1; i <= kPerThread; ++i) {
        if (!session
                 .Execute("update " + target + " set v = " +
                          std::to_string(i))
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  // Disjoint objects, no clock movement, no oid allocation: every
  // optimistic commit validates on the first attempt.
  EXPECT_EQ(engine.conflict_count(), 0u);
  EXPECT_EQ(engine.version(),
            static_cast<uint64_t>(1 + kThreads + kThreads * kPerThread));
  Session check = engine.OpenSession();
  EXPECT_EQ(check.Execute("select x.v from x in emp").value(),
            "50\n50\n50\n50");
}

// `check` runs every constraint on an optimistic writer's facade, and
// every facade shares the engine's constraint definitions, condition
// trees included. Type-checking a condition must not write to the shared
// tree: two sessions checking at once race on it otherwise (TSan leg).
TEST(ConcurrencyTest, ConcurrentChecksShareConstraintConditions) {
  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    ASSERT_TRUE(setup.Execute("create emp (v: 1)").ok());
    ASSERT_TRUE(setup.Execute("constraint pos on emp always x.v > 0").ok());
  }
  constexpr int kThreads = 2;
  constexpr int kPerThread = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> checkers;
  checkers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    checkers.emplace_back([&engine, &failures] {
      Session session = engine.OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        if (!session.Execute("check").ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The shared definition still decides: a violation fails `check`.
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Execute("tick 1").ok());
  ASSERT_TRUE(session.Execute("update i1 set v = -5").ok());
  EXPECT_FALSE(session.Execute("check").ok());
}

TEST(ConcurrencyTest, SameSlotWritersSerializeToOneWinnerPerRound) {
  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    ASSERT_TRUE(setup.Execute("create emp (v: 0)").ok());
  }
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&engine, &failures, t] {
      Session session = engine.OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        if (!session
                 .Execute("update i1 set v = " +
                          std::to_string(t * kPerThread + i))
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  // Statement-level retry (bounded, then the exclusive fallback) makes
  // every writer succeed eventually even though each commit round has
  // exactly one validation winner.
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.version(),
            static_cast<uint64_t>(2 + kThreads * kPerThread));
  Session check = engine.OpenSession();
  Result<std::string> v = check.Execute("select x.v from x in emp");
  ASSERT_TRUE(v.ok());
  // The final value is the last committed update — some thread's write,
  // in range by construction.
  EXPECT_GE(std::stoi(*v), 0);
  EXPECT_LT(std::stoi(*v), kThreads * kPerThread);
}

TEST(ConcurrencyTest, AbortedThenRetriedWritersPreserveReplayEquality) {
  // A mixed contended workload (shared-slot updates + allocations) over
  // a real group-commit journal: after every writer finishes, replaying
  // the journal must reproduce the engine's in-memory state bit-for-bit
  // even though many statements lost a validation round and retried.
  std::string dir = FreshDir("occ_replay");
  const std::string snapshot_path = dir + "/snapshot.tchdb";
  const std::string journal_path = dir + "/journal.tchl";

  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    ASSERT_TRUE(setup.Execute("create emp (v: 0)").ok());
  }
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(journal_path).ok());
  engine.set_commit_sink(&sink);
  ASSERT_TRUE(CheckpointThrough(&engine, &sink, snapshot_path).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&engine, &failures, t] {
      Session session = engine.OpenSession();
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate a contended update with a contended allocation.
        const std::string stmt =
            (i % 2 == 0) ? "update i1 set v = " + std::to_string(t * 100 + i)
                         : "create emp (v: " + std::to_string(t) + ")";
        if (!session.Execute(stmt).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(sink.durable(), static_cast<uint64_t>(kThreads * kPerThread));
  sink.Close();

  RecoveryStats stats;
  Result<std::unique_ptr<Database>> replayed =
      RecoveryManager(snapshot_path, journal_path).Recover(&stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(stats.salvaged_bytes, 0u);
  ASSERT_EQ(stats.statements_applied,
            static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(SaveDatabaseToString(**replayed).value(),
            SaveDatabaseToString(engine.OpenSnapshot().db()).value());
}

// ---------------------------------------------------------------------------
// Satellite regression: Close() with a backlog that can never flush must
// release every waiter with a non-OK status — before this PR a ticket
// whose batch never got a leader could block in Await forever.

TEST(GroupCommitTest, CloseWithUnflushedBacklogReleasesEveryWaiterNonOk) {
  std::string dir = FreshDir("close_backlog");
  FaultInjectionFileSystem ffs(FileSystem::Default());
  JournalOptions jopts;
  jopts.fs = &ffs;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(dir + "/journal.tchl", jopts).ok());

  // Admit a backlog, then make the disk reject everything: the backlog
  // can never become durable.
  std::vector<CommitSink::Ticket> tickets;
  for (int i = 0; i < 3; ++i) tickets.push_back(sink.Enqueue("tick 1"));
  for (const CommitSink::Ticket& t : tickets) ASSERT_GT(t.seq, 0u);
  FaultPlan plan;
  plan.mode = FaultPlan::Mode::kFailOp;
  plan.at_op = 0;
  ffs.SetPlan(plan);

  // No waiter ever led a batch for these tickets; Close's drain must
  // absorb the failure and leave a sticky status behind.
  sink.Close();
  ffs.ClearPlan();

  for (const CommitSink::Ticket& t : tickets) {
    Status released = sink.Await(t);  // must return, not block
    EXPECT_FALSE(released.ok()) << released;
  }
  EXPECT_LT(sink.durable(), sink.enqueued());

  // Waiters already parked in Await when the failure hits are released
  // too (each non-OK): run the same shape with threads blocked before
  // Close.
  std::string dir2 = FreshDir("close_backlog_threads");
  GroupCommitJournal sink2;
  ASSERT_TRUE(sink2.Open(dir2 + "/journal.tchl", jopts).ok());
  ffs.SetPlan(plan);
  constexpr int kWaiters = 4;
  std::vector<CommitSink::Ticket> tickets2;
  for (int i = 0; i < kWaiters; ++i) tickets2.push_back(sink2.Enqueue("tick 1"));
  std::atomic<int> released_non_ok{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&sink2, &tickets2, &released_non_ok, i] {
      if (!sink2.Await(tickets2[i]).ok()) {
        released_non_ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  sink2.Close();
  for (std::thread& t : waiters) t.join();  // termination IS the assertion
  ffs.ClearPlan();
  EXPECT_EQ(released_non_ok.load(), kWaiters);
}

// ---------------------------------------------------------------------------
// Temporal secondary indexes under optimistic concurrency. Each index is
// one structure (a shared base plus a per-version delta) that every
// writer changes, and postings are a pure function of single-object
// state — so two writers touching *different* oids of the SAME index
// must both commit and leave the index exactly as a from-scratch
// rebuild would, while same-oid writers keep first-committer-wins.

// Rebuilds the database's indexes from scratch by round-tripping through
// the serializer (v4 snapshots persist definitions only; restore rebuilds
// the data from the objects) and dumps them.
std::string RebuiltIndexDump(const Database& db) {
  Result<std::string> text = SaveDatabaseToString(db);
  EXPECT_TRUE(text.ok()) << text.status();
  if (!text.ok()) return "<save failed>";
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(*text);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return "<load failed>";
  return (*loaded)->DebugDumpIndexes();
}

TEST(OptimisticTxnTest, SameIndexShardDisjointOidsBothCommit) {
  VersionedDatabase vdb;
  // 65 objects so i1 and i65 also share an object shard (65 % 64 == 1).
  std::string script = "define class emp attributes v: integer end";
  for (int i = 1; i <= 65; ++i) {
    script += "\ncreate emp (v: " + std::to_string(i) + ")";
  }
  script += "\ncreate index ev on emp (v)";
  Prime(&vdb, script);

  OptimisticTransaction t1 = vdb.BeginTransaction();
  OptimisticTransaction t2 = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&t1.db()).Execute("update i1 set v = 1001").ok());
  ASSERT_TRUE(Interpreter(&t2.db()).Execute("update i65 set v = 1065").ok());
  ASSERT_TRUE(vdb.CommitTransaction(&t1).ok());
  // Same index, disjoint oids: adoption re-derives i65's postings on a
  // copy of the head, so t1's index write is not lost and t2 still
  // commits.
  Result<uint64_t> c2 = vdb.CommitTransaction(&t2);
  ASSERT_TRUE(c2.ok()) << c2.status();

  ReadSnapshot snap = vdb.OpenSnapshot();
  const Database& db = snap.db();
  std::vector<Oid> hit =
      db.IndexProbe("ev", ProbeOp::kEq, Value::Integer(1001), db.now());
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].id, 1u);
  hit = db.IndexProbe("ev", ProbeOp::kEq, Value::Integer(1065), db.now());
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0].id, 65u);
  // The merged index state is bit-identical to a from-scratch rebuild.
  EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));
}

TEST(OptimisticTxnTest, SameOidIndexWriteKeepsFirstCommitterWins) {
  VersionedDatabase vdb;
  Prime(&vdb,
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)\n"
      "create index ev on emp (v)");

  OptimisticTransaction t1 = vdb.BeginTransaction();
  OptimisticTransaction t2 = vdb.BeginTransaction();
  ASSERT_TRUE(Interpreter(&t1.db()).Execute("update i1 set v = 10").ok());
  ASSERT_TRUE(Interpreter(&t2.db()).Execute("update i1 set v = 20").ok());
  ASSERT_TRUE(vdb.CommitTransaction(&t1).ok());
  // The losing index write must abort with the retryable Conflict — a
  // silent merge would leave a posting for a value no object holds.
  Result<uint64_t> lost = vdb.CommitTransaction(&t2);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kConflict) << lost.status();

  ReadSnapshot snap = vdb.OpenSnapshot();
  const Database& db = snap.db();
  EXPECT_EQ(
      db.IndexProbe("ev", ProbeOp::kEq, Value::Integer(10), db.now()).size(),
      1u);
  EXPECT_TRUE(
      db.IndexProbe("ev", ProbeOp::kEq, Value::Integer(20), db.now())
          .empty());
  EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));
}

TEST(ConcurrencyTest, IndexedWritersReplayToIdenticalIndexState) {
  // A contended indexed workload over a real group-commit journal —
  // including an index DDL issued mid-run (it must journal like any
  // mutation and serialize against concurrent commits). Afterwards the
  // journal replays to the engine's exact state, and the live index is
  // bit-identical to a from-scratch rebuild.
  std::string dir = FreshDir("indexed_replay");
  const std::string snapshot_path = dir + "/snapshot.tchdb";
  const std::string journal_path = dir + "/journal.tchl";

  const std::vector<std::string> setup = {
      kSchema, "create index ev on emp (v)", "create emp (v: 0)",
      "create emp (v: 0)", "create emp (v: 0)", "create emp (v: 0)"};
  Engine engine;
  {
    Session s = engine.OpenSession();
    for (const std::string& stmt : setup) {
      ASSERT_TRUE(s.Execute(stmt).ok()) << stmt;
    }
  }
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(journal_path).ok());
  engine.set_commit_sink(&sink);
  ASSERT_TRUE(CheckpointThrough(&engine, &sink, snapshot_path).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&engine, &failures, t] {
      Session session = engine.OpenSession();
      const std::string own = "i" + std::to_string(t + 1);
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate an uncontended indexed update with a contended one.
        const std::string stmt =
            (i % 2 == 0)
                ? "update " + own + " set v = " + std::to_string(t * 100 + i)
                : "update i1 set v = " + std::to_string(1000 + t * 100 + i);
        if (!session.Execute(stmt).ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  writers.emplace_back([&engine, &failures] {
    // Index DDL mid-run: takes the exclusive write path and journals.
    Session session = engine.OpenSession();
    if (!session.Execute("create index ev2 on emp lifespan").ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(sink.durable(),
            static_cast<uint64_t>(kThreads * kPerThread + 1));
  sink.Close();

  // Journal order == commit order: recovery reproduces objects AND index
  // state (definitions and rebuilt-vs-incremental data agree exactly).
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> replayed =
      RecoveryManager(snapshot_path, journal_path).Recover(&stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(stats.salvaged_bytes, 0u);
  EXPECT_EQ(SaveDatabaseToString(**replayed).value(),
            SaveDatabaseToString(engine.OpenSnapshot().db()).value());
  ReadSnapshot live = engine.OpenSnapshot();
  EXPECT_EQ((*replayed)->DebugDumpIndexes(), live.db().DebugDumpIndexes());
  EXPECT_EQ(live.db().DebugDumpIndexes(), RebuiltIndexDump(live.db()));
}

TEST(ConcurrencyTest, DisjointSplicersSharingIndexShardsMatchRebuild) {
  // Four optimistic writers splice the temporal histories of disjoint
  // oids (writer w owns oids s + 64w for s in 1..8) under one index:
  // each commit's delta lands on a head another writer just changed,
  // and the copy-on-write posting chunks are shared between the
  // writers' copies and every published version. A reader meanwhile probes pinned snapshots, which
  // must always agree with a scan of the same snapshot.
  constexpr int kWriters = 4;
  constexpr uint64_t kShardsUsed = 8;
  constexpr int kSplices = 150;
  VersionedDatabase vdb;
  std::string script =
      "define class emp attributes v: temporal(integer) end\n"
      "advance to 100";
  for (int i = 1; i <= 64 * kWriters; ++i) {
    script += "\ncreate emp at 0 (v: " + std::to_string(i % 7) + ")";
  }
  script += "\ncreate index ev on emp (v)";
  Prime(&vdb, script);

  auto scan = [](const Database& db, int64_t bound, TimePoint t) {
    std::vector<Oid> out;
    for (Oid oid : db.AllOids()) {
      const Value* at = db.GetObject(oid)->Attribute("v")->AsTemporal().At(t);
      if (at != nullptr && *at == Value::Integer(bound)) out.push_back(oid);
    }
    return out;
  };
  std::atomic<bool> writing{true};
  std::atomic<int> probes{0};
  std::thread reader([&] {
    while (writing.load(std::memory_order_acquire) || probes.load() == 0) {
      ReadSnapshot snap = vdb.OpenSnapshot();
      const Database& db = snap.db();
      for (int64_t bound : {0, 3, 6, 11}) {
        EXPECT_EQ(db.IndexProbe("ev", ProbeOp::kEq, Value::Integer(bound), 50),
                  scan(db, bound, 50));
      }
      probes.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&vdb, w] {
      std::mt19937_64 rng(static_cast<uint64_t>(w) + 1);
      for (int k = 0; k < kSplices; ++k) {
        const Oid oid{1 + rng() % kShardsUsed + 64 * static_cast<uint64_t>(w)};
        const TimePoint lo = static_cast<TimePoint>(rng() % 98);
        const Value v = Value::Integer(static_cast<int64_t>(rng() % 12));
        for (;;) {
          OptimisticTransaction txn = vdb.BeginTransaction();
          ASSERT_TRUE(
              txn.db().UpdateAttributeAt(oid, "v", Interval(lo, lo + 1), v)
                  .ok());
          Result<uint64_t> committed = vdb.CommitTransaction(&txn);
          if (committed.ok()) break;
          // Disjoint oids never overlap; only a base older than the
          // retained validation window is refused, and a retry fixes it.
          ASSERT_EQ(committed.status().code(), StatusCode::kConflict);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  writing.store(false, std::memory_order_release);
  reader.join();
  EXPECT_GT(probes.load(), 0);

  ReadSnapshot snap = vdb.OpenSnapshot();
  const Database& db = snap.db();
  EXPECT_EQ(db.DebugDumpIndexes(), RebuiltIndexDump(db));
  for (int64_t bound : {0, 3, 6, 11}) {
    EXPECT_EQ(db.IndexProbe("ev", ProbeOp::kEq, Value::Integer(bound), 50),
              scan(db, bound, 50));
  }
}

// Copy-on-write isolation across the whole object spine and the index
// table. A Database copy shares the spine root; a write on either side
// must clone the root, the group and the shard on its path, and nothing
// it does may show through the other side. 192 objects (three per shard)
// under a value index and a lifespan index leave every spine group and
// every shard non-empty.
constexpr uint64_t kSpineObjects = 192;
constexpr char kSpineSchema[] =
    "define class emp attributes v: temporal(integer) end\n"
    "create index ev on emp (v)\n"
    "create index el on emp lifespan";

void PopulateSpine(Database* db) {
  ASSERT_TRUE(Interpreter(db).ExecuteScript(kSpineSchema).ok());
  for (int64_t v = 1; v <= static_cast<int64_t>(kSpineObjects); ++v) {
    ASSERT_TRUE(db->CreateObject("emp", {{"v", Value::Integer(v)}}).ok());
  }
  ASSERT_TRUE(db->AdvanceTo(100).ok());
}

// One splice, one delete and one create landing in every object shard:
// shard s holds oids s, s + 64 and s + 128 (oid 64 stands in for 0), and
// 64 consecutive creates cover every shard once.
void MutateEveryShard(Database* db, int64_t salt) {
  for (uint64_t s = 0; s < 64; ++s) {
    const Oid spliced{s == 0 ? 64 : s};
    ASSERT_TRUE(db->UpdateAttributeAt(spliced, "v", Interval(40, 60),
                                      Value::Integer(salt + s))
                    .ok());
    ASSERT_TRUE(db->DeleteObject(Oid{s + 128}).ok());
    ASSERT_TRUE(
        db->CreateObject("emp", {{"v", Value::Integer(salt - s)}}).ok());
  }
}

TEST(ConcurrencyTest, CopiesStayIsolatedAcrossEverySpineGroup) {
  Database a;
  PopulateSpine(&a);
  const uint32_t a_hash = DatabaseStateHash(a).value();
  const std::string a_dump = a.DebugDumpIndexes();
  std::set<uint64_t> shards;
  for (Oid oid : a.AllOids()) shards.insert(oid.id % 64);
  ASSERT_EQ(shards.size(), 64u) << "an object shard is empty";

  Database b(a);
  MutateEveryShard(&b, 1000);
  EXPECT_EQ(DatabaseStateHash(a).value(), a_hash);
  EXPECT_EQ(a.DebugDumpIndexes(), a_dump);
  EXPECT_NE(DatabaseStateHash(b).value(), a_hash);
  EXPECT_EQ(b.DebugDumpIndexes(), RebuiltIndexDump(b));

  // Both sides took fresh epochs at the copy, so A's writes clone too.
  const uint32_t b_hash = DatabaseStateHash(b).value();
  const std::string b_dump = b.DebugDumpIndexes();
  MutateEveryShard(&a, 2000);
  EXPECT_EQ(DatabaseStateHash(b).value(), b_hash);
  EXPECT_EQ(b.DebugDumpIndexes(), b_dump);
  EXPECT_NE(DatabaseStateHash(a).value(), a_hash);
  EXPECT_EQ(a.DebugDumpIndexes(), RebuiltIndexDump(a));
}

TEST(ConcurrencyTest, SchemaChangingOptimisticCommitMatchesExclusive) {
  // Writes in every shard plus index DDL: the optimistic commit publishes
  // the transaction's own copy (a schema footprint validates only when
  // its base is the head), and must land on the state the exclusive path
  // builds from the same statements.
  std::string script = "create index ev2 on emp (v)";
  for (uint64_t id = 1; id <= 64; ++id) {
    script += "\nupdate i" + std::to_string(id) + " set v = " +
              std::to_string(id * 7) + " during [30, 50]";
  }
  script += "\ndelete i" + std::to_string(kSpineObjects);
  auto primed = [](VersionedDatabase* vdb) {
    WriteGuard guard = vdb->BeginWrite();
    PopulateSpine(&guard.db());
    guard.Commit();
  };

  VersionedDatabase optimistic;
  primed(&optimistic);
  ReadSnapshot pinned = optimistic.OpenSnapshot();
  const uint32_t pinned_hash = DatabaseStateHash(pinned.db()).value();
  OptimisticTransaction txn = optimistic.BeginTransaction();
  ASSERT_TRUE(Interpreter(&txn.db()).ExecuteScript(script).ok());
  ASSERT_TRUE(txn.db().footprint().schema_changed);
  ASSERT_TRUE(optimistic.CommitTransaction(&txn).ok());

  VersionedDatabase exclusive;
  primed(&exclusive);
  {
    WriteGuard guard = exclusive.BeginWrite();
    ASSERT_TRUE(Interpreter(&guard.db()).ExecuteScript(script).ok());
    guard.Commit();
  }

  // A follow-up write on each side runs on the published spine.
  for (VersionedDatabase* vdb : {&optimistic, &exclusive}) {
    OptimisticTransaction next = vdb->BeginTransaction();
    ASSERT_TRUE(Interpreter(&next.db()).Execute("update i3 set v = 5").ok());
    ASSERT_TRUE(vdb->CommitTransaction(&next).ok());
  }

  ReadSnapshot got = optimistic.OpenSnapshot();
  ReadSnapshot want = exclusive.OpenSnapshot();
  EXPECT_EQ(DatabaseStateHash(got.db()).value(),
            DatabaseStateHash(want.db()).value());
  EXPECT_EQ(got.db().DebugDumpIndexes(), want.db().DebugDumpIndexes());
  EXPECT_EQ(got.db().DebugDumpIndexes(), RebuiltIndexDump(got.db()));
  EXPECT_EQ(DatabaseStateHash(pinned.db()).value(), pinned_hash);
}

// The flow-sensitive linter (TC202) statically predicts which statement
// pairs carry intersecting write footprints. This test holds the
// prediction against the real engine: the pair the linter flags aborts
// with the retryable Conflict when issued from concurrent optimistic
// transactions, and the pair it leaves clean commits on both sides.
TEST(OptimisticTxnTest, Tc202PredictionMatchesEngineConflicts) {
  const std::string kSchema =
      "define class emp attributes v: integer end\n"
      "create emp (v: 1)\n"
      "create emp (v: 2)";
  const std::string kWriteA = "update i1 set v = 10";
  const std::string kWriteSameOid = "update i1 set v = 20";
  const std::string kWriteOtherOid = "update i2 set v = 20";

  auto count_tc202 = [](const std::string& script) {
    DiagnosticEngine diags;
    LintTqlScript(script, LintOptions{}, &diags);
    size_t n = 0;
    for (const Diagnostic& d : diags.diagnostics()) {
      if (d.code == "TC202") ++n;
    }
    return n;
  };
  const std::string kLintSchema =
      "define class emp attributes v: integer end;"
      "create emp (v: 1);"
      "create emp (v: 2);";
  ASSERT_EQ(count_tc202(kLintSchema + kWriteA + ";" + kWriteSameOid), 1u);
  ASSERT_EQ(count_tc202(kLintSchema + kWriteA + ";" + kWriteOtherOid), 0u);

  // Predicted conflict: the second committer must abort.
  {
    VersionedDatabase vdb;
    Prime(&vdb, kSchema);
    OptimisticTransaction t1 = vdb.BeginTransaction();
    OptimisticTransaction t2 = vdb.BeginTransaction();
    ASSERT_TRUE(Interpreter(&t1.db()).Execute(kWriteA).ok());
    ASSERT_TRUE(Interpreter(&t2.db()).Execute(kWriteSameOid).ok());
    ASSERT_TRUE(vdb.CommitTransaction(&t1).ok());
    Result<uint64_t> lost = vdb.CommitTransaction(&t2);
    ASSERT_FALSE(lost.ok());
    EXPECT_EQ(lost.status().code(), StatusCode::kConflict) << lost.status();
    EXPECT_EQ(vdb.conflict_count(), 1u);
  }

  // No prediction: both commits must land.
  {
    VersionedDatabase vdb;
    Prime(&vdb, kSchema);
    OptimisticTransaction t1 = vdb.BeginTransaction();
    OptimisticTransaction t2 = vdb.BeginTransaction();
    ASSERT_TRUE(Interpreter(&t1.db()).Execute(kWriteA).ok());
    ASSERT_TRUE(Interpreter(&t2.db()).Execute(kWriteOtherOid).ok());
    ASSERT_TRUE(vdb.CommitTransaction(&t1).ok());
    Result<uint64_t> won = vdb.CommitTransaction(&t2);
    ASSERT_TRUE(won.ok()) << won.status();
    EXPECT_EQ(vdb.conflict_count(), 0u);
  }
}

// ---------------------------------------------------------------------------
// One commit path: whatever the live engine publishes is exactly what a
// sequential replay of its journaled statements rebuilds.

// A CommitSink that records every enqueued statement in commit order and
// acknowledges at once.
class RecordingSink : public CommitSink {
 public:
  Ticket Enqueue(std::string_view statement) override {
    std::lock_guard<std::mutex> lock(mu_);
    statements_.emplace_back(statement);
    return Ticket{statements_.size()};
  }
  Status Await(Ticket) override { return Status::OK(); }
  std::vector<std::string> statements() const {
    std::lock_guard<std::mutex> lock(mu_);
    return statements_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> statements_;
};

// The state hash of a fresh database after replaying `statements` one by
// one through an ActiveDatabase — what a restart or a replica rebuilds.
uint32_t ReplayHash(const std::vector<std::string>& statements) {
  Database db;
  ActiveDatabase active(&db);
  for (const std::string& statement : statements) {
    Status replayed = active.Execute(statement).status();
    EXPECT_TRUE(replayed.ok()) << statement << ": " << replayed;
  }
  return DatabaseStateHash(db).value();
}

uint32_t LiveHash(const Engine& engine) {
  return DatabaseStateHash(engine.OpenSnapshot().db()).value();
}

TEST(OneCommitPathTest, FailedExclusiveWriteLeavesNoTraceForLaterCommits) {
  Engine engine;
  RecordingSink sink;
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  ASSERT_TRUE(session.Execute(kSchema).ok());
  ASSERT_TRUE(session.Execute("create emp (v: 1)").ok());
  // The action parses but always fails to execute: no class `nosuch`.
  ASSERT_TRUE(session
                  .Execute("trigger broken on update of emp.v do "
                           "create nosuch (v: 1)")
                  .ok());

  // The update applies, then its trigger action fails.
  Status failed = engine.WithExclusive([](Database&, ActiveDatabase& active) {
    return active.Execute("update i1 set v = 7").status();
  });
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("broken"), std::string::npos) << failed;
  EXPECT_EQ(session.Execute("select x.v from x in emp").value(), "1");
  // A later commit publishes a copy of the head, not the failed write.
  ASSERT_TRUE(session.Execute("tick 1").ok());
  EXPECT_EQ(session.Execute("select x.v from x in emp").value(), "1");
  EXPECT_EQ(LiveHash(engine), ReplayHash(sink.statements()));
}

// A trigger definition commits while an optimistic writer runs with the
// definitions it copied before it. The writer's commit must not validate
// over the definition: replay orders its update after the trigger, so
// the trigger must also have fired live.
TEST(OneCommitPathTest, DefinitionsSerializeAgainstOptimisticWriters) {
  constexpr int kTriggers = 12;
  Engine engine;
  RecordingSink sink;
  engine.set_commit_sink(&sink);
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(setup.Execute(kSchema).ok());
    ASSERT_TRUE(
        setup.Execute("define class logrec attributes n: integer end").ok());
    ASSERT_TRUE(setup.Execute("create emp (v: 0)").ok());
  }

  std::atomic<bool> defined{false};
  std::atomic<int> updates{0};
  std::thread writer([&] {
    Session session = engine.OpenSession();
    // Keep updating until the definitions are done, plus a tail that runs
    // entirely under the final definition set.
    int after = 0;
    for (int k = 1; after < 20; ++k) {
      if (defined.load(std::memory_order_acquire)) ++after;
      Result<std::string> out =
          session.Execute("update i1 set v = " + std::to_string(k));
      EXPECT_TRUE(out.ok()) << out.status();
      updates.fetch_add(1, std::memory_order_release);
    }
  });
  while (updates.load(std::memory_order_acquire) < 5) {
    std::this_thread::yield();
  }
  Session definer = engine.OpenSession();
  for (int i = 0; i < kTriggers; ++i) {
    Result<std::string> out = definer.Execute(
        "trigger log" + std::to_string(i) +
        " on update of emp.v do create logrec (n: " + std::to_string(i) + ")");
    ASSERT_TRUE(out.ok()) << out.status();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  defined.store(true, std::memory_order_release);
  writer.join();

  EXPECT_EQ(engine.active().DefinitionStatements().size(),
            static_cast<size_t>(kTriggers));
  EXPECT_EQ(LiveHash(engine), ReplayHash(sink.statements()));
}

}  // namespace
}  // namespace tchimera
