// Crash-consistency tests for the recovery subsystem: crash-point
// enumeration through the fault-injection filesystem (every possible
// crash must recover to a committed prefix of the workload), snapshot
// atomicity, torn-tail salvage, corruption fuzzing (bit flips and
// truncations must never be loaded silently), v1 backcompat, and the
// post-recovery consistency audit in all three modes, and restarts that
// must re-fire the active rules (triggers) the live engine ran.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "core/db/consistency.h"
#include "core/db/database.h"
#include "core/object/object.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"
#include "query/interpreter.h"
#include "query/session.h"
#include "storage/deserializer.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

namespace stdfs = std::filesystem;

// A scratch directory wiped at construction, so every run starts from an
// empty disk.
std::string FreshDir(const std::string& name) {
  stdfs::path dir = stdfs::temp_directory_path() / ("tchimera_rec_" + name);
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  stdfs::create_directories(dir, ec);
  return dir.string();
}

std::string ReadFileOrDie(const std::string& path) {
  auto r = FileSystem::Default()->ReadFileToString(path);
  EXPECT_TRUE(r.ok()) << path << ": " << r.status();
  return r.ok() ? *r : std::string();
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// TCHIMERA_FUZZ_ITERS scales the fuzz tests (nightly CI raises it).
size_t FuzzIterations(size_t fallback) {
  const char* env = std::getenv("TCHIMERA_FUZZ_ITERS");
  if (env == nullptr) return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  return (end != env && *end == '\0' && v > 0) ? static_cast<size_t>(v)
                                               : fallback;
}

// Deterministic 64-bit LCG so fuzz failures reproduce.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 16;
  }
};

// The canonical workload: schema definition, object creation, references
// between objects, clock advancement, updates and a delete — every
// journaled verb class. Statement indices are the "transaction ids" the
// crash tests reason about.
const std::vector<std::string>& Workload() {
  static const std::vector<std::string>& statements =
      *new std::vector<std::string>{
          "define class person attributes name: temporal(string), "
          "birthyear: integer end",
          "create person (name: 'Ann', birthyear: 1970)",  // i1
          "create person (name: 'Bob', birthyear: 1980)",  // i2
          "define class fan attributes idol: person end",
          "create fan (idol: i1)",  // i3
          "tick 3",
          "update i1 set name = 'Anna'",
          "update i2 set name = 'Bobby'",
          "tick 2",
          "update i3 set idol = i2",
          "delete i1",
      };
  return statements;
}

// The checkpoint fires before this statement index.
constexpr size_t kCheckpointBefore = 6;

// refs[n] = canonical serialization (epoch 0) of the database after the
// first n workload statements.
std::vector<std::string> BuildReferenceStates() {
  std::vector<std::string> refs;
  Database db;
  Interpreter interp(&db);
  refs.push_back(SaveDatabaseToString(db, 0).value());
  for (const std::string& statement : Workload()) {
    auto r = interp.Execute(statement);
    EXPECT_TRUE(r.ok()) << statement << ": " << r.status();
    refs.push_back(SaveDatabaseToString(db, 0).value());
  }
  return refs;
}

// Index of `state` in `refs`, or npos.
size_t MatchPrefix(const std::vector<std::string>& refs,
                   const std::string& state) {
  for (size_t n = 0; n < refs.size(); ++n) {
    if (refs[n] == state) return n;
  }
  return std::string::npos;
}

struct WorkloadRun {
  // Statements acknowledged (Execute returned OK, so the record is on
  // disk when the sink syncs each append).
  size_t committed = 0;
};

// A CommitSink over one Journal: each enqueue appends — and, when
// `sync_each_append`, syncs — before the commit is acknowledged: the I/O
// a write-ahead journal issues per statement. Without the sync it is an
// append-only sink: only a checkpoint's Rotate and Close force records
// to disk.
class JournalSink : public CommitSink {
 public:
  explicit JournalSink(bool sync_each_append)
      : sync_each_append_(sync_each_append) {}
  Status Open(const std::string& path, const JournalOptions& options) {
    return journal_.Open(path, options);
  }
  Journal& journal() { return journal_; }

  Ticket Enqueue(std::string_view statement) override {
    Status appended = journal_.Append(statement);
    if (appended.ok() && sync_each_append_) appended = journal_.Sync();
    if (!appended.ok()) return Ticket{0, appended};
    return Ticket{++appended_};
  }
  Status Await(Ticket) override { return Status::OK(); }

 private:
  const bool sync_each_append_;
  Journal journal_;
  uint64_t appended_ = 0;
};

// Runs `statements` through an Engine journaling to `journal_path` on
// `ffs`, checkpointing once before statement `checkpoint_before`. Stops
// at the first failure (the injected crash).
WorkloadRun RunStatements(FaultInjectionFileSystem* ffs,
                          const std::string& snapshot_path,
                          const std::string& journal_path,
                          const std::vector<std::string>& statements,
                          size_t checkpoint_before,
                          bool sync_each_append = true) {
  WorkloadRun run;
  JournalOptions options;
  options.fs = ffs;
  JournalSink sink(sync_each_append);
  if (!sink.Open(journal_path, options).ok()) return run;
  Engine engine;
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  for (size_t i = 0; i < statements.size(); ++i) {
    if (i == checkpoint_before) {
      // A checkpoint killed by the injected crash is not fatal here; the
      // next append fails and ends the run.
      (void)engine.WithExclusive([&](Database& db, ActiveDatabase&) {
        return RecoveryManager::Checkpoint(db, &sink.journal(),
                                           snapshot_path, ffs);
      });
    }
    if (!session.Execute(statements[i]).ok()) break;
    ++run.committed;
  }
  return run;
}

// The canonical workload, checkpointed once mid-way.
WorkloadRun RunWorkload(FaultInjectionFileSystem* ffs,
                        const std::string& snapshot_path,
                        const std::string& journal_path,
                        bool sync_each_append = true) {
  return RunStatements(ffs, snapshot_path, journal_path, Workload(),
                       kCheckpointBefore, sync_each_append);
}

// The tentpole proof obligation: crash at every single mutating I/O
// operation of the workload (with three torn-write shapes each) and the
// recovered database must (a) pass the full consistency audit and (b) be
// byte-identical to a committed prefix — at least everything that was
// acknowledged with a sync per append, at most one in-flight statement
// more.
TEST(CrashRecoveryTest, EveryCrashPointRestoresACommittedPrefix) {
  const std::vector<std::string> refs = BuildReferenceStates();
  ASSERT_EQ(refs.size(), Workload().size() + 1);

  uint64_t total_ops = 0;
  {
    std::string dir = FreshDir("dry");
    FaultInjectionFileSystem ffs(FileSystem::Default());
    WorkloadRun run =
        RunWorkload(&ffs, dir + "/snap.tchdb", dir + "/journal.tql");
    ASSERT_EQ(run.committed, Workload().size());
    total_ops = ffs.ops_seen();
  }
  ASSERT_GT(total_ops, 20u) << "fault plumbing sees too few operations";

  for (uint64_t tail : {uint64_t{0}, uint64_t{7}, uint64_t{1} << 20}) {
    for (uint64_t at = 0; at < total_ops; ++at) {
      SCOPED_TRACE("crash at op " + std::to_string(at) + ", surviving tail " +
                   std::to_string(tail));
      std::string dir = FreshDir("crash");
      std::string snap = dir + "/snap.tchdb";
      std::string journal = dir + "/journal.tql";
      FaultInjectionFileSystem ffs(FileSystem::Default());
      FaultPlan plan;
      plan.mode = FaultPlan::Mode::kCrash;
      plan.at_op = at;
      plan.surviving_tail_bytes = tail;
      ffs.SetPlan(plan);
      WorkloadRun run = RunWorkload(&ffs, snap, journal);
      ASSERT_TRUE(ffs.crashed());

      // "Reboot": the fault is gone, the surviving bytes are what they are.
      ffs.ClearPlan();
      RecoveryOptions options;
      options.audit = AuditMode::kFail;
      options.fs = &ffs;
      RecoveryManager manager(snap, journal, options);
      RecoveryStats stats;
      auto recovered = manager.Recover(&stats);
      ASSERT_TRUE(recovered.ok()) << recovered.status();

      auto state = SaveDatabaseToString(**recovered, 0);
      ASSERT_TRUE(state.ok()) << state.status();
      size_t n = MatchPrefix(refs, *state);
      ASSERT_NE(n, std::string::npos)
          << "recovered state matches no committed prefix";
      // A sync per append: acknowledged == durable, so nothing acknowledged may
      // be lost; at most the single in-flight statement may additionally
      // survive (a torn write that happened to complete).
      EXPECT_GE(n, run.committed);
      EXPECT_LE(n, run.committed + 1);
    }
  }
}

// Crash-point enumeration for temporal secondary indexes: a workload
// whose journal carries index DDL (create, drop, both kinds) around a
// mid-run checkpoint whose snapshot persists INDEX records. At EVERY
// crash point the recovered database must (a) land on a committed
// prefix, as above, and (b) hold index state bit-identical to a
// from-scratch rebuild from its own objects — a crash mid-checkpoint or
// mid-statement may lose statements, but it must never leave an index
// inconsistent with the extents it covers.
TEST(CrashRecoveryTest, EveryCrashPointLeavesIndexesConsistentWithObjects) {
  const std::vector<std::string> workload = {
      "define class person attributes name: temporal(string), "
      "salary: temporal(integer) end",
      "create person (name: 'Ann', salary: 100)",  // i1
      "create person (name: 'Bob', salary: 200)",  // i2
      "create index psal on person (salary)",
      "tick 3",
      "update i1 set salary = 150",
      "create index plife on person lifespan",
      "update i2 set salary = 50 during [1,2]",
      "tick 2",
      "delete i2",
      "drop index plife",
  };
  constexpr size_t kCheckpointAt = 5;  // after `create index psal`

  // Reference states (canonical serialization includes INDEX records).
  std::vector<std::string> refs;
  {
    Database db;
    Interpreter interp(&db);
    refs.push_back(SaveDatabaseToString(db, 0).value());
    for (const std::string& statement : workload) {
      auto r = interp.Execute(statement);
      ASSERT_TRUE(r.ok()) << statement << ": " << r.status();
      refs.push_back(SaveDatabaseToString(db, 0).value());
    }
  }

  auto run_workload = [&](FaultInjectionFileSystem* ffs,
                          const std::string& snap,
                          const std::string& journal) {
    return RunStatements(ffs, snap, journal, workload, kCheckpointAt)
        .committed;
  };

  uint64_t total_ops = 0;
  {
    std::string dir = FreshDir("idx_dry");
    FaultInjectionFileSystem ffs(FileSystem::Default());
    size_t committed =
        run_workload(&ffs, dir + "/snap.tchdb", dir + "/journal.tql");
    ASSERT_EQ(committed, workload.size());
    total_ops = ffs.ops_seen();
  }

  for (uint64_t at = 0; at < total_ops; ++at) {
    SCOPED_TRACE("crash at op " + std::to_string(at));
    std::string dir = FreshDir("idx_crash");
    std::string snap = dir + "/snap.tchdb";
    std::string journal = dir + "/journal.tql";
    FaultInjectionFileSystem ffs(FileSystem::Default());
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    plan.surviving_tail_bytes = 7;
    ffs.SetPlan(plan);
    size_t committed = run_workload(&ffs, snap, journal);
    ffs.ClearPlan();

    RecoveryOptions options;
    options.audit = AuditMode::kFail;
    options.fs = &ffs;
    RecoveryManager manager(snap, journal, options);
    auto recovered = manager.Recover(nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status();

    auto state = SaveDatabaseToString(**recovered, 0);
    ASSERT_TRUE(state.ok()) << state.status();
    size_t n = std::string::npos;
    for (size_t k = 0; k < refs.size(); ++k) {
      if (refs[k] == *state) {
        n = k;
        break;
      }
    }
    ASSERT_NE(n, std::string::npos)
        << "recovered state matches no committed prefix";
    EXPECT_GE(n, committed);
    EXPECT_LE(n, committed + 1);

    // Index data is never persisted, only rebuilt — so the recovered
    // index must equal what a fresh rebuild from the recovered objects
    // produces (round-trip through the serializer rebuilds from scratch).
    auto reloaded = LoadDatabaseFromString(*state);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status();
    EXPECT_EQ((*recovered)->DebugDumpIndexes(),
              (*reloaded)->DebugDumpIndexes());
  }
}

// With appends that are never synced there is no durability floor, but
// recovery must still land on *some* clean prefix — never a torn
// half-statement, never an audit failure.
TEST(CrashRecoveryTest, SyncPolicyNoneStillRecoversToSomePrefix) {
  const std::vector<std::string> refs = BuildReferenceStates();

  uint64_t total_ops = 0;
  {
    std::string dir = FreshDir("none_dry");
    FaultInjectionFileSystem ffs(FileSystem::Default());
    WorkloadRun run = RunWorkload(&ffs, dir + "/snap.tchdb",
                                  dir + "/journal.tql",
                                  /*sync_each_append=*/false);
    ASSERT_EQ(run.committed, Workload().size());
    total_ops = ffs.ops_seen();
  }

  for (uint64_t at = 0; at < total_ops; ++at) {
    SCOPED_TRACE("crash at op " + std::to_string(at));
    std::string dir = FreshDir("none_crash");
    std::string snap = dir + "/snap.tchdb";
    std::string journal = dir + "/journal.tql";
    FaultInjectionFileSystem ffs(FileSystem::Default());
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    plan.surviving_tail_bytes = 9;  // a torn fragment of the lost tail
    ffs.SetPlan(plan);
    WorkloadRun run =
        RunWorkload(&ffs, snap, journal, /*sync_each_append=*/false);
    ffs.ClearPlan();

    RecoveryOptions options;
    options.audit = AuditMode::kFail;
    options.fs = &ffs;
    RecoveryManager manager(snap, journal, options);
    auto recovered = manager.Recover(nullptr);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    auto state = SaveDatabaseToString(**recovered, 0);
    ASSERT_TRUE(state.ok());
    size_t n = MatchPrefix(refs, *state);
    ASSERT_NE(n, std::string::npos);
    EXPECT_LE(n, run.committed + 1);
  }
}

// Batched syncs: a crash loses at most the records appended since the
// last Sync(), and the survivors form a clean record boundary.
TEST(SyncPolicyTest, BatchedSyncLosesAtMostTheUnsyncedSuffix) {
  std::string dir = FreshDir("batched");
  std::string path = dir + "/journal.tql";
  FaultInjectionFileSystem ffs(FileSystem::Default());
  JournalOptions options;
  options.fs = &ffs;
  // Four appends, one Sync() over them, then two more appends.
  auto append_six = [](Journal* journal) {
    for (int i = 1; i <= 6; ++i) {
      Status s = journal->Append("tick " + std::to_string(i));
      if (s.ok() && i == 4) s = journal->Sync();
      if (!s.ok()) return s;
    }
    return Status::OK();
  };

  uint64_t ops_through_appends = 0;
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path, options).ok());
    ASSERT_TRUE(append_six(&journal).ok());
    ops_through_appends = ffs.ops_seen();  // before Close() syncs the rest
    journal.Close();
  }

  // Re-run, crashing on the 6th append: records 1-4 were synced by the
  // batch, record 5 is unsynced, record 6 is in flight — 4 must survive.
  std::string dir2 = FreshDir("batched_crash");
  std::string path2 = dir2 + "/journal.tql";
  FaultPlan plan;
  plan.mode = FaultPlan::Mode::kCrash;
  plan.at_op = ops_through_appends - 1;
  ffs.SetPlan(plan);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path2, options).ok());
    (void)append_six(&journal);
    journal.Close();
  }
  ASSERT_TRUE(ffs.crashed());
  ffs.ClearPlan();

  auto scan = ScanJournal(path2);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->tail_error.ok()) << scan->tail_error;
  ASSERT_EQ(scan->statements.size(), 4u);
  EXPECT_EQ(scan->statements[3], "tick 4");
}

// The snapshot write is atomic: a crash at any of its operations leaves
// the previous snapshot byte-identical and structurally sound.
TEST(SnapshotAtomicityTest, CrashDuringSnapshotWriteLeavesOldOneIntact) {
  Database small;
  Interpreter small_interp(&small);
  ASSERT_TRUE(small_interp.Execute("tick 1").ok());
  Database big;
  Interpreter big_interp(&big);
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(big_interp.Execute(Workload()[i]).ok());
  }

  std::string dir = FreshDir("atomic");
  std::string path = dir + "/snap.tchdb";
  FaultInjectionFileSystem ffs(FileSystem::Default());
  ASSERT_TRUE(SaveDatabaseToFile(small, path, 1, &ffs).ok());
  const std::string original = ReadFileOrDie(path);

  // Count the operations of one overwrite.
  ASSERT_TRUE(SaveDatabaseToFile(big, dir + "/probe.tchdb", 2, &ffs).ok());
  ffs.SetPlan(FaultPlan{});  // reset the counter
  ASSERT_TRUE(SaveDatabaseToFile(big, dir + "/probe.tchdb", 2, &ffs).ok());
  uint64_t ops = ffs.ops_seen();
  ASSERT_GE(ops, 3u);

  for (uint64_t at = 0; at < ops; ++at) {
    SCOPED_TRACE("crash at op " + std::to_string(at));
    FaultPlan plan;
    plan.mode = FaultPlan::Mode::kCrash;
    plan.at_op = at;
    plan.surviving_tail_bytes = 11;
    ffs.SetPlan(plan);
    Status s = SaveDatabaseToFile(big, path, 2, &ffs);
    EXPECT_FALSE(s.ok());
    ffs.ClearPlan();
    // The visible snapshot is still exactly the old one.
    EXPECT_EQ(ReadFileOrDie(path), original);
    auto info = ProbeSnapshotFile(path, &ffs);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->integrity.ok()) << info->integrity;
  }

  // And once no fault is planned, the overwrite goes through.
  ASSERT_TRUE(SaveDatabaseToFile(big, path, 2, &ffs).ok());
  auto loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SaveDatabaseToString(**loaded, 0).value(),
            SaveDatabaseToString(big, 0).value());
}

// A torn v2 tail is quarantined to `<journal>.corrupt`, the valid prefix
// keeps replaying, and the journal accepts appends again after salvage.
TEST(JournalSalvageTest, TornTailIsQuarantinedAndAppendsContinue) {
  std::string dir = FreshDir("salvage");
  std::string path = dir + "/journal.tql";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(journal.Append("tick " + std::to_string(i)).ok());
    }
    journal.Close();
  }
  std::string content = ReadFileOrDie(path);
  ASSERT_GT(content.size(), 5u);
  WriteFileOrDie(path, content.substr(0, content.size() - 5));

  auto scan = ScanJournal(path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->format, 2);
  EXPECT_EQ(scan->statements.size(), 2u);
  EXPECT_FALSE(scan->tail_error.ok());
  EXPECT_GT(scan->dropped_bytes, 0u);

  auto salvaged = SalvageJournal(path);
  ASSERT_TRUE(salvaged.ok());
  std::string corrupt = ReadFileOrDie(path + ".corrupt");
  EXPECT_EQ(corrupt.size(), salvaged->dropped_bytes);
  auto rescan = ScanJournal(path);
  ASSERT_TRUE(rescan.ok());
  EXPECT_TRUE(rescan->tail_error.ok());
  EXPECT_EQ(rescan->statements.size(), 2u);

  // Open salvages implicitly (idempotent here) and appending resumes the
  // sequence numbering where the valid prefix left off.
  Journal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(journal.Append("tick 9").ok());
  journal.Close();
  auto final_scan = ScanJournal(path);
  ASSERT_TRUE(final_scan.ok());
  EXPECT_TRUE(final_scan->tail_error.ok());
  ASSERT_EQ(final_scan->statements.size(), 3u);
  EXPECT_EQ(final_scan->statements[2], "tick 9");
  EXPECT_EQ(final_scan->last_seq, 3u);
}

// Every single-bit flip and every truncation of a v2 snapshot must be
// rejected with Corruption before any state is built.
TEST(FuzzTest, SnapshotBitFlipsAndTruncationsAreRejected) {
  Database db;
  Interpreter interp(&db);
  for (const std::string& statement : Workload()) {
    ASSERT_TRUE(interp.Execute(statement).ok()) << statement;
  }
  const std::string text = SaveDatabaseToString(db, 3).value();
  ASSERT_TRUE(LoadDatabaseFromString(text).ok());

  Rng rng{0x7c3a1f2db5e90d41ULL};
  size_t iterations = FuzzIterations(250);
  for (size_t i = 0; i < iterations; ++i) {
    std::string mutated = text;
    std::string what;
    if (rng.Next() % 2 == 0) {
      size_t pos = rng.Next() % mutated.size();
      int bit = static_cast<int>(rng.Next() % 8);
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      what = "bit " + std::to_string(bit) + " at byte " + std::to_string(pos);
    } else {
      size_t len = rng.Next() % mutated.size();
      mutated.resize(len);
      what = "truncated to " + std::to_string(len) + " bytes";
    }
    auto loaded = LoadDatabaseFromString(mutated);
    ASSERT_FALSE(loaded.ok()) << "corrupt snapshot (" << what
                              << ") loaded silently";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << what;
  }
}

// Corrupted journals never crash recovery and never yield a state that is
// not a clean workload prefix: recovery either fails or lands on refs[n].
TEST(FuzzTest, CorruptedJournalsRecoverToAPrefixOrFail) {
  const std::vector<std::string> refs = BuildReferenceStates();
  std::string dir = FreshDir("jfuzz");
  std::string path = dir + "/journal.tql";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(path).ok());
    for (const std::string& statement : Workload()) {
      ASSERT_TRUE(journal.Append(statement).ok());
    }
    journal.Close();
  }
  const std::string pristine = ReadFileOrDie(path);

  Rng rng{0x2fd40b17c98e6a53ULL};
  size_t iterations = FuzzIterations(250);
  for (size_t i = 0; i < iterations; ++i) {
    std::string mutated = pristine;
    std::string what;
    if (rng.Next() % 2 == 0) {
      size_t pos = rng.Next() % mutated.size();
      int bit = static_cast<int>(rng.Next() % 8);
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      what = "bit " + std::to_string(bit) + " at byte " + std::to_string(pos);
    } else {
      size_t len = rng.Next() % mutated.size();
      mutated.resize(len);
      what = "truncated to " + std::to_string(len) + " bytes";
    }
    WriteFileOrDie(path, mutated);
    std::error_code ec;
    stdfs::remove(path + ".corrupt", ec);  // salvage residue of prior iters

    RecoveryManager manager(dir + "/snap.tchdb", path);
    auto recovered = manager.Recover(nullptr);
    if (!recovered.ok()) continue;  // refusing corrupt input is always fine
    auto state = SaveDatabaseToString(**recovered, 0);
    ASSERT_TRUE(state.ok());
    EXPECT_NE(MatchPrefix(refs, *state), std::string::npos)
        << "corrupt journal (" << what
        << ") recovered to a state that is not a workload prefix";
  }
}

// v1 journals (bare statements, no framing) still replay — both as
// scanned by ScanJournal and through RecoveryManager — and the
// first checkpoint upgrades the pair to v2 without losing anything.
TEST(BackCompatTest, V1JournalReplaysAndUpgradesAtTheNextCheckpoint) {
  std::string dir = FreshDir("v1journal");
  std::string journal_path = dir + "/journal.tql";
  std::string snap_path = dir + "/snap.tchdb";
  std::string v1_text;
  for (size_t i = 0; i < kCheckpointBefore; ++i) {
    v1_text += Workload()[i] + "\n";
    if (i == 2) v1_text += "\n";  // blank lines are tolerated in v1
  }
  WriteFileOrDie(journal_path, v1_text);

  Database reference;
  Interpreter reference_interp(&reference);
  auto scanned = ScanJournal(journal_path);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  for (const std::string& statement : scanned->statements) {
    ASSERT_TRUE(reference_interp.Execute(statement).ok()) << statement;
  }
  EXPECT_EQ(scanned->statements.size(), kCheckpointBefore);

  RecoveryManager manager(snap_path, journal_path);
  RecoveryStats stats;
  auto recovered = manager.Recover(&stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(stats.snapshot_loaded);
  EXPECT_EQ(stats.statements_applied, kCheckpointBefore);
  EXPECT_EQ(stats.next_epoch, 0u);
  EXPECT_EQ(SaveDatabaseToString(**recovered, 0).value(),
            SaveDatabaseToString(reference, 0).value());

  // Keep running against the recovered database in v1, then checkpoint:
  // the journal rotates to v2 and the v1 file is absorbed and deleted.
  Database* db = recovered->get();
  Interpreter interp(db);
  Journal journal;
  ASSERT_TRUE(journal.Open(journal_path).ok());
  EXPECT_EQ(journal.format(), 1);
  ASSERT_TRUE(interp.Execute("tick 1").ok());
  ASSERT_TRUE(journal.Append("tick 1").ok());
  ASSERT_TRUE(
      RecoveryManager::Checkpoint(*db, &journal, snap_path).ok());
  EXPECT_EQ(journal.format(), 2);
  EXPECT_EQ(journal.epoch(), 1u);
  EXPECT_FALSE(
      FileSystem::Default()->FileExists(Journal::RotatedPath(journal_path, 0)));
  journal.Close();

  RecoveryManager manager2(snap_path, journal_path);
  RecoveryStats stats2;
  auto recovered2 = manager2.Recover(&stats2);
  ASSERT_TRUE(recovered2.ok()) << recovered2.status();
  EXPECT_TRUE(stats2.snapshot_loaded);
  EXPECT_EQ(stats2.snapshot_epoch, 1u);
  EXPECT_EQ(SaveDatabaseToString(**recovered2, 0).value(),
            SaveDatabaseToString(*db, 0).value());
}

// v1 snapshots (no EPOCH line, no CHECKSUM footer) still load.
TEST(BackCompatTest, V1SnapshotStillLoads) {
  Database db;
  Interpreter interp(&db);
  for (size_t i = 0; i < kCheckpointBefore; ++i) {
    ASSERT_TRUE(interp.Execute(Workload()[i]).ok());
  }
  std::string v2 = SaveDatabaseToString(db, 5).value();

  // Shape the v2 text into its v1 equivalent: version 1 header, no EPOCH
  // line, no CHECKSUM line.
  std::string v1 = v2;
  size_t header_end = v1.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  v1.replace(0, header_end, "TCHIMERA-SNAPSHOT 1");
  size_t epoch_pos = v1.find("EPOCH ");
  ASSERT_NE(epoch_pos, std::string::npos);
  v1.erase(epoch_pos, v1.find('\n', epoch_pos) - epoch_pos + 1);
  size_t footer_pos = v1.find("CHECKSUM ");
  ASSERT_NE(footer_pos, std::string::npos);
  v1.erase(footer_pos, v1.find('\n', footer_pos) - footer_pos + 1);

  auto info = ProbeSnapshot(v1);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->version, 1);
  EXPECT_EQ(info->epoch, 0u);
  EXPECT_TRUE(info->integrity.ok()) << info->integrity;

  auto loaded = LoadDatabaseFromString(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SaveDatabaseToString(**loaded, 0).value(),
            SaveDatabaseToString(db, 0).value());
}

// A corrupt snapshot fails recovery with Corruption before any journal
// replay or state construction happens.
TEST(RecoveryTest, CorruptSnapshotFailsRecoveryUpFront) {
  std::string dir = FreshDir("badsnap");
  std::string snap = dir + "/snap.tchdb";
  std::string journal_path = dir + "/journal.tql";
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute(Workload()[0]).ok());
  ASSERT_TRUE(SaveDatabaseToFile(db, snap, 1).ok());

  std::string text = ReadFileOrDie(snap);
  text[text.size() / 2] = static_cast<char>(text[text.size() / 2] ^ 0x10);
  WriteFileOrDie(snap, text);

  RecoveryManager manager(snap, journal_path);
  RecoveryStats stats;
  auto recovered = manager.Recover(&stats);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(stats.statements_applied, 0u);
}

// The audit fixture: a database whose snapshot contains one object with a
// class history naming a class that never existed ("ghost"), and a second
// object referencing the first — so quarantining the first leaves the
// second dangling, which the next audit round must catch (the cascade).
std::string WriteCorruptedSnapshot(const std::string& dir) {
  Database db;
  Interpreter interp(&db);
  EXPECT_TRUE(interp
                  .Execute("define class person attributes "
                           "name: temporal(string), birthyear: integer end")
                  .ok());
  EXPECT_TRUE(
      interp.Execute("create person (name: 'Star', birthyear: 1970)").ok());
  EXPECT_TRUE(
      interp.Execute("define class fan attributes idol: person end").ok());
  EXPECT_TRUE(interp.Execute("create fan (idol: i1)").ok());
  EXPECT_TRUE(interp.Execute("tick 2").ok());
  EXPECT_TRUE(CheckDatabaseConsistency(db).ok());

  Object* star = db.GetMutableObject(Oid{1});
  EXPECT_NE(star, nullptr);
  TemporalFunction history;
  EXPECT_TRUE(history.AssertFrom(0, Value::String("ghost")).ok());
  star->RestoreState(star->lifespan(), std::move(history));
  EXPECT_FALSE(CheckDatabaseConsistency(db).ok());

  std::string snap = dir + "/snap.tchdb";
  EXPECT_TRUE(SaveDatabaseToFile(db, snap, 1).ok());
  return snap;
}

TEST(AuditTest, FailModeRejectsAnInconsistentRecoveredDatabase) {
  std::string dir = FreshDir("audit_fail");
  std::string snap = WriteCorruptedSnapshot(dir);
  RecoveryOptions options;
  options.audit = AuditMode::kFail;
  RecoveryManager manager(snap, dir + "/journal.tql", options);
  auto recovered = manager.Recover(nullptr);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kConsistencyViolation);
}

TEST(AuditTest, QuarantineModeEvictsTheCascadeAndHeals) {
  std::string dir = FreshDir("audit_quarantine");
  std::string snap = WriteCorruptedSnapshot(dir);
  RecoveryOptions options;
  options.audit = AuditMode::kQuarantine;
  RecoveryManager manager(snap, dir + "/journal.tql", options);
  RecoveryStats stats;
  auto recovered = manager.Recover(&stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  // i1 fails its own check (ghost class); evicting it scrubs the person
  // extent, which leaves i2's `idol: i1` dangling — evicted next round.
  EXPECT_EQ(stats.quarantined_objects, 2u);
  EXPECT_EQ((*recovered)->GetMutableObject(Oid{1}), nullptr);
  EXPECT_EQ((*recovered)->GetMutableObject(Oid{2}), nullptr);
  EXPECT_TRUE(CheckDatabaseConsistency(**recovered).ok());
}

TEST(AuditTest, OffModeTrustsTheReplay) {
  std::string dir = FreshDir("audit_off");
  std::string snap = WriteCorruptedSnapshot(dir);
  RecoveryOptions options;
  options.audit = AuditMode::kOff;
  RecoveryManager manager(snap, dir + "/journal.tql", options);
  auto recovered = manager.Recover(nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_FALSE(CheckDatabaseConsistency(**recovered).ok());
}

// Active rules are part of the state a restart must rebuild: a trigger's
// effect is journaled only as the statement that fired it, so recovery
// must replay through an ActiveDatabase, whether the trigger definition
// sits in the journal or in the snapshot's DEFINE records. The audit
// cannot catch a miss — the database is consistent, just wrong.
TEST(ActiveRecoveryTest, RestartRefiresTriggersWhereverTheyAreStored) {
  struct Case {
    const char* name;
    bool checkpoint_after_trigger;
  };
  const Case cases[] = {
      {"definition_in_journal", false},
      {"definition_in_snapshot", true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir(std::string("active_") + c.name);
    const std::string snap = dir + "/snapshot.tchdb";
    const std::string journal = dir + "/journal.tql";

    uint32_t live_hash = 0;
    uint32_t live_hash_with_definitions = 0;
    {
      Engine engine;
      GroupCommitJournal sink;
      ASSERT_TRUE(sink.Open(journal).ok());
      engine.set_commit_sink(&sink);
      Session session = engine.OpenSession();
      ASSERT_TRUE(
          session.Execute("define class emp attributes v: integer end").ok());
      ASSERT_TRUE(session
                      .Execute("trigger boost on create of emp do "
                               "update $self set v = 42")
                      .ok());
      if (c.checkpoint_after_trigger) {
        Status checkpointed = engine.WithExclusive(
            [&](Database& live, ActiveDatabase& active) {
              return sink.WithQuiesced([&](Journal& j) {
                return RecoveryManager::Checkpoint(
                    live, &j, snap, nullptr, active.DefinitionStatements());
              });
            });
        ASSERT_TRUE(checkpointed.ok()) << checkpointed;
      }
      ASSERT_TRUE(session.Execute("create emp (v: 1)").ok());
      ASSERT_EQ(session.Execute("select x.v from x in emp").value(), "42");
      sink.Close();
      ReadSnapshot live = engine.OpenSnapshot();
      live_hash = DatabaseStateHash(live.db()).value();
      live_hash_with_definitions =
          DatabaseStateHash(live.db(), engine.active().DefinitionStatements())
              .value();
    }

    RecoveryManager manager(snap, journal);
    Result<std::unique_ptr<Database>> db = manager.Recover();
    ASSERT_TRUE(db.ok()) << db.status();
    EXPECT_EQ(DatabaseStateHash(**db).value(), live_hash);

    Result<std::unique_ptr<Engine>> engine = manager.RecoverEngine();
    ASSERT_TRUE(engine.ok()) << engine.status();
    ReadSnapshot recovered = (*engine)->OpenSnapshot();
    EXPECT_EQ(DatabaseStateHash(recovered.db()).value(), live_hash);
    EXPECT_EQ(DatabaseStateHash(recovered.db(),
                                (*engine)->active().DefinitionStatements())
                  .value(),
              live_hash_with_definitions);
  }
}

}  // namespace
}  // namespace tchimera
