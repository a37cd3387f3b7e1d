// Tests for persistence: snapshot round-trips, journal replay (the
// checkpoint+log scheme), and corruption detection.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "common/crc32.h"
#include "core/db/consistency.h"
#include "core/db/equality.h"
#include "query/interpreter.h"
#include "query/parser.h"
#include "query/session.h"
#include "storage/deserializer.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"
#include "workload/generator.h"

namespace tchimera {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("tchimera_test_") + name))
      .string();
}

void Populate(Database* db, uint64_t seed = 7) {
  PopulationConfig config;
  config.seed = seed;
  config.persons = 15;
  config.projects = 4;
  config.timesteps = 12;
  config.updates_per_step = 6;
  config.migration_rate = 0.3;
  Result<Population> pop = PopulateDatabase(db, config);
  ASSERT_TRUE(pop.ok()) << pop.status();
}

TEST(SerializerTest, SnapshotRoundTripsExactly) {
  Database db;
  Populate(&db);
  Result<std::string> text = SaveDatabaseToString(db);
  ASSERT_TRUE(text.ok()) << text.status();

  Result<std::unique_ptr<Database>> loaded =
      LoadDatabaseFromString(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  // Fixed point: serializing the loaded database reproduces the bytes.
  Result<std::string> again = SaveDatabaseToString(**loaded);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *text);

  // Semantics preserved: clock, population, schema, per-object state.
  EXPECT_EQ((*loaded)->now(), db.now());
  EXPECT_EQ((*loaded)->object_count(), db.object_count());
  EXPECT_EQ((*loaded)->class_count(), db.class_count());
  EXPECT_EQ((*loaded)->next_oid(), db.next_oid());
  for (Oid oid : db.AllOids()) {
    const Object* original = db.GetObject(oid);
    const Object* restored = (*loaded)->GetObject(oid);
    ASSERT_NE(restored, nullptr) << oid.ToString();
    EXPECT_TRUE(EqualByValue(*original, *restored)) << oid.ToString();
    EXPECT_EQ(original->lifespan(), restored->lifespan());
    EXPECT_EQ(original->class_history(), restored->class_history());
  }
  // The restored database passes the full consistency check.
  Status s = CheckDatabaseConsistency(**loaded);
  EXPECT_TRUE(s.ok()) << s;
}

// A snapshot written by the set-valued extent representation that the
// membership rows replaced. It covers a create and a migrate in one
// instant (manager's `{}` extents), a retroactive CreateObjectAt (i5 at
// 3), two deletes and a dropped class (temp). Loading it builds the rows;
// writing it back must reproduce it byte for byte.
constexpr char kSetExtentSnapshot[] = R"snap(TCHIMERA-SNAPSHOT 4
EPOCH 0
NOW 11
CLASS person
SUPERS -
LIFESPAN [0,now]
ATTR name temporal(string)
EXT {<[0,1],{i1}>,<[2,2],{i1,i2}>,<[3,3],{i1,i2,i5}>,<[4,7],{i1,i2,i3,i5}>,<[8,now],{i2,i3,i5}>}
PEXT {<[0,7],{i1}>,<[8,now],{}>}
END
CLASS temp
SUPERS -
LIFESPAN [0,8]
ATTR x temporal(integer)
EXT {<[4,7],{i4}>,<[8,8],{}>}
PEXT {<[4,7],{i4}>,<[8,8],{}>}
END
CLASS employee
SUPERS person
LIFESPAN [0,now]
ATTR name temporal(string)
ATTR salary temporal(integer)
EXT {<[2,2],{i2}>,<[3,3],{i2,i5}>,<[4,now],{i2,i3,i5}>}
PEXT {<[2,2],{i2}>,<[3,3],{i2,i5}>,<[4,now],{i2,i3,i5}>}
END
CLASS manager
SUPERS employee
LIFESPAN [0,now]
ATTR budget integer
ATTR name temporal(string)
ATTR salary temporal(integer)
EXT {<[4,now],{}>}
PEXT {<[4,now],{}>}
END
OBJECT 1 [0,7]
CLASSHIST {<[0,7],'person'>}
ATTRVAL name T {<[0,7],'ann'>}
END
OBJECT 2 [2,now]
CLASSHIST {<[2,now],'employee'>}
ATTRVAL name T {<[2,now],'bob'>}
ATTRVAL salary T {<[2,6],10>,<[7,now],11>}
END
OBJECT 3 [4,now]
CLASSHIST {<[4,now],'employee'>}
ATTRVAL name T {<[4,now],'cy'>}
ATTRVAL salary T {<[4,now],20>}
END
OBJECT 4 [4,7]
CLASSHIST {<[4,7],'temp'>}
ATTRVAL x T {<[4,7],1>}
END
OBJECT 5 [3,now]
CLASSHIST {<[3,now],'employee'>}
ATTRVAL name T {<[3,now],'dee'>}
ATTRVAL salary T {<[3,now],7>}
END
NEXT-OID 6
CHECKSUM 9 b1436c19
EOF
)snap";

TEST(SerializerTest, SetExtentSnapshotReloadsIdentically) {
  Result<std::unique_ptr<Database>> db =
      LoadDatabaseFromString(kSetExtentSnapshot);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_TRUE(CheckDatabaseConsistency(**db).ok());
  Result<std::string> again = SaveDatabaseToString(**db, /*epoch=*/0, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, kSetExtentSnapshot);
  Result<uint32_t> hash = DatabaseStateHash(**db, {});
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(*hash, 3585504152u);
  // The rows answer membership directly.
  const ClassDef* manager = (*db)->GetClass("manager");
  EXPECT_EQ(manager->ext().ToString(), "{<[4,now],{}>}");
  EXPECT_TRUE(manager->ExtentAt(4).empty());
  EXPECT_EQ((*db)->Pi("employee", 3), (std::vector<Oid>{Oid{2}, Oid{5}}));
  EXPECT_TRUE((*db)->GetClass("temp")->InExtentAt(Oid{4}, 7));
  EXPECT_FALSE((*db)->GetClass("temp")->InExtentAt(Oid{4}, 8));
}

TEST(SerializerTest, FileRoundTrip) {
  Database db;
  Populate(&db, 11);
  std::string path = TempPath("snapshot.tchdb");
  ASSERT_TRUE(SaveDatabaseToFile(db, path).ok());
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded)->object_count(), db.object_count());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadDatabaseFromFile(path).ok());
}

TEST(SerializerTest, OperationsContinueAfterRestore) {
  Database db;
  Populate(&db, 13);
  Result<std::string> text = SaveDatabaseToString(db);
  ASSERT_TRUE(text.ok());
  auto loaded = LoadDatabaseFromString(*text).value();
  // The restored database accepts new work: ticks, creates, updates,
  // migrations — and stays consistent.
  loaded->Tick();
  Result<Oid> fresh = loaded->CreateObject("employee");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_GT(fresh->id, 0u);
  ASSERT_TRUE(loaded
                  ->UpdateAttribute(*fresh, "salary",
                                    Value::Integer(123))
                  .ok());
  Status s = CheckDatabaseConsistency(*loaded);
  EXPECT_TRUE(s.ok()) << s;
}

TEST(DeserializerTest, DetectsCorruption) {
  Database db;
  Populate(&db, 17);
  std::string text = SaveDatabaseToString(db).value();
  // Bad header.
  EXPECT_FALSE(LoadDatabaseFromString("GARBAGE\n").ok());
  // Truncated snapshot (cut in half).
  std::string truncated = text.substr(0, text.size() / 2);
  Result<std::unique_ptr<Database>> r = LoadDatabaseFromString(truncated);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // A corrupted record tag.
  std::string mangled = text;
  size_t pos = mangled.find("\nOBJECT ");
  ASSERT_NE(pos, std::string::npos);
  mangled.replace(pos, 8, "\nOBJEKT ");
  EXPECT_FALSE(LoadDatabaseFromString(mangled).ok());
}

// Recovers the journal at `path`, with no snapshot beside it, through
// the restart routine.
Result<std::unique_ptr<Database>> RecoverJournal(const std::string& path,
                                                 RecoveryStats* stats) {
  const std::string snapshot = path + ".tchdb";
  std::remove(snapshot.c_str());
  return RecoveryManager(snapshot, path).Recover(stats);
}

TEST(JournalTest, ReplayReproducesState) {
  std::string path = TempPath("journal.tql");
  std::remove(path.c_str());
  const char* statements[] = {
      "define class person attributes name: temporal(string), "
      "birthyear: integer end",
      "create person (name: 'Ann', birthyear: 1970)",
      "create person (name: 'Bob', birthyear: 1980)",
      "advance to 30",
      "update i1 set name = 'Anna'",
      "tick 5",
      "delete i2",
  };
  {
    Engine engine;
    GroupCommitJournal sink;
    ASSERT_TRUE(sink.Open(path).ok());
    engine.set_commit_sink(&sink);
    Session session = engine.OpenSession();
    for (const char* stmt : statements) {
      Result<std::string> r = session.Execute(stmt);
      ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
    }
    // Queries are not journaled.
    ASSERT_TRUE(session.Execute("select x from x in person").ok());
    sink.Close();
  }
  // Recovery: replay into a fresh database.
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> replayed = RecoverJournal(path, &stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  const Database& recovered = **replayed;
  EXPECT_EQ(stats.statements_applied, 7u);  // the SELECT was not journaled
  EXPECT_EQ(recovered.now(), 35);
  EXPECT_EQ(recovered.object_count(), 2u);
  EXPECT_EQ(recovered.HStateOf(Oid{1}, 30)
                .value()
                .FieldValue("name")
                ->AsString(),
            "Anna");
  EXPECT_FALSE(recovered.GetObject(Oid{2})->alive());
  EXPECT_TRUE(CheckDatabaseConsistency(recovered).ok());
  std::remove(path.c_str());
}

TEST(JournalTest, CheckpointPlusLogRecovery) {
  std::string snap_path = TempPath("ckpt.tchdb");
  std::string journal_path = TempPath("tail.tql");
  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());
  std::remove(Journal::RotatedPath(journal_path, 0).c_str());
  // Phase 1: base state, then a safe checkpoint (rotate + snapshot +
  // delete, see storage/recovery.h).
  {
    Engine engine;
    GroupCommitJournal sink;
    ASSERT_TRUE(sink.Open(journal_path).ok());
    engine.set_commit_sink(&sink);
    Session session = engine.OpenSession();
    for (const char* stmt :
         {"define class task attributes description: string, "
          "effort: temporal(integer) end",
          "create task (description: 'build', effort: 10)"}) {
      Result<std::string> r = session.Execute(stmt);
      ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
    }
    Status ckpt = engine.WithExclusive([&](Database& db, ActiveDatabase&) {
      return sink.WithQuiesced([&](Journal& journal) {
        return RecoveryManager::Checkpoint(db, &journal, snap_path);
      });
    });
    ASSERT_TRUE(ckpt.ok()) << ckpt;
    // The rotated pre-checkpoint journal was deleted once the snapshot
    // became durable.
    EXPECT_FALSE(
        std::filesystem::exists(Journal::RotatedPath(journal_path, 0)));
    // Phase 2: more work lands in the fresh journal tail only.
    ASSERT_TRUE(session.Execute("tick 10").ok());
    ASSERT_TRUE(session.Execute("update i1 set effort = 20").ok());
    sink.Close();
  }
  // Recovery: snapshot, then the journal tail on top.
  RecoveryManager manager(snap_path, journal_path);
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> recovered = manager.Recover(&stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(stats.snapshot_epoch, 1u);
  EXPECT_EQ(stats.statements_applied, 2u);
  EXPECT_EQ((*recovered)->now(), 10);
  EXPECT_EQ((*recovered)
                ->HStateOf(Oid{1}, 10)
                .value()
                .FieldValue("effort")
                ->AsInteger(),
            20);
  EXPECT_EQ((*recovered)
                ->HStateOf(Oid{1}, 5)
                .value()
                .FieldValue("effort")
                ->AsInteger(),
            10);
  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());
}

TEST(JournalTest, ReplaySkipsBlankLinesInV1Journals) {
  std::string path = TempPath("blank.tql");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "tick 1\n\n\ntick 2\n   \n";
  }
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> db = RecoverJournal(path, &stats);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ(stats.statements_applied, 2u);
  EXPECT_EQ((*db)->now(), 3);
  std::remove(path.c_str());
}

TEST(JournalTest, OperationsOnClosedJournalFail) {
  Journal never_opened;
  EXPECT_EQ(never_opened.Append("tick").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(never_opened.Sync().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(never_opened.Rotate().status().code(),
            StatusCode::kFailedPrecondition);

  std::string path = TempPath("closed.tql");
  std::remove(path.c_str());
  Journal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(journal.Append("tick").ok());
  journal.Close();
  EXPECT_EQ(journal.Append("tick").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(journal.Rotate().status().code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(JournalTest, ReplayFailsFastOnBadStatement) {
  std::string path = TempPath("bad.tql");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "tick 1\nnot a statement\ntick 1\n";
  }
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> r = RecoverJournal(path, &stats);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  // The first statement applied before the stop.
  EXPECT_EQ(stats.statements_applied, 1u);
  std::remove(path.c_str());
}

// A fresh directory under the temp directory.
std::filesystem::path FreshDir(const char* name) {
  std::filesystem::path dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::set<std::string> FileNames(const std::filesystem::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

TEST(JournalFilesTest, ListsRotatedEpochsInNumericOrderAndTheLiveFile) {
  const std::filesystem::path dir = FreshDir("listing");
  for (const char* name :
       {"journal.tql", "journal.tql.e2", "journal.tql.e10",
        "journal.tql.e2.corrupt", "journal.tql.e", "journal.tql.e1x",
        "journal.tql.corrupt", "journal.tqlx.e3", "snapshot.tchdb.tmp"}) {
    std::ofstream(dir / name) << "x\n";
  }
  // A directory named like a rotated journal is not one.
  std::filesystem::create_directory(dir / "journal.tql.e7");
  const std::string journal = (dir / kJournalFileName).string();
  bool live = false;
  Result<std::vector<uint64_t>> epochs =
      ListJournalFiles(nullptr, journal, &live);
  ASSERT_TRUE(epochs.ok()) << epochs.status();
  EXPECT_EQ(*epochs, (std::vector<uint64_t>{2, 10}));
  EXPECT_TRUE(live);

  std::filesystem::remove(dir / "journal.tql");
  epochs = ListJournalFiles(nullptr, journal, &live);
  ASSERT_TRUE(epochs.ok()) << epochs.status();
  EXPECT_EQ(*epochs, (std::vector<uint64_t>{2, 10}));
  EXPECT_FALSE(live);
  std::filesystem::remove_all(dir);
}

TEST(JournalFilesTest, CheckpointRemovesExactlyTheEpochsBelowTheLiveOne) {
  const std::filesystem::path dir = FreshDir("checkpoint_listing");
  const std::string journal_path = (dir / kJournalFileName).string();
  Journal journal;
  JournalOptions options;
  options.epoch = 2;
  ASSERT_TRUE(journal.Open(journal_path, options).ok());
  ASSERT_TRUE(journal.Append("tick 1").ok());
  // Stale epochs below the live one, and a salvage quarantine.
  for (const char* name :
       {"journal.tql.e0", "journal.tql.e1", "journal.tql.e1.corrupt"}) {
    std::ofstream(dir / name) << "x\n";
  }
  Database db;
  ASSERT_TRUE(Interpreter(&db).Execute("tick 1").ok());
  Status ckpt = RecoveryManager::Checkpoint(
      db, &journal, (dir / kSnapshotFileName).string());
  ASSERT_TRUE(ckpt.ok()) << ckpt;
  EXPECT_EQ(journal.epoch(), 3u);
  journal.Close();
  EXPECT_EQ(FileNames(dir),
            (std::set<std::string>{"journal.tql", "journal.tql.e1.corrupt",
                                   "snapshot.tchdb"}));
  std::filesystem::remove_all(dir);
}

// Records what the engine hands to its durability boundary.
class RecordingSink : public CommitSink {
 public:
  Ticket Enqueue(std::string_view statement) override {
    statements.emplace_back(statement);
    return Ticket{statements.size()};
  }
  Status Await(Ticket) override { return Status::OK(); }

  std::vector<std::string> statements;
};

// Every Statement::Kind, classified once from the parse (TraitsOf) — and
// the engine journals exactly the durable ones, spelled any which way.
TEST(StatementTraitsTest, EveryKindRoutesFromItsParsedKind) {
  using Kind = Statement::Kind;
  struct Row {
    const char* text;
    Kind kind;
    bool read;
    bool durable;
    bool needs_exclusive;
  };
  const Row table[] = {
      {"define class item attributes v: temporal(integer) end",
       Kind::kDefineClass, false, true, true},
      {"define class gadget under item end", Kind::kDefineClass, false, true,
       true},
      {"define class spare attributes w: integer end", Kind::kDefineClass,
       false, true, true},
      {"create item (v: 1)", Kind::kCreate, false, true, false},
      {"CREATE index iv on item (v)", Kind::kCreateIndex, false, true, true},
      {"update i1 set v = 2;", Kind::kUpdate, false, true, false},
      {"select x from x in item", Kind::kSelect, true, false, false},
      {"snapshot i1", Kind::kSnapshot, true, false, false},
      {"history i1.v", Kind::kHistory, true, false, false},
      {"when i1.v = 2", Kind::kWhen, true, false, false},
      {"show classes", Kind::kShow, true, false, false},
      {"explain select x from x in item", Kind::kExplain, true, false, false},
      {"tick;", Kind::kTick, false, true, false},
      {"  Advance to 10", Kind::kAdvance, false, true, false},
      {"check;", Kind::kCheck, false, false, false},
      {"trigger bump on update of item.v do tick", Kind::kDefineTrigger,
       false, true, true},
      {"constraint up on item nondecreasing v", Kind::kDefineConstraint,
       false, true, true},
      {"migrate i1 to gadget", Kind::kMigrate, false, true, false},
      {"drop index iv", Kind::kDropIndex, false, true, true},
      {"drop class spare", Kind::kDropClass, false, true, true},
      {"delete i1", Kind::kDelete, false, true, false},
  };
  Engine engine;
  RecordingSink sink;
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  std::vector<std::string> durable;
  std::set<Kind> covered;
  for (const Row& row : table) {
    SCOPED_TRACE(row.text);
    Result<Statement> parsed = ParseStatement(row.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(parsed->kind, row.kind);
    const StatementTraits traits = TraitsOf(parsed->kind);
    EXPECT_EQ(traits.read, row.read);
    EXPECT_EQ(traits.durable, row.durable);
    EXPECT_EQ(traits.needs_exclusive, row.needs_exclusive);
    covered.insert(row.kind);

    Result<std::string> out = session.Execute(row.text);
    ASSERT_TRUE(out.ok()) << out.status();
    if (row.durable) durable.push_back(row.text);
  }
  // The table spans every kind (kDefineConstraint is the last).
  EXPECT_EQ(covered.size(), static_cast<size_t>(Kind::kDefineConstraint) + 1);
  EXPECT_EQ(sink.statements, durable);

  // Look-alikes of mutating verbs are parse errors; they never reach the
  // sink.
  for (const char* text : {"deletion_report from x in c",
                           "ticket from x in c", "updates from x in c",
                           "created from x in c", "", "   "}) {
    EXPECT_FALSE(session.Execute(text).ok()) << text;
  }
  EXPECT_EQ(sink.statements, durable);
}

// A statement journaled verbatim must replay to the same state, whatever
// its spelling: a trailing `;`, mixed case or a trailing comment.
TEST(WritePathTest, EveryDurableSpellingIsJournaledAndRecovers) {
  const std::string dir = TempPath("spellings");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/journal.tql";
  Engine engine;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(journal_path).ok());
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  for (const char* stmt :
       {"define class dept attributes budget: temporal(integer) end;",
        "create dept (budget: 10);", "tick;", "  TICK 2 ;",
        "update i1 set budget = 20; -- raise", "Advance to 40;"}) {
    Result<std::string> r = session.Execute(stmt);
    ASSERT_TRUE(r.ok()) << stmt << ": " << r.status();
  }
  EXPECT_EQ(sink.durable(), 6u);
  sink.Close();

  RecoveryManager manager(dir + "/snap.tchdb", journal_path);
  Result<std::unique_ptr<Database>> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->now(), 40);
  EXPECT_EQ(DatabaseStateHash(**recovered).value(),
            DatabaseStateHash(engine.OpenSnapshot().db()).value());
  std::filesystem::remove_all(dir);
}

// The journal frames one statement per line, so a durable statement with
// a raw newline is refused before it applies — it neither changes the
// database nor poisons the sink for the writes after it.
TEST(WritePathTest, MultiLineDurableWritesAreRefusedBeforeApplying) {
  const std::string dir = TempPath("newlines");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal_path = dir + "/journal.tql";
  Engine engine;
  GroupCommitJournal sink;
  ASSERT_TRUE(sink.Open(journal_path).ok());
  engine.set_commit_sink(&sink);
  Session session = engine.OpenSession();
  ASSERT_TRUE(session
                  .Execute("define class emp attributes salary: "
                           "temporal(integer) end")
                  .ok());
  ASSERT_TRUE(session.Execute("create emp (salary: 5)").ok());
  const uint32_t before =
      DatabaseStateHash(engine.OpenSnapshot().db()).value();

  Result<std::string> r =
      session.Execute("-- c\ndefine class dept attributes budget: integer end");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.OpenSnapshot().db().FindClass("dept").ok());
  r = session.Execute("update i1\nset salary = 9");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(DatabaseStateHash(engine.OpenSnapshot().db()).value(), before);
  // Reads are never journaled, so they may span lines.
  EXPECT_TRUE(session.Execute("select x\nfrom x in emp").ok());

  // The sink is healthy: the single-line form commits and recovers.
  ASSERT_TRUE(session.Execute("update i1 set salary = 9").ok());
  sink.Close();
  RecoveryManager manager(dir + "/snap.tchdb", journal_path);
  Result<std::unique_ptr<Database>> recovered = manager.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(DatabaseStateHash(**recovered).value(),
            DatabaseStateHash(engine.OpenSnapshot().db()).value());

  // Without a sink nothing is journaled, and multi-line writes apply.
  Engine in_memory;
  EXPECT_TRUE(in_memory.OpenSession()
                  .Execute("define class a\nattributes x: integer end")
                  .ok());
  std::filesystem::remove_all(dir);
}

// --- v3 snapshots: DEFINE records for trigger/constraint definitions ---

TEST(SerializerTest, V3SnapshotCarriesDefinitions) {
  Database db;
  Populate(&db, 19);
  const std::vector<std::string> defs = {
      "trigger t on create of employee do update $self set salary = 1",
      "constraint c on employee always x.salary > 0"};
  std::string text = SaveDatabaseToString(db, 4, defs).value();
  EXPECT_EQ(text.rfind("TCHIMERA-SNAPSHOT 4", 0), 0u);

  Result<SnapshotInfo> info = ProbeSnapshot(text);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, 4);
  EXPECT_EQ(info->epoch, 4u);
  EXPECT_TRUE(info->integrity.ok()) << info->integrity;

  // The full parse hands the definitions back, in order, unapplied.
  Result<LoadedSnapshot> loaded = LoadSnapshotFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->definitions, defs);
  // Fixed point: re-serializing with the same definitions reproduces the
  // bytes, so DEFINE records round-trip exactly.
  EXPECT_EQ(SaveDatabaseToString(*loaded->db, 4, defs).value(), text);

  // The plain loader accepts v3 too; it just drops the definitions.
  Result<std::unique_ptr<Database>> plain = LoadDatabaseFromString(text);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ((*plain)->object_count(), db.object_count());
}

// --- v4 snapshots: INDEX records for temporal secondary indexes ---

TEST(SerializerTest, V4SnapshotRestoresIndexDefinitionsAndRebuilds) {
  Database db;
  Populate(&db, 13);
  ASSERT_TRUE(
      db.CreateIndex({"emp_salary", IndexKind::kValue, "employee", "salary"})
          .ok());
  ASSERT_TRUE(
      db.CreateIndex({"emp_life", IndexKind::kLifespan, "employee", ""})
          .ok());

  std::string text = SaveDatabaseToString(db).value();
  // Only the definitions are serialized — data is rebuilt on restore.
  EXPECT_NE(text.find("INDEX emp_life lifespan employee -\n"),
            std::string::npos);
  EXPECT_NE(text.find("INDEX emp_salary value employee salary\n"),
            std::string::npos);
  EXPECT_EQ(text.find("postings"), std::string::npos);

  Result<std::unique_ptr<Database>> loaded = LoadDatabaseFromString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE((*loaded)->GetIndexDef("emp_salary"), nullptr);
  ASSERT_NE((*loaded)->GetIndexDef("emp_life"), nullptr);
  // The rebuilt index state is bit-identical to the source database's.
  EXPECT_EQ((*loaded)->DebugDumpIndexes(), db.DebugDumpIndexes());
  EXPECT_GT((*loaded)->IndexEntryCount("emp_salary"), 0u);
  // Fixed point: INDEX records round-trip byte-for-byte.
  EXPECT_EQ(SaveDatabaseToString(**loaded).value(), text);

  // An INDEX record with an unknown kind is corruption, not data.
  std::string bad = text;
  size_t pos = bad.find("INDEX emp_salary value");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos + 17, 5, "vecto");
  size_t chk = bad.find("CHECKSUM ");
  ASSERT_NE(chk, std::string::npos);
  std::string body = bad.substr(0, chk);
  size_t count_end = bad.find(' ', chk + 9);
  std::string records = bad.substr(chk + 9, count_end - chk - 9);
  bad = body + "CHECKSUM " + records + " " + Crc32Hex(Crc32(body)) +
        "\nEOF\n";
  Result<std::unique_ptr<Database>> rejected =
      LoadDatabaseFromString(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

TEST(SerializerTest, NewlineInDefinitionIsRejected) {
  Database db;
  Result<std::string> r =
      SaveDatabaseToString(db, 0, {"trigger a on create of b do\ntick 1"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializerTest, V2SnapshotStillLoads) {
  Database db;
  Populate(&db, 23);
  const std::vector<std::string> defs = {
      "constraint c on employee always x.salary > 0"};
  std::string v3 = SaveDatabaseToString(db, 6, defs).value();

  // Shape the v3 text into its v2 equivalent: version 2 header, no DEFINE
  // lines, checksum recomputed over the altered body.
  std::string v2 = v3;
  size_t header_end = v2.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  v2.replace(0, header_end, "TCHIMERA-SNAPSHOT 2");
  size_t define_pos;
  while ((define_pos = v2.find("\nDEFINE ")) != std::string::npos) {
    v2.erase(define_pos + 1, v2.find('\n', define_pos + 1) - define_pos);
  }
  size_t footer_pos = v2.find("CHECKSUM ");
  ASSERT_NE(footer_pos, std::string::npos);
  std::string body = v2.substr(0, footer_pos);
  // Keep the record count (DEFINE lines never counted toward it).
  size_t count_end = v2.find(' ', footer_pos + 9);
  std::string records = v2.substr(footer_pos + 9, count_end - footer_pos - 9);
  v2 = body + "CHECKSUM " + records + " " + Crc32Hex(Crc32(body)) + "\nEOF\n";

  Result<SnapshotInfo> info = ProbeSnapshot(v2);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, 2);
  EXPECT_EQ(info->epoch, 6u);
  EXPECT_TRUE(info->integrity.ok()) << info->integrity;

  Result<LoadedSnapshot> loaded = LoadSnapshotFromString(v2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->definitions.empty());
  EXPECT_EQ(SaveDatabaseToString(*loaded->db, 0).value(),
            SaveDatabaseToString(db, 0).value());

  // A DEFINE record in a v2 snapshot is corruption, not data: the tag was
  // introduced with v3.
  std::string bad = v3;
  bad.replace(0, bad.find('\n'), "TCHIMERA-SNAPSHOT 2");
  size_t chk = bad.find("CHECKSUM ");
  ASSERT_NE(chk, std::string::npos);
  std::string bad_body = bad.substr(0, chk);
  size_t bad_count_end = bad.find(' ', chk + 9);
  std::string bad_records = bad.substr(chk + 9, bad_count_end - chk - 9);
  bad = bad_body + "CHECKSUM " + bad_records + " " +
        Crc32Hex(Crc32(bad_body)) + "\nEOF\n";
  EXPECT_FALSE(LoadSnapshotFromString(bad).ok());
}

}  // namespace
}  // namespace tchimera
