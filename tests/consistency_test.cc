// Failure-injection tests for the consistency checkers (Definitions
// 5.3-5.6, Invariants 5.1/5.2/6.1/6.2): a healthy database passes every
// check, and each hand-crafted corruption is caught by the checker that
// guards the violated clause.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/db/consistency.h"
#include "core/db/database.h"
#include "core/types/type_registry.h"
#include "core/values/temporal_function.h"
#include "query/interpreter.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"
#include "workload/generator.h"
#include "workload/project_schema.h"

namespace tchimera {
namespace {

Value I(int64_t v) { return Value::Integer(v); }

class ConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallProjectSchema(&db_).ok());
    e_ = db_.CreateObject("employee", {{"salary", I(100)},
                                       {"office", Value::String("A")}})
             .value();
    ASSERT_TRUE(db_.AdvanceTo(50).ok());
    ASSERT_TRUE(db_.Migrate(e_, "manager",
                            {{"dependents", I(1)},
                             {"officialcar", Value::String("car")}})
                    .ok());
    ASSERT_TRUE(db_.AdvanceTo(100).ok());
    ASSERT_TRUE(CheckDatabaseConsistency(db_).ok());
  }

  Database db_;
  Oid e_;
};

TEST_F(ConsistencyTest, HealthyDatabasePassesEverything) {
  EXPECT_TRUE(CheckObjectConsistency(db_, e_).ok());
  EXPECT_TRUE(CheckConsistentObjectSet(db_, 25).ok());
  EXPECT_TRUE(CheckConsistentObjectSet(db_, kNow).ok());
  EXPECT_TRUE(CheckReferentialIntegrityAllTime(db_).ok());
  EXPECT_TRUE(CheckInvariant51(db_).ok());
  EXPECT_TRUE(CheckInvariant52(db_).ok());
  EXPECT_TRUE(CheckInvariant61(db_).ok());
  EXPECT_TRUE(CheckInvariant62(db_).ok());
}

TEST_F(ConsistencyTest, WrongTypedTemporalValueIsHistoricallyInconsistent) {
  // Inject a string into the integer-valued salary history.
  Object* obj = db_.GetMutableObject(e_);
  TemporalFunction f = obj->Attribute("salary")->AsTemporal();
  ASSERT_TRUE(f.Define(Interval(10, 20), Value::String("oops")).ok());
  obj->SetAttribute("salary", Value::Temporal(f));
  Status s = CheckObjectConsistency(db_, e_);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConsistencyViolation);
}

TEST_F(ConsistencyTest, GapInTemporalAttributeIsCaught) {
  // Definition 5.5: a value must exist for every temporal attribute at
  // every instant of membership. Punch a hole in the salary history.
  Object* obj = db_.GetMutableObject(e_);
  TemporalFunction f = obj->Attribute("salary")->AsTemporal();
  ASSERT_TRUE(f.Erase(Interval(10, 20)).ok());
  obj->SetAttribute("salary", Value::Temporal(f));
  EXPECT_FALSE(CheckObjectConsistency(db_, e_).ok());
}

TEST_F(ConsistencyTest, RetainedAttributeLeakingIntoMembershipIsCaught) {
  // A "dependents" value during the employee period (before promotion at
  // 50) contradicts the class history.
  Object* obj = db_.GetMutableObject(e_);
  TemporalFunction f = obj->Attribute("dependents")->AsTemporal();
  ASSERT_TRUE(f.Define(Interval(10, 20), I(9)).ok());
  obj->SetAttribute("dependents", Value::Temporal(f));
  Status s = CheckObjectConsistency(db_, e_);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("dependents"), std::string::npos);
}

TEST_F(ConsistencyTest, WrongStaticValueIsStaticallyInconsistent) {
  Object* obj = db_.GetMutableObject(e_);
  obj->SetAttribute("office", I(42));  // string attribute
  EXPECT_FALSE(CheckObjectConsistency(db_, e_).ok());
}

TEST_F(ConsistencyTest, ExtraStaticAttributeIsCaught) {
  Object* obj = db_.GetMutableObject(e_);
  obj->SetAttribute("bogus", Value::String("zzz"));
  EXPECT_FALSE(CheckObjectConsistency(db_, e_).ok());
}

TEST_F(ConsistencyTest, ClassHistoryOutsideClassLifespanIsCaught) {
  // Pretend the object was a manager before the class existed... achieved
  // by closing the class lifespan under it instead.
  Object* obj = db_.GetMutableObject(e_);
  TemporalFunction history = obj->class_history();
  ASSERT_TRUE(
      history.Define(Interval(0, 4), Value::String("manager")).ok());
  // Make the attribute story coherent so only the lifespan clause fires.
  obj->RestoreState(obj->lifespan(), std::move(history));
  Status s = CheckObjectConsistency(db_, e_);
  EXPECT_FALSE(s.ok());
}

TEST_F(ConsistencyTest, DanglingCurrentReferenceIsCaught) {
  Object* obj = db_.GetMutableObject(e_);
  // officialcar is a string; plant a dangling oid into a set-valued
  // attribute of a project instead.
  Oid proj = db_.CreateObject("project").value();
  Object* p = db_.GetMutableObject(proj);
  p->SetAttribute("workplan", Value::Set({Value::OfOid(Oid{4040})}));
  EXPECT_FALSE(CheckConsistentObjectSet(db_, kNow).ok());
  (void)obj;
}

TEST_F(ConsistencyTest, PastReferenceBeyondTargetLifespanIsCaught) {
  // A participants segment referencing an object before it existed.
  ASSERT_TRUE(db_.AdvanceTo(101).ok());
  Oid late = db_.CreateObject("person").value();  // born at 101
  Oid proj = db_.CreateObject("project").value();
  Object* p = db_.GetMutableObject(proj);
  TemporalFunction f;
  ASSERT_TRUE(
      f.Define(Interval(10, 20), Value::Set({Value::OfOid(late)})).ok());
  p->SetAttribute("participants", Value::Temporal(f));
  EXPECT_FALSE(CheckReferentialIntegrityAllTime(db_).ok());
  // The instant-wise check at a healthy instant still passes.
  EXPECT_TRUE(CheckConsistentObjectSet(db_, kNow).ok());
}

TEST_F(ConsistencyTest, ExtentBeyondObjectLifespanViolates51) {
  // Kill the object without telling the extents.
  Object* obj = db_.GetMutableObject(e_);
  ASSERT_TRUE(obj->CloseLifespan(60).ok());
  Status s = CheckInvariant51(db_);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("5.1"), std::string::npos);
}

TEST_F(ConsistencyTest, ClassHistoryExtentMismatchViolates51And52) {
  // Rewrite the object's class history without updating proper extents.
  Object* obj = db_.GetMutableObject(e_);
  TemporalFunction history;
  ASSERT_TRUE(
      history.AssertFrom(0, Value::String("employee")).ok());
  obj->RestoreState(obj->lifespan(), std::move(history));
  EXPECT_FALSE(CheckInvariant51(db_).ok());
  EXPECT_FALSE(CheckInvariant52(db_).ok());
}

TEST(ExtentInvariantTest, RestoredExtentViolationsAreCaught) {
  // Hand-restored extents (as a corrupt snapshot would carry them): i1
  // lives over [5,60] and is an instance of person there, but a member
  // of person over [5,now]; it is a member of employee over [2,now] but
  // of its superclass person only over [5,now]; and it is also a member
  // of `other`, a class of another hierarchy.
  Database db;
  db.Tick(10);
  const auto extent = [](const Interval& iv) {
    TemporalFunction f;
    EXPECT_TRUE(f.Define(iv, Value::Set({Value::OfOid(Oid{1})})).ok());
    return f;
  };
  const Interval life = Interval::FromUntilNow(0);
  ClassSpec person{"person", {}, {}, {}, {}, {}};
  ClassSpec employee{"employee", {"person"}, {}, {}, {}, {}};
  ClassSpec other{"other", {}, {}, {}, {}, {}};
  ASSERT_TRUE(db.RestoreClass(person, life, extent(Interval(5, kNow)),
                              extent(Interval(5, 60)), {})
                  .ok());
  ASSERT_TRUE(db.RestoreClass(employee, life, extent(Interval(2, kNow)),
                              TemporalFunction(), {})
                  .ok());
  ASSERT_TRUE(db.RestoreClass(other, life, extent(Interval(5, kNow)),
                              TemporalFunction(), {})
                  .ok());
  TemporalFunction history;
  ASSERT_TRUE(history.Define(Interval(5, 60), Value::String("person")).ok());
  ASSERT_TRUE(db.RestoreObject(Oid{1}, Interval(5, 60), history, {}).ok());
  Status s51 = CheckInvariant51(db);
  EXPECT_NE(s51.message().find("5.1(1)"), std::string::npos) << s51;
  Status s61 = CheckInvariant61(db);
  EXPECT_NE(s61.message().find("6.1(2)"), std::string::npos) << s61;
  Status s62 = CheckInvariant62(db);
  EXPECT_NE(s62.message().find("6.2"), std::string::npos) << s62;
}

TEST_F(ConsistencyTest, PopulatedDatabaseStaysConsistent) {
  // The full random workload (updates + migrations over many steps)
  // preserves every invariant — the mutators maintain them by
  // construction.
  Database db;
  PopulationConfig config;
  config.persons = 20;
  config.projects = 5;
  config.timesteps = 15;
  config.updates_per_step = 8;
  config.migration_rate = 0.4;
  Result<Population> pop = PopulateDatabase(&db, config);
  ASSERT_TRUE(pop.ok()) << pop.status();
  EXPECT_GT(pop->migrations_applied, 0u);
  Status s = CheckDatabaseConsistency(db);
  EXPECT_TRUE(s.ok()) << s;
}

// A static object deleted and its class then dropped: Definition 5.1's
// one class-history pair of a dead static object sits at its death, so it
// stays inside the closed class lifespan at every later instant. Checked
// on the live database after every statement, and after a restart that
// replays the statements from a journal (audited, so a false violation
// would fail recovery) and one that loads a snapshot.
TEST(DeadStaticObjectTest, ClassHistoryEndsAtDeathLiveAndAfterRestart) {
  const std::vector<std::string> script = {
      "define class temp attributes x: integer end",
      "create temp (x: 1)",
      "tick",
      "delete i1",
      "tick",
      "drop class temp",
      "tick",
      "tick"};
  Database live;
  Interpreter interp(&live);
  for (const std::string& stmt : script) {
    ASSERT_TRUE(interp.Execute(stmt).ok()) << stmt;
    Status s = CheckDatabaseConsistency(live);
    EXPECT_TRUE(s.ok()) << "after `" << stmt << "`: " << s;
  }
  EXPECT_TRUE(interp.Execute("check").ok());
  const TemporalFunction history =
      live.GetObject(Oid{1})->NormalizedClassHistory(live.now());
  ASSERT_EQ(history.segment_count(), 1u);
  EXPECT_EQ(history.segments()[0].interval, Interval::At(1));

  namespace stdfs = std::filesystem;
  const stdfs::path dir =
      stdfs::temp_directory_path() / "tchimera_consistency_dead_static";
  std::error_code ec;
  stdfs::remove_all(dir, ec);
  stdfs::create_directories(dir, ec);
  const std::string snapshot = (dir / "snapshot.tchdb").string();
  const std::string journal_path = (dir / "journal.tchl").string();
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(journal_path).ok());
    for (const std::string& stmt : script) {
      ASSERT_TRUE(journal.Append(stmt).ok());
    }
    journal.Close();
  }
  RecoveryStats stats;
  Result<std::unique_ptr<Database>> replayed =
      RecoveryManager(snapshot, journal_path).Recover(&stats);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(stats.statements_applied, script.size());
  EXPECT_EQ(stats.quarantined_objects, 0u);
  ASSERT_NE((*replayed)->GetObject(Oid{1}), nullptr);
  EXPECT_TRUE(CheckDatabaseConsistency(**replayed).ok());
  EXPECT_EQ(DatabaseStateHash(**replayed).value(),
            DatabaseStateHash(live).value());

  // The same state restored from a snapshot alone.
  stdfs::remove(journal_path, ec);
  ASSERT_TRUE(SaveDatabaseToFile(live, snapshot).ok());
  Result<std::unique_ptr<Database>> loaded =
      RecoveryManager(snapshot, journal_path).Recover();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(CheckDatabaseConsistency(**loaded).ok());
  EXPECT_EQ(DatabaseStateHash(**loaded).value(),
            DatabaseStateHash(live).value());
  stdfs::remove_all(dir, ec);
}

}  // namespace
}  // namespace tchimera
