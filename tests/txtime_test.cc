// Transaction-time travel via journal prefix replay (the "different
// notions of time" extension of Section 1.1, built on the write-ahead
// journal): reconstructing the database as of transaction n, and the
// valid-time/transaction-time distinction it exposes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "query/interpreter.h"
#include "storage/journal.h"

namespace tchimera {
namespace {

// Replays each journaled statement into `db` through an Interpreter.
StatementExecutor Apply(Database* db) {
  return [interp = Interpreter(db)](const std::string& statement) mutable {
    return interp.Execute(statement).status();
  };
}

class TxTimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             "tchimera_txtime_test.tql")
                .string();
    std::ofstream out(path_, std::ios::trunc);
    // tx 1-2: schema + hire at valid time 0.
    out << "define class worker attributes salary: temporal(integer) "
           "end\n";
    out << "create worker (salary: 100)\n";
    // tx 3-4: time passes, a raise at valid time 10.
    out << "advance to 10\n";
    out << "update i1 set salary = 200\n";
    // tx 5: a *retroactive* correction recorded later: the raise was
    // really 150, effective from valid time 10.
    out << "update i1 set salary = 150 during [10,now]\n";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::unique_ptr<Database> AsOfTransaction(size_t n) {
    auto db = std::make_unique<Database>();
    Result<size_t> applied = Journal::ReplayPrefix(path_, Apply(db.get()), n);
    EXPECT_TRUE(applied.ok()) << applied.status();
    return db;
  }

  int64_t SalaryAt(const Database& db, TimePoint t) {
    Result<Value> h = db.HStateOf(Oid{1}, t);
    EXPECT_TRUE(h.ok()) << h.status();
    return h->FieldValue("salary")->AsInteger();
  }

  std::string path_;
};

TEST_F(TxTimeTest, PrefixReplayReconstructsAsOfTransaction) {
  // As of tx 2: only the hire exists; clock at 0.
  auto tx2 = AsOfTransaction(2);
  EXPECT_EQ(tx2->now(), 0);
  EXPECT_EQ(SalaryAt(*tx2, 0), 100);
  // As of tx 4: the raise to 200 is believed.
  auto tx4 = AsOfTransaction(4);
  EXPECT_EQ(tx4->now(), 10);
  EXPECT_EQ(SalaryAt(*tx4, 10), 200);
  // As of tx 5: history has been corrected retroactively.
  auto tx5 = AsOfTransaction(5);
  EXPECT_EQ(SalaryAt(*tx5, 10), 150);
}

TEST_F(TxTimeTest, BitemporalDistinction) {
  // The bitemporal question: "what did we *believe at transaction 4* the
  // salary was at valid time 10?" vs "what do we believe *now*?". The
  // valid-time instant is the same; the answers differ because belief
  // changed at tx 5.
  auto believed_then = AsOfTransaction(4);
  auto believed_now = AsOfTransaction(999);
  EXPECT_EQ(SalaryAt(*believed_then, 10), 200);
  EXPECT_EQ(SalaryAt(*believed_now, 10), 150);
  // Valid-time history *before* the corrected interval is stable across
  // transaction time.
  EXPECT_EQ(SalaryAt(*believed_then, 5), 100);
  EXPECT_EQ(SalaryAt(*believed_now, 5), 100);
}

TEST_F(TxTimeTest, ReplayCountIsExact) {
  Database db;
  EXPECT_EQ(Journal::ReplayPrefix(path_, Apply(&db), 0).value(), 0u);
  Database db2;
  EXPECT_EQ(Journal::ReplayPrefix(path_, Apply(&db2), 3).value(), 3u);
  Database db3;
  EXPECT_EQ(Journal::ReplayPrefix(path_, Apply(&db3), 999).value(), 5u);
}

}  // namespace
}  // namespace tchimera
