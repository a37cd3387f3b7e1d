// Transaction-time travel via journal prefix replay (the "different
// notions of time" extension of Section 1.1, built on the write-ahead
// journal): the first n statements of ScanJournal, run through an
// ActiveDatabase, reconstruct the database as of transaction n, and
// expose the valid-time/transaction-time distinction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "storage/journal.h"
#include "triggers/trigger.h"

namespace tchimera {
namespace {

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
    Result<JournalScan> scan = ScanJournal(path_);
    EXPECT_TRUE(scan.ok()) << scan.status();
    if (!scan.ok()) return db;
    ActiveDatabase active(db.get());
    for (size_t i = 0; i < std::min(n, scan->statements.size()); ++i) {
      Result<std::string> applied = active.Execute(scan->statements[i]);
      EXPECT_TRUE(applied.ok()) << scan->statements[i] << ": "
                                << applied.status();
    }
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

TEST_F(TxTimeTest, TriggerDefinitionsReplayAsOfTransaction) {
  // A journal that defines a trigger: its effect is part of the state as
  // of the create that fired it, and absent before.
  std::ofstream out(path_, std::ios::trunc);
  out << "define class worker attributes salary: temporal(integer) end\n";
  out << "trigger raise on create of worker do "
         "update $self set salary = 500\n";
  out << "create worker (salary: 100)\n";
  out.close();
  auto before = AsOfTransaction(2);
  EXPECT_EQ(before->object_count(), 0u);
  auto after = AsOfTransaction(3);
  ASSERT_EQ(after->object_count(), 1u);
  EXPECT_EQ(SalaryAt(*after, 0), 500);
}

}  // namespace
}  // namespace tchimera
