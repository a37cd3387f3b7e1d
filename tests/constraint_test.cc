// Tests for temporal integrity constraints (the Section 7 future-work
// language): parsing, the four quantification modes, piecewise-exact
// evaluation over histories, and the registry.
#include <gtest/gtest.h>

#include "constraints/constraint.h"
#include "triggers/trigger.h"
#include "workload/project_schema.h"

namespace tchimera {
namespace {

Value I(int64_t v) { return Value::Integer(v); }

class ConstraintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(InstallProjectSchema(&db_).ok());
    ann_ = db_.CreateObject("employee",
                            {{"name", Value::String("Ann")},
                             {"birthyear", I(1970)},
                             {"salary", I(48000)},
                             {"office", Value::String("A1")}})
               .value();
  }

  Status Check(const char* text) {
    Result<TemporalConstraint> c = TemporalConstraint::Parse(text);
    if (!c.ok()) return c.status();
    return c->Check(db_);
  }

  Database db_;
  Oid ann_;
};

TEST_F(ConstraintTest, Parsing) {
  EXPECT_TRUE(TemporalConstraint::Parse(
                  "constraint c1 on employee always x.salary > 0")
                  .ok());
  EXPECT_TRUE(TemporalConstraint::Parse(
                  "constraint c2 on employee sometime x.salary > 100")
                  .ok());
  EXPECT_TRUE(TemporalConstraint::Parse(
                  "constraint c3 on employee nondecreasing salary")
                  .ok());
  EXPECT_TRUE(TemporalConstraint::Parse(
                  "constraint c4 on person immutable name")
                  .ok());
  EXPECT_FALSE(TemporalConstraint::Parse("nonsense").ok());
  EXPECT_FALSE(
      TemporalConstraint::Parse("constraint c on employee never x").ok());
  EXPECT_FALSE(TemporalConstraint::Parse(
                   "constraint c on employee always )bad(")
                   .ok());
  EXPECT_FALSE(TemporalConstraint::Parse(
                   "constraint c on employee nondecreasing 9bad")
                   .ok());
  // Round-trip printing.
  TemporalConstraint c =
      TemporalConstraint::Parse(
          "constraint pay on employee nondecreasing salary")
          .value();
  EXPECT_EQ(c.ToString(),
            "constraint pay on employee nondecreasing salary");
}

// The facade folds the registered constraints into `check` however the
// statement is spelled: it routes on the parsed kind, not on the text.
TEST_F(ConstraintTest, CheckEvaluatesConstraintsForEverySpelling) {
  ActiveDatabase active(&db_);
  ASSERT_TRUE(
      active.Execute("constraint pay on employee nondecreasing salary").ok());
  const char* spellings[] = {"check", "check;", "  CHECK ;",
                             "-- audit\ncheck"};
  for (const char* spelling : spellings) {
    Result<std::string> out = active.Execute(spelling);
    ASSERT_TRUE(out.ok()) << spelling << ": " << out.status();
    EXPECT_EQ(*out, "consistent (and 1 temporal constraints hold)")
        << spelling;
  }
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(db_.UpdateAttribute(ann_, "salary", I(1000)).ok());
  Status reference = active.Execute("check").status();
  ASSERT_FALSE(reference.ok());
  for (const char* spelling : spellings) {
    Status s = active.Execute(spelling).status();
    EXPECT_EQ(s.code(), reference.code()) << spelling;
    EXPECT_EQ(s.message(), reference.message()) << spelling;
  }
}

TEST_F(ConstraintTest, AlwaysHoldsOverWholeHistory) {
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(db_.UpdateAttribute(ann_, "salary", I(61000)).ok());
  EXPECT_TRUE(Check("constraint pos on employee always x.salary > 0").ok());
  // A violation hidden in the *past* is still found: the current salary
  // satisfies the condition, an old segment does not.
  ASSERT_TRUE(db_.AdvanceTo(20).ok());
  ASSERT_TRUE(
      db_.UpdateAttributeAt(ann_, "salary", Interval(5, 7), I(-1)).ok());
  Status s = Check("constraint pos on employee always x.salary > 0");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kConsistencyViolation);
  EXPECT_NE(s.message().find("instant 5"), std::string::npos);
}

TEST_F(ConstraintTest, SometimeNeedsOneWitness) {
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(db_.UpdateAttribute(ann_, "salary", I(70000)).ok());
  EXPECT_TRUE(
      Check("constraint rich on employee sometime x.salary > 69000").ok());
  Status s =
      Check("constraint richer on employee sometime x.salary > 90000");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("never held"), std::string::npos);
}

TEST_F(ConstraintTest, NondecreasingSalary) {
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(db_.UpdateAttribute(ann_, "salary", I(61000)).ok());
  ASSERT_TRUE(db_.AdvanceTo(20).ok());
  ASSERT_TRUE(db_.UpdateAttribute(ann_, "salary", I(61000)).ok());
  EXPECT_TRUE(
      Check("constraint pay on employee nondecreasing salary").ok());
  ASSERT_TRUE(db_.AdvanceTo(30).ok());
  ASSERT_TRUE(db_.UpdateAttribute(ann_, "salary", I(50000)).ok());
  Status s = Check("constraint pay on employee nondecreasing salary");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("decreased"), std::string::npos);
}

TEST_F(ConstraintTest, ImmutableAttribute) {
  EXPECT_TRUE(Check("constraint nm on person immutable name").ok());
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(
      db_.UpdateAttribute(ann_, "name", Value::String("Anna")).ok());
  Status s = Check("constraint nm on person immutable name");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("immutable"), std::string::npos);
  // Immutability of a *non-temporal* attribute is undecidable (no
  // history): a type error, not a silent pass.
  Status st = Check("constraint off on employee immutable office");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kTypeError);
}

TEST_F(ConstraintTest, ConstraintsFollowSubclassMembership) {
  // A constraint on `person` also covers employees (members, not just
  // instances).
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(
      db_.UpdateAttribute(ann_, "name", Value::String("Anna")).ok());
  Status s = Check("constraint nm on person immutable name");
  EXPECT_FALSE(s.ok());
  // Objects that were never members are not checked.
  EXPECT_TRUE(Check("constraint t on task immutable effort").ok());
}

TEST_F(ConstraintTest, TypeErrorsAreReported) {
  Status s = Check("constraint bad on employee always x.salary + 1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
  s = Check("constraint bad on employee always x.ghost = 1");
  EXPECT_FALSE(s.ok());
  s = Check("constraint bad on ghost always true");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(ConstraintTest, RegistryCollectsAllViolations) {
  ConstraintRegistry registry;
  ASSERT_TRUE(registry
                  .Define("constraint pos on employee always x.salary > 0")
                  .ok());
  ASSERT_TRUE(
      registry.Define("constraint nm on person immutable name").ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_FALSE(
      registry.Define("constraint pos on task always true").ok());  // dup
  EXPECT_TRUE(registry.CheckAll(db_).ok());
  // Break both; CheckAll reports both.
  ASSERT_TRUE(db_.AdvanceTo(10).ok());
  ASSERT_TRUE(
      db_.UpdateAttribute(ann_, "name", Value::String("Anna")).ok());
  ASSERT_TRUE(
      db_.UpdateAttributeAt(ann_, "salary", Interval(3, 4), I(-5)).ok());
  Status s = registry.CheckAll(db_);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("pos"), std::string::npos);
  EXPECT_NE(s.message().find("nm"), std::string::npos);
  // Per-object incremental check.
  EXPECT_FALSE(registry.CheckObject(db_, ann_).ok());
  ASSERT_TRUE(registry.Drop("pos").ok());
  ASSERT_TRUE(registry.Drop("nm").ok());
  EXPECT_TRUE(registry.CheckAll(db_).ok());
  EXPECT_FALSE(registry.Drop("ghost").ok());
}

}  // namespace
}  // namespace tchimera
