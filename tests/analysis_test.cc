// Tests for the static-analysis subsystem (src/analysis/): the
// diagnostics engine and its JSON round-trip, the schema analyzer (TC0xx)
// and the query analyzer (TC1xx). Every diagnostic code has at least one
// positive fixture (the code fires) and a negative counterpart (the clean
// variant stays clean).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostic.h"
#include "analysis/fixer.h"
#include "analysis/lint_driver.h"
#include "analysis/query_analyzer.h"
#include "analysis/schema_analyzer.h"
#include "core/db/database.h"
#include "core/types/type_parser.h"
#include "query/interpreter.h"
#include "query/parser.h"

namespace tchimera {
namespace {

// Runs the full lint pipeline (schema pass + replay with query lint) the
// same way the tchimera_lint CLI does.
std::vector<Diagnostic> Lint(const std::string& script) {
  DiagnosticEngine diags;
  LintTqlScript(script, LintOptions{}, &diags);
  return diags.diagnostics();
}

// Schema-only variant (no replay: no TC11x executions).
std::vector<Diagnostic> LintSchema(const std::string& script) {
  DiagnosticEngine diags;
  LintOptions options;
  options.schema_only = true;
  LintTqlScript(script, options, &diags);
  return diags.diagnostics();
}

size_t Count(const std::vector<Diagnostic>& ds, std::string_view code) {
  size_t n = 0;
  for (const Diagnostic& d : ds) {
    if (d.code == code) ++n;
  }
  return n;
}

bool Has(const std::vector<Diagnostic>& ds, std::string_view code) {
  return Count(ds, code) > 0;
}

std::string Messages(const std::vector<Diagnostic>& ds) {
  std::string out;
  for (const Diagnostic& d : ds) {
    out += d.code + ": " + d.message + "\n";
  }
  return out;
}

#define EXPECT_CODE(ds, code) \
  EXPECT_TRUE(Has(ds, code)) << "expected " code " in:\n" << Messages(ds)
#define EXPECT_NO_CODE(ds, code) \
  EXPECT_FALSE(Has(ds, code)) << "unexpected " code " in:\n" << Messages(ds)

#define EXPECT_CLEAN(ds) \
  EXPECT_TRUE((ds).empty()) << "expected no findings, got:\n" << Messages(ds)

// --- TC001: ISA cycles ----------------------------------------------------

TEST(SchemaAnalyzer, IsaCycleDetected) {
  auto ds = LintSchema(
      "define class a under b end;"
      "define class b under a end");
  EXPECT_CODE(ds, "TC001");
}

TEST(SchemaAnalyzer, SelfCycleDetected) {
  auto ds = LintSchema("define class a under a end");
  EXPECT_CODE(ds, "TC001");
}

TEST(SchemaAnalyzer, LinearHierarchyHasNoCycle) {
  auto ds = LintSchema(
      "define class a end;"
      "define class b under a end;"
      "define class c under b end");
  EXPECT_CLEAN(ds);
}

// --- TC002: unknown superclass --------------------------------------------

TEST(SchemaAnalyzer, UnknownSuperclassReported) {
  auto ds = LintSchema("define class a under ghost end");
  EXPECT_CODE(ds, "TC002");
}

TEST(SchemaAnalyzer, ForwardReferencedSuperclassIsFine) {
  // The dynamic layer would reject this ordering; the static analyzer
  // sees the whole schema document at once.
  auto ds = LintSchema(
      "define class a under b end;"
      "define class b end");
  EXPECT_CLEAN(ds);
}

// --- TC003: Rule 6.1 domain refinement ------------------------------------

TEST(SchemaAnalyzer, IllegalRefinementReported) {
  auto ds = LintSchema(
      "define class person attributes name: string end;"
      "define class employee under person attributes name: integer end");
  EXPECT_CODE(ds, "TC003");
}

TEST(SchemaAnalyzer, SubtypeRefinementIsLegal) {
  auto ds = LintSchema(
      "define class animal end;"
      "define class dog under animal end;"
      "define class owner attributes pet: animal end;"
      "define class dogowner under owner attributes pet: dog end");
  EXPECT_CLEAN(ds);
}

// --- TC004: temporal demotion ---------------------------------------------

TEST(SchemaAnalyzer, TemporalDemotionReported) {
  auto ds = LintSchema(
      "define class person attributes score: temporal(integer) end;"
      "define class student under person attributes score: integer end");
  EXPECT_CODE(ds, "TC004");
  EXPECT_NO_CODE(ds, "TC003");  // the specialized code wins
}

TEST(SchemaAnalyzer, TemporalPromotionIsLegal) {
  // Rule 6.1 clause 2: a non-temporal domain may become temporal.
  auto ds = LintSchema(
      "define class person attributes score: integer end;"
      "define class student under person "
      "attributes score: temporal(integer) end");
  EXPECT_CLEAN(ds);
}

// --- TC005: diamond-inheritance conflicts ---------------------------------

TEST(SchemaAnalyzer, DiamondConflictReported) {
  auto ds = LintSchema(
      "define class a attributes x: integer end;"
      "define class b attributes x: string end;"
      "define class c under a, b end");
  EXPECT_CODE(ds, "TC005");
}

TEST(SchemaAnalyzer, DiamondKindMismatchMentionsTemporal) {
  auto ds = LintSchema(
      "define class a attributes x: temporal(integer) end;"
      "define class b attributes x: integer end;"
      "define class c under a, b end");
  ASSERT_TRUE(Has(ds, "TC005")) << Messages(ds);
  bool mentioned = false;
  for (const Diagnostic& d : ds) {
    if (d.code == "TC005" &&
        d.message.find("temporal vs non-temporal") != std::string::npos) {
      mentioned = true;
    }
  }
  EXPECT_TRUE(mentioned) << Messages(ds);
}

TEST(SchemaAnalyzer, DiamondWithAgreeingDomainsIsFine) {
  auto ds = LintSchema(
      "define class a attributes x: integer end;"
      "define class b attributes x: integer end;"
      "define class c under a, b end");
  EXPECT_CLEAN(ds);
}

// --- TC006: dangling class-typed domains ----------------------------------

TEST(SchemaAnalyzer, DanglingDomainReported) {
  auto ds = LintSchema(
      "define class owner attributes pet: dog end");
  EXPECT_CODE(ds, "TC006");
}

TEST(SchemaAnalyzer, DanglingDomainInsideConstructorReported) {
  auto ds = LintSchema(
      "define class owner attributes pets: temporal(set-of(dog)) end");
  EXPECT_CODE(ds, "TC006");
}

TEST(SchemaAnalyzer, DomainDefinedLaterInScriptIsFine) {
  auto ds = LintSchema(
      "define class owner attributes pet: dog end;"
      "define class dog end");
  EXPECT_CLEAN(ds);
}

// --- TC007: duplicate attribute -------------------------------------------

TEST(SchemaAnalyzer, DuplicateAttributeReported) {
  auto ds = LintSchema(
      "define class a attributes x: integer, x: integer end");
  EXPECT_CODE(ds, "TC007");
}

TEST(SchemaAnalyzer, DistinctAttributesAreFine) {
  auto ds = LintSchema(
      "define class a attributes x: integer, y: integer end");
  EXPECT_CLEAN(ds);
}

// --- TC008: duplicate class -----------------------------------------------

TEST(SchemaAnalyzer, DuplicateClassReported) {
  auto ds = LintSchema(
      "define class a end;"
      "define class a attributes x: integer end");
  EXPECT_CODE(ds, "TC008");
}

TEST(SchemaAnalyzer, DistinctClassesAreFine) {
  auto ds = LintSchema(
      "define class a end;"
      "define class b end");
  EXPECT_CLEAN(ds);
}

// --- TC009: method refinement ---------------------------------------------

TEST(SchemaAnalyzer, CovarianceViolationReported) {
  // Inherited result type dog; redefined to the *super*type animal.
  auto ds = LintSchema(
      "define class animal end;"
      "define class dog under animal end;"
      "define class owner methods pick(): dog end;"
      "define class sub under owner methods pick(): animal end");
  EXPECT_CODE(ds, "TC009");
}

TEST(SchemaAnalyzer, ContravarianceViolationReported) {
  // Inherited input type animal; redefined to the narrower dog.
  auto ds = LintSchema(
      "define class animal end;"
      "define class dog under animal end;"
      "define class owner methods feed(animal): bool end;"
      "define class sub under owner methods feed(dog): bool end");
  EXPECT_CODE(ds, "TC009");
}

TEST(SchemaAnalyzer, LegalMethodRefinementIsFine) {
  // Covariant result, contravariant input.
  auto ds = LintSchema(
      "define class animal end;"
      "define class dog under animal end;"
      "define class owner methods pick(dog): animal end;"
      "define class sub under owner methods pick(animal): dog end");
  EXPECT_CLEAN(ds);
}

// --- incremental mode (interpreter wiring) --------------------------------

TEST(SchemaAnalyzer, AnalyzesSpecAgainstLiveDatabase) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(
      interp.Execute("define class person attributes name: string end").ok());

  ClassSpec spec;
  spec.name = "employee";
  spec.superclasses = {"person"};
  Result<const Type*> bad = ParseType("integer");
  ASSERT_TRUE(bad.ok());
  spec.attributes = {{"name", *bad}};
  DiagnosticEngine diags;
  AnalyzeClassSpec(spec, 0, &db, &diags);
  EXPECT_CODE(diags.diagnostics(), "TC003");
}

// --- TC012: extents vs (superclass) lifespans ------------------------------

TEST(SchemaAnalyzer, DeadSuperclassReportedTC012) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute("define class person end").ok());
  db.Tick();
  ASSERT_TRUE(db.DropClass("person").ok());

  ClassSpec spec;
  spec.name = "employee";
  spec.superclasses = {"person"};
  DiagnosticEngine diags;
  AnalyzeClassSpec(spec, 0, &db, &diags);
  EXPECT_CODE(diags.diagnostics(), "TC012");
}

TEST(SchemaAnalyzer, LiveSuperclassHasNoTC012) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute("define class person end").ok());

  ClassSpec spec;
  spec.name = "employee";
  spec.superclasses = {"person"};
  DiagnosticEngine diags;
  AnalyzeClassSpec(spec, 0, &db, &diags);
  EXPECT_NO_CODE(diags.diagnostics(), "TC012");
}

TEST(SchemaAnalyzer, ExtentOutsideOwnLifespanReportedTC012) {
  // Hand-restored state (RestoreClass bypasses the dynamic validation,
  // like a corrupt or hand-edited snapshot would): ext defined over
  // [0,20] while the class lifespan is [5,10] — Invariant 5.1 violated.
  Database db;
  db.Tick(30);
  ClassSpec spec;
  spec.name = "person";
  TemporalFunction ext;
  ASSERT_TRUE(ext.Define(Interval(0, 20), Value::EmptySet()).ok());
  ASSERT_TRUE(
      db.RestoreClass(spec, Interval(5, 10), ext, TemporalFunction(), {})
          .ok());

  DiagnosticEngine diags;
  AnalyzeSchema({}, &db, &diags);
  EXPECT_CODE(diags.diagnostics(), "TC012");
}

TEST(SchemaAnalyzer, ExtentOutsideSuperclassLifespanReportedTC012) {
  // The subclass's own lifespan covers its extent; the escape is only
  // relative to the superclass lifespan (Invariant 6.1 lifts 5.1 up the
  // hierarchy).
  Database db;
  db.Tick(30);
  ClassSpec super_spec;
  super_spec.name = "person";
  TemporalFunction super_ext;
  ASSERT_TRUE(super_ext.Define(Interval(0, 5), Value::EmptySet()).ok());
  ASSERT_TRUE(db.RestoreClass(super_spec, Interval(0, 5), super_ext,
                              TemporalFunction(), {})
                  .ok());

  ClassSpec sub_spec;
  sub_spec.name = "employee";
  sub_spec.superclasses = {"person"};
  TemporalFunction sub_ext;
  ASSERT_TRUE(sub_ext.Define(Interval(0, 20), Value::EmptySet()).ok());
  ASSERT_TRUE(db.RestoreClass(sub_spec, Interval(0, 20), sub_ext,
                              TemporalFunction(), {})
                  .ok());

  DiagnosticEngine diags;
  AnalyzeSchema({}, &db, &diags);
  EXPECT_CODE(diags.diagnostics(), "TC012");
}

TEST(SchemaAnalyzer, LegitimateExtentsHaveNoTC012) {
  // State grown through the validated mutation path always satisfies the
  // invariants, including after membership churn.
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp.Execute("define class person end").ok());
  ASSERT_TRUE(interp.Execute("define class employee under person end").ok());
  Result<Oid> oid = db.CreateObject("employee");
  ASSERT_TRUE(oid.ok()) << oid.status();
  db.Tick(3);
  ASSERT_TRUE(db.DeleteObject(*oid).ok());

  DiagnosticEngine diags;
  AnalyzeSchema({}, &db, &diags);
  EXPECT_CLEAN(diags.diagnostics());
}

// --- TC013: c-attribute shadowing ------------------------------------------

TEST(SchemaAnalyzer, CAttributeRedefinedInSubclassReported) {
  // The subclass's own c-attribute slot detaches from the superclass's
  // shared value — almost never what the schema author meant.
  auto ds = LintSchema(
      "define class person c-attributes population: integer end;"
      "define class employee under person "
      "c-attributes population: integer end");
  EXPECT_CODE(ds, "TC013");
}

TEST(SchemaAnalyzer, InstanceAttributeShadowingCAttributeReported) {
  auto ds = LintSchema(
      "define class person c-attributes population: integer end;"
      "define class employee under person "
      "attributes population: integer end");
  EXPECT_CODE(ds, "TC013");
}

TEST(SchemaAnalyzer, CAttributeShadowingInstanceAttributeReported) {
  auto ds = LintSchema(
      "define class person attributes name: string end;"
      "define class employee under person c-attributes name: string end");
  EXPECT_CODE(ds, "TC013");
}

TEST(SchemaAnalyzer, DistinctCAttributeNamesHaveNoTC013) {
  auto ds = LintSchema(
      "define class person "
      "attributes name: string c-attributes population: integer end;"
      "define class employee under person "
      "attributes salary: integer c-attributes headcount: integer end");
  EXPECT_NO_CODE(ds, "TC013");
}

TEST(SchemaAnalyzer, UnrelatedClassesMayReuseCAttributeNames) {
  // Shadowing is an inheritance hazard; sibling classes sharing a name
  // are fine.
  auto ds = LintSchema(
      "define class person c-attributes population: integer end;"
      "define class city c-attributes population: integer end");
  EXPECT_NO_CODE(ds, "TC013");
}

// --- TC010 / TC111: driver-level findings ---------------------------------

TEST(LintDriver, ParseErrorReported) {
  auto ds = Lint("selec x from x in a");
  EXPECT_CODE(ds, "TC010");
}

TEST(LintDriver, ParsableScriptHasNoParseError) {
  auto ds = Lint("define class a end");
  EXPECT_NO_CODE(ds, "TC010");
}

TEST(LintDriver, FailedStatementReported) {
  auto ds = Lint("update i99 set x = 1");
  EXPECT_CODE(ds, "TC111");
}

TEST(LintDriver, CleanScriptStaysClean) {
  auto ds = Lint(
      "define class employee attributes salary: temporal(integer) end;"
      "create employee (salary: 48000);"
      "tick 5;"
      "select x from x in employee where x.salary > 40000;"
      "when i1.salary > 40000;"
      "check");
  EXPECT_CLEAN(ds);
}

// --- TC112: index DDL validation ------------------------------------------

TEST(QueryAnalyzer, IndexOnUnknownClassReportedTC112) {
  auto ds = Lint("create index iv on nosuch (v)");
  EXPECT_CODE(ds, "TC112");
  // The analyzer claimed the statement: replay must not pile a TC111
  // execution failure on top of it.
  EXPECT_NO_CODE(ds, "TC111");
}

TEST(QueryAnalyzer, IndexOnMissingAttributeReportedTC112) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "create index iv on a (w)");
  EXPECT_CODE(ds, "TC112");
}

TEST(QueryAnalyzer, DuplicateIndexNameReportedTC112) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "create index iv on a (v);"
      "create index iv on a (v)");
  EXPECT_CODE(ds, "TC112");
}

TEST(QueryAnalyzer, DropOfUnknownIndexReportedTC112) {
  auto ds = Lint("drop index nosuch");
  EXPECT_CODE(ds, "TC112");
}

TEST(QueryAnalyzer, ValidIndexDdlIsClean) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "create a (v: 1);"
      "create index iv on a (v);"
      "create index la on a lifespan;"
      "select x from x in a where x.v = 1;"
      "drop index iv");
  EXPECT_CLEAN(ds);
}

// --- TC101: unused binder -------------------------------------------------

TEST(QueryAnalyzer, UnusedBinderReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select 1 from x in a");
  EXPECT_CODE(ds, "TC101");
}

TEST(QueryAnalyzer, UnusedSecondBinderReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a, y in a");
  EXPECT_EQ(Count(ds, "TC101"), 1u) << Messages(ds);
}

TEST(QueryAnalyzer, UsedBindersAreFine) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a, y in a where x.v < y.v");
  EXPECT_CLEAN(ds);
}

// --- TC102: projection outside the class lifespan -------------------------

TEST(QueryAnalyzer, ProjectionBeforeClassExistsReported) {
  auto ds = Lint(
      "tick 5;"
      "define class a attributes v: temporal(integer) end;"
      "select x.v @ 2 from x in a");
  EXPECT_CODE(ds, "TC102");
}

TEST(QueryAnalyzer, ProjectionWithinLifespanIsFine) {
  auto ds = Lint(
      "tick 5;"
      "define class a attributes v: temporal(integer) end;"
      "tick 5;"
      "select x.v @ 7 from x in a");
  EXPECT_NO_CODE(ds, "TC102");
}

// --- TC103: redundant projection ------------------------------------------

TEST(QueryAnalyzer, ExplicitAtNowIsRedundant) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "select x.v @ now from x in a");
  EXPECT_CODE(ds, "TC103");
}

TEST(QueryAnalyzer, AtMatchingQueryInstantIsRedundant) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 20;"
      "select x.v @ 15 from x in a at 15");
  EXPECT_CODE(ds, "TC103");
}

TEST(QueryAnalyzer, AtOnStaticAttributeIsNoOp) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x.v @ now from x in a");
  EXPECT_CODE(ds, "TC103");
}

TEST(QueryAnalyzer, DistinctProjectionInstantIsMeaningful) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 20;"
      "select x.v @ 10 from x in a at 15");
  EXPECT_NO_CODE(ds, "TC103");
}

// --- TC104: statically unsatisfiable predicates ---------------------------

TEST(QueryAnalyzer, ConstantFalseWhereReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where 1 > 2");
  EXPECT_CODE(ds, "TC104");
}

TEST(QueryAnalyzer, NullComparisonReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v = null");
  EXPECT_CODE(ds, "TC104");
}

TEST(QueryAnalyzer, EmptyMembershipReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v in {}");
  EXPECT_CODE(ds, "TC104");
}

TEST(QueryAnalyzer, FalseConjunctReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v > 0 and 2 < 1");
  EXPECT_CODE(ds, "TC104");
}

TEST(QueryAnalyzer, SatisfiablePredicateIsFine) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v > 0");
  EXPECT_CLEAN(ds);
}

TEST(QueryAnalyzer, WhenConditionNeverHoldsReported) {
  auto ds = Lint("when 1 > 2");
  EXPECT_CODE(ds, "TC104");
}

// --- TC105: statically true predicates ------------------------------------

TEST(QueryAnalyzer, ConstantTrueWhereReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where 1 < 2");
  EXPECT_CODE(ds, "TC105");
}

TEST(QueryAnalyzer, TrueConjunctReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v > 0 and 1 < 2");
  EXPECT_CODE(ds, "TC105");
}

TEST(QueryAnalyzer, TrueDisjunctReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v > 0 or 1 < 2");
  EXPECT_CODE(ds, "TC105");
}

TEST(QueryAnalyzer, NonTrivialPredicateIsFine) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x from x in a where x.v > 0 or x.v < -10");
  EXPECT_CLEAN(ds);
}

// --- TC106: statically empty update windows -------------------------------

TEST(QueryAnalyzer, InvertedUpdateWindowReported) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "update i1 set v = 2 during [7,3]");
  EXPECT_CODE(ds, "TC106");
}

TEST(QueryAnalyzer, ProperUpdateWindowIsFine) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "update i1 set v = 2 during [3,7];"
      "update i1 set v = 3 during [8,8]");
  EXPECT_NO_CODE(ds, "TC106");
}

TEST(QueryAnalyzer, NowBoundedWindowNotFlagged) {
  // [5,now] is empty only if the clock is behind 5 — not statically known.
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "update i1 set v = 2 during [5,now]");
  EXPECT_NO_CODE(ds, "TC106");
}

// --- TC109: statically empty when/history windows --------------------------

TEST(QueryAnalyzer, InvertedWhenWindowReported) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "when i1.v = 1 during [7,3]");
  EXPECT_CODE(ds, "TC109");
}

TEST(QueryAnalyzer, InvertedHistoryWindowReported) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "history i1.v during [7,3]");
  EXPECT_CODE(ds, "TC109");
}

TEST(QueryAnalyzer, ProperQueryWindowsHaveNoTC109) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "when i1.v = 1 during [3,7];"
      "history i1.v during [8,8]");
  EXPECT_NO_CODE(ds, "TC109");
}

TEST(QueryAnalyzer, NowBoundedQueryWindowNotFlagged) {
  // [5,now] is empty only if the clock is behind 5 — not statically known.
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "when i1.v = 1 during [5,now];"
      "history i1.v during [5,now]");
  EXPECT_NO_CODE(ds, "TC109");
}

TEST(QueryAnalyzer, WindowCheckFiresEvenWhenConditionHasTypeError) {
  // TC109 is reported before type checking: an unrelated TC110 in the
  // condition must not mask the empty window.
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 9;"
      "create a at 0 (v: 1);"
      "when i1.v = 1 and i1.nope = 2 during [7,3]");
  EXPECT_CODE(ds, "TC109");
}

// --- TC107: snapshot outside the object lifespan --------------------------

TEST(QueryAnalyzer, SnapshotBeforeObjectLifespanReported) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 5;"
      "create a (v: 1);"
      "snapshot i1 at 2");
  EXPECT_CODE(ds, "TC107");
}

TEST(QueryAnalyzer, SnapshotAfterDeletedObjectReported) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "create a (v: 1);"
      "tick 5;"
      "delete i1;"
      "tick 5;"
      "snapshot i1 at 9");
  EXPECT_CODE(ds, "TC107");
}

TEST(QueryAnalyzer, SnapshotWithinLifespanIsFine) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "tick 5;"
      "create a (v: 1);"
      "tick 5;"
      "snapshot i1 at 7;"
      "snapshot i1");
  EXPECT_NO_CODE(ds, "TC107");
}

// --- TC108: history of a non-temporal attribute ---------------------------

TEST(QueryAnalyzer, HistoryOfNonTemporalAttributeReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "create a (v: 1);"
      "history i1.v");
  EXPECT_CODE(ds, "TC108");
}

TEST(QueryAnalyzer, HistoryOfTemporalAttributeIsFine) {
  auto ds = Lint(
      "define class a attributes v: temporal(integer) end;"
      "create a (v: 1);"
      "history i1.v");
  EXPECT_NO_CODE(ds, "TC108");
}

// --- TC110: type errors ---------------------------------------------------

TEST(QueryAnalyzer, TypeErrorReported) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x.nope from x in a");
  EXPECT_CODE(ds, "TC110");
}

TEST(QueryAnalyzer, WellTypedQueryHasNoTypeError) {
  auto ds = Lint(
      "define class a attributes v: integer end;"
      "select x.v from x in a");
  EXPECT_NO_CODE(ds, "TC110");
}

// --- the diagnostics engine -----------------------------------------------

TEST(DiagnosticEngine, RegistryHasStableMetadata) {
  const std::vector<DiagnosticInfo>& infos = AllDiagnosticInfos();
  ASSERT_FALSE(infos.empty());
  for (size_t i = 1; i < infos.size(); ++i) {
    EXPECT_LT(std::string(infos[i - 1].code), std::string(infos[i].code))
        << "codes must stay sorted";
  }
  for (const DiagnosticInfo& info : infos) {
    EXPECT_NE(std::string(info.title), "");
    EXPECT_NE(std::string(info.paper_ref), "");
    EXPECT_EQ(FindDiagnosticInfo(info.code), &info);
  }
  EXPECT_EQ(FindDiagnosticInfo("TC999"), nullptr);
}

TEST(DiagnosticEngine, ReportUsesRegistrySeverity) {
  DiagnosticEngine diags;
  diags.Report("TC001", 0, "cycle");
  diags.Report("TC101", 1, "unused");
  diags.Report("TC103", 2, "redundant");
  ASSERT_EQ(diags.diagnostics().size(), 3u);
  EXPECT_EQ(diags.diagnostics()[0].severity, Severity::kError);
  EXPECT_EQ(diags.diagnostics()[1].severity, Severity::kWarning);
  EXPECT_EQ(diags.diagnostics()[2].severity, Severity::kNote);
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_TRUE(diags.has_errors());
}

TEST(DiagnosticEngine, ResolveLocationsComputesLineAndColumn) {
  DiagnosticEngine diags;
  diags.Report("TC101", 0, "first line");
  diags.Report("TC101", 10, "second line");  // offset of 'c' in "second"
  diags.Report("TC010", SourceLocation::kNoOffset, "no position");
  diags.ResolveLocations("test.tql", "line one\nse_cond line\n");
  const std::vector<Diagnostic>& ds = diags.diagnostics();
  EXPECT_EQ(ds[0].location.file, "test.tql");
  EXPECT_EQ(ds[0].location.line, 1u);
  EXPECT_EQ(ds[0].location.column, 1u);
  EXPECT_EQ(ds[1].location.line, 2u);
  EXPECT_EQ(ds[1].location.column, 2u);
  EXPECT_EQ(ds[2].location.line, 0u) << "no offset: line stays unresolved";
}

TEST(DiagnosticEngine, SortByLocationOrdersByFileThenOffset) {
  DiagnosticEngine diags;
  Diagnostic a;
  a.code = "TC104";
  a.location.file = "b.tql";
  a.location.offset = 1;
  Diagnostic b;
  b.code = "TC101";
  b.location.file = "a.tql";
  b.location.offset = 9;
  Diagnostic c;
  c.code = "TC102";
  c.location.file = "a.tql";
  c.location.offset = 2;
  diags.Add(a);
  diags.Add(b);
  diags.Add(c);
  diags.SortByLocation();
  EXPECT_EQ(diags.diagnostics()[0].code, "TC102");
  EXPECT_EQ(diags.diagnostics()[1].code, "TC101");
  EXPECT_EQ(diags.diagnostics()[2].code, "TC104");
}

TEST(DiagnosticRender, HumanFormat) {
  Diagnostic d;
  d.code = "TC003";
  d.severity = Severity::kError;
  d.message = "bad refinement";
  d.location.file = "schema.tql";
  d.location.offset = 12;
  d.location.line = 2;
  d.location.column = 3;
  d.note = "see Rule 6.1";
  std::string out = RenderHuman({d});
  EXPECT_EQ(out,
            "schema.tql:2:3: error: bad refinement [TC003]\n"
            "    note: see Rule 6.1\n");
}

// The golden test: the JSON rendering is byte-stable, and parsing it back
// reproduces the same diagnostics (round-trip).
TEST(DiagnosticRender, JsonGoldenRoundTrip) {
  Diagnostic a;
  a.code = "TC001";
  a.severity = Severity::kError;
  a.message = "ISA cycle: a -> b -> a";
  a.location.file = "schema.tql";
  a.location.offset = 17;
  a.location.line = 2;
  a.location.column = 5;
  a.note = "cycle members are skipped";
  a.fixits = {FixIt{20, 4, ""}, FixIt{30, 2, "t7"}};
  Diagnostic b;
  b.code = "TC104";
  b.severity = Severity::kWarning;
  b.message = "condition with \"quotes\"\nand a newline";
  // No file / offset / note / fixits: optional keys must be omitted.
  std::vector<Diagnostic> input = {a, b};

  const std::string kGolden =
      "{\"diagnostics\":["
      "{\"code\":\"TC001\",\"severity\":\"error\","
      "\"message\":\"ISA cycle: a -> b -> a\","
      "\"file\":\"schema.tql\",\"offset\":17,\"line\":2,\"column\":5,"
      "\"note\":\"cycle members are skipped\","
      "\"fixits\":[{\"offset\":20,\"length\":4,\"replacement\":\"\"},"
      "{\"offset\":30,\"length\":2,\"replacement\":\"t7\"}]},"
      "{\"code\":\"TC104\",\"severity\":\"warning\","
      "\"message\":\"condition with \\\"quotes\\\"\\nand a newline\"}"
      "],\"errors\":1,\"warnings\":1}";
  EXPECT_EQ(RenderJson(input), kGolden);

  Result<std::vector<Diagnostic>> parsed = ParseDiagnosticsJson(kGolden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].code, "TC001");
  EXPECT_EQ((*parsed)[0].severity, Severity::kError);
  EXPECT_EQ((*parsed)[0].message, "ISA cycle: a -> b -> a");
  EXPECT_EQ((*parsed)[0].location.file, "schema.tql");
  EXPECT_EQ((*parsed)[0].location.offset, 17u);
  EXPECT_EQ((*parsed)[0].location.line, 2u);
  EXPECT_EQ((*parsed)[0].location.column, 5u);
  EXPECT_EQ((*parsed)[0].note, "cycle members are skipped");
  ASSERT_EQ((*parsed)[0].fixits.size(), 2u);
  EXPECT_EQ((*parsed)[0].fixits[0].offset, 20u);
  EXPECT_EQ((*parsed)[0].fixits[0].length, 4u);
  EXPECT_EQ((*parsed)[0].fixits[0].replacement, "");
  EXPECT_EQ((*parsed)[0].fixits[1].replacement, "t7");
  EXPECT_EQ((*parsed)[1].code, "TC104");
  EXPECT_TRUE((*parsed)[1].fixits.empty());
  EXPECT_EQ((*parsed)[1].message, "condition with \"quotes\"\nand a newline");
  EXPECT_FALSE((*parsed)[1].location.has_offset());

  // Re-rendering the parsed diagnostics reproduces the bytes exactly.
  EXPECT_EQ(RenderJson(*parsed), kGolden);
}

TEST(DiagnosticRender, EmptyJson) {
  EXPECT_EQ(RenderJson({}), "{\"diagnostics\":[],\"errors\":0,\"warnings\":0}");
  Result<std::vector<Diagnostic>> parsed =
      ParseDiagnosticsJson("{\"diagnostics\":[],\"errors\":0,\"warnings\":0}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(DiagnosticRender, ParseRejectsMalformedJson) {
  EXPECT_FALSE(ParseDiagnosticsJson("").ok());
  EXPECT_FALSE(ParseDiagnosticsJson("{\"diagnostics\":[").ok());
  EXPECT_FALSE(ParseDiagnosticsJson("{\"diagnostics\":[]} trailing").ok());
}

// Every code the analyzers can emit is registered with metadata, so
// docs/LINT.md and the JSON consumers always have something to link to.
TEST(DiagnosticRender, EmittedCodesAreRegistered) {
  auto ds = Lint(
      "tick 3;"
      "define class a under a attributes x: integer, x: integer end;"
      "define class b under ghost end;"
      "define class p attributes s: temporal(integer), pet: dog end;"
      "define class q under p attributes s: integer end;"
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "select 1 from x in t where x.v = null;"
      "select 1 from z in t;"
      "select x.v @ now from x in t where 1 < 2;"
      "select x.v @ 1 from x in t;"
      "select x.nope from x in t;"
      "update i1 set v = 2 during [3,1];"
      "snapshot i1 at 1;"
      "define class u attributes w: integer end;"
      "create u (w: 1);"
      "history i2.w;"
      "history i2.w during [3,1];"
      "define class c1 c-attributes pop: integer end;"
      "define class c2 under c1 c-attributes pop: integer end;"
      "update i99 set v = 1");
  for (const Diagnostic& d : ds) {
    EXPECT_NE(FindDiagnosticInfo(d.code), nullptr)
        << "unregistered code " << d.code;
  }
  // The fixture above is designed to light up a wide spread of codes.
  for (const char* code :
       {"TC001", "TC002", "TC004", "TC006", "TC007", "TC013", "TC101",
        "TC102", "TC103", "TC104", "TC105", "TC106", "TC107", "TC108",
        "TC109", "TC110", "TC111"}) {
    EXPECT_TRUE(Has(ds, code)) << "expected " << code << " in:\n"
                               << Messages(ds);
  }
}

// --- the fixer: ApplyFixIts -----------------------------------------------

TEST(Fixer, AppliesDisjointEditsFromSeveralDiagnostics) {
  //                     0123456789012345
  std::string source = "aaa bbb ccc ddd";
  Diagnostic d1;
  d1.code = "TC101";
  d1.fixits = {FixIt{4, 4, ""}};  // delete "bbb "
  Diagnostic d2;
  d2.code = "TC106";
  d2.fixits = {FixIt{0, 3, "xxx"}, FixIt{12, 3, "yyy"}};  // swap-style pair
  FixResult r = ApplyFixIts(source, {d1, d2});
  EXPECT_EQ(r.text, "xxx ccc yyy");
  EXPECT_EQ(r.applied, 2u);
  EXPECT_EQ(r.skipped, 0u);
}

TEST(Fixer, OverlappingDiagnosticsFirstWinsRestSkipped) {
  std::string source = "abcdefgh";
  Diagnostic first;
  first.code = "TC105";
  first.fixits = {FixIt{2, 4, ""}};  // delete "cdef"
  Diagnostic second;
  second.code = "TC103";
  second.fixits = {FixIt{4, 2, "XY"}};  // inside the deleted range
  FixResult r = ApplyFixIts(source, {first, second});
  EXPECT_EQ(r.text, "abgh");
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(r.skipped, 1u);
  ASSERT_EQ(r.skipped_reasons.size(), 1u);
  EXPECT_NE(r.skipped_reasons[0].find("TC103"), std::string::npos);
  EXPECT_NE(r.skipped_reasons[0].find("overlaps"), std::string::npos);
}

TEST(Fixer, GroupIsAtomicWhenOneEditConflicts) {
  // d2's second edit overlaps d1, so NEITHER of d2's edits applies.
  std::string source = "abcdefgh";
  Diagnostic d1;
  d1.code = "TC101";
  d1.fixits = {FixIt{1, 2, ""}};  // delete "bc"
  Diagnostic d2;
  d2.code = "TC106";
  d2.fixits = {FixIt{6, 1, "Z"}, FixIt{2, 1, "Q"}};
  FixResult r = ApplyFixIts(source, {d1, d2});
  EXPECT_EQ(r.text, "adefgh");
  EXPECT_EQ(r.applied, 1u);
  EXPECT_EQ(r.skipped, 1u);
}

TEST(Fixer, MalformedOutOfBoundsFixSkipped) {
  Diagnostic d;
  d.code = "TC101";
  d.fixits = {FixIt{3, 10, ""}};  // extends past the end
  FixResult r = ApplyFixIts("short", {d});
  EXPECT_EQ(r.text, "short");
  EXPECT_EQ(r.applied, 0u);
  EXPECT_EQ(r.skipped, 1u);
}

TEST(Fixer, DiagnosticsWithoutFixitsAreIgnored) {
  Diagnostic d;
  d.code = "TC104";
  FixResult r = ApplyFixIts("unchanged", {d});
  EXPECT_EQ(r.text, "unchanged");
  EXPECT_EQ(r.applied, 0u);
  EXPECT_EQ(r.skipped, 0u);
}

// The end-to-end fix loop at the library level: linting the script,
// applying its fix-its, and re-linting must converge — the fixed text is
// clean, and a second application changes nothing (idempotence).
TEST(Fixer, LintApplyRelintReachesCleanFixpoint) {
  const std::string kScript =
      "define class emp\n"
      "  attributes name: string, salary: temporal(integer)\n"
      "end;\n"
      "create emp (name: 'ada', salary: 100);\n"
      "tick 5;\n"
      "update i1 set salary = 120 during [t4, t2];\n"
      "select e.name, e.salary @ now from e in emp, u in emp;\n";

  auto ds = Lint(kScript);
  EXPECT_CODE(ds, "TC106");
  EXPECT_CODE(ds, "TC103");
  EXPECT_CODE(ds, "TC101");

  FixResult first = ApplyFixIts(kScript, ds);
  EXPECT_EQ(first.applied, 3u);
  EXPECT_EQ(first.skipped, 0u);

  auto fixed_ds = Lint(first.text);
  EXPECT_CLEAN(fixed_ds);

  FixResult second = ApplyFixIts(first.text, fixed_ds);
  EXPECT_EQ(second.applied, 0u);
  EXPECT_EQ(second.text, first.text);
}

// TC013's fix deletes the shadowing redeclaration (including the section
// keyword when it is the lone declaration), leaving a clean schema.
TEST(Fixer, ShadowedCAttributeRedeclarationDeleted) {
  const std::string kScript =
      "define class c1 c-attributes pop: integer end;\n"
      "define class c2 under c1 c-attributes pop: integer end;\n";
  auto ds = LintSchema(kScript);
  EXPECT_CODE(ds, "TC013");
  FixResult r = ApplyFixIts(kScript, ds);
  EXPECT_EQ(r.applied, 1u);
  auto fixed_ds = LintSchema(r.text);
  EXPECT_CLEAN(fixed_ds);
}

// --- deterministic ordering -----------------------------------------------

TEST(DiagnosticEngine, SortByLocationOrdersByFileLineColumnCode) {
  DiagnosticEngine e;
  Diagnostic d;
  d.code = "TC105";
  d.location = {"b.tql", 9, 2, 1};
  e.Add(d);
  d.code = "TC101";
  d.location = {"a.tql", 30, 3, 4};
  e.Add(d);
  d.code = "TC104";
  d.location = {"a.tql", 30, 3, 4};  // same spot: code breaks the tie
  e.Add(d);
  d.code = "TC103";
  d.location = {"a.tql", 5, 1, 6};
  e.Add(d);
  e.SortByLocation();
  std::vector<std::string> order;
  for (const Diagnostic& x : e.diagnostics()) {
    order.push_back(x.location.file + ":" + x.code);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a.tql:TC103", "a.tql:TC101",
                                             "a.tql:TC104", "b.tql:TC105"}));
}

// --- TC201: definite initialization ---------------------------------------

TEST(FlowAnalyzer, UninitializedAttributeReadReported) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer), w: integer end;"
      "create t (w: 1);"
      "when i1.v > 0");
  EXPECT_CODE(ds, "TC201");
}

TEST(FlowAnalyzer, InitializedAttributeReadIsClean) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "when i1.v > 0");
  EXPECT_NO_CODE(ds, "TC201");
}

TEST(FlowAnalyzer, UpdateBeforeReadInitializes) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer), w: integer end;"
      "create t (w: 1);"
      "update i1 set v = 2;"
      "when i1.v > 0");
  EXPECT_NO_CODE(ds, "TC201");
}

TEST(FlowAnalyzer, HistoryOfUninitializedAttributeReported) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer), w: integer end;"
      "create t (w: 1);"
      "history i1.v");
  EXPECT_CODE(ds, "TC201");
}

TEST(FlowAnalyzer, TemporalReadOutsideWrittenWindowsReported) {
  // v is assigned only from instant 5 on; the projection at 2 reads a
  // part of the timeline no statement ever wrote.
  auto ds = Lint(
      "define class t attributes v: temporal(integer), w: integer end;"
      "create t (w: 1);"
      "tick 5;"
      "update i1 set v = 9;"
      "tick 1;"
      "select x.w from x in t where i1.v @ 2 > 0");
  EXPECT_CODE(ds, "TC201");
}

TEST(FlowAnalyzer, TemporalReadInsideWrittenWindowIsClean) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer), w: integer end;"
      "create t (w: 1);"
      "tick 5;"
      "update i1 set v = 9;"
      "tick 1;"
      "select x.w from x in t where i1.v @ 5 > 0");
  EXPECT_NO_CODE(ds, "TC201");
}

TEST(FlowAnalyzer, InheritedAttributeInitializationTracked) {
  auto ds = Lint(
      "define class base attributes v: temporal(integer) end;"
      "define class sub under base attributes w: integer end;"
      "create sub (w: 1);"
      "when i1.v > 0");
  EXPECT_CODE(ds, "TC201");
}

// --- TC202: static write-write conflicts ----------------------------------

TEST(FlowAnalyzer, TwoWritersOfSameObjectReported) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "update i1 set v = 2;"
      "update i1 set v = 3");
  EXPECT_EQ(Count(ds, "TC202"), 1u);
}

TEST(FlowAnalyzer, ThirdWriterDoesNotRepeatTheReport) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "update i1 set v = 2;"
      "update i1 set v = 3;"
      "update i1 set v = 4");
  EXPECT_EQ(Count(ds, "TC202"), 1u);
}

TEST(FlowAnalyzer, WritersOfDistinctObjectsAreClean) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "create t (v: 2);"
      "update i1 set v = 3;"
      "update i2 set v = 4");
  EXPECT_NO_CODE(ds, "TC202");
}

TEST(FlowAnalyzer, DeleteAfterUpdateCountsAsConflictPair) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "update i1 set v = 2;"
      "delete i1");
  EXPECT_EQ(Count(ds, "TC202"), 1u);
}

TEST(FlowAnalyzer, Tc202IsANote) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "update i1 set v = 2;"
      "update i1 set v = 3");
  for (const Diagnostic& d : ds) {
    if (d.code == "TC202") {
      EXPECT_EQ(d.severity, Severity::kNote);
    }
  }
}

// --- TC203: windows empty under the propagated clock ----------------------

TEST(FlowAnalyzer, NowEndpointWindowEmptyUnderClockReported) {
  // [t9, now] at clock 5 resolves to [9, 5]: empty. TC106 must skip it
  // (symbolic endpoint), TC203 catches it via constant propagation.
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "tick 5;"
      "update i1 set v = 2 during [t9, now]");
  EXPECT_CODE(ds, "TC203");
  EXPECT_NO_CODE(ds, "TC106");
}

TEST(FlowAnalyzer, NowEndpointWindowNonEmptyUnderClockIsClean) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "tick 5;"
      "update i1 set v = 2 during [t3, now]");
  EXPECT_NO_CODE(ds, "TC203");
}

TEST(FlowAnalyzer, HistoryWindowEmptyUnderClockReported) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "tick 2;"
      "history i1.v during [t7, now]");
  EXPECT_CODE(ds, "TC203");
  EXPECT_NO_CODE(ds, "TC109");
}

TEST(FlowAnalyzer, ConcreteInvertedWindowStaysTc106Territory) {
  auto ds = Lint(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "update i1 set v = 2 during [3,1]");
  EXPECT_CODE(ds, "TC106");
  EXPECT_NO_CODE(ds, "TC203");
}

TEST(FlowAnalyzer, Tc2xxCodesAreRegistered) {
  for (const char* code : {"TC201", "TC202", "TC203"}) {
    EXPECT_NE(FindDiagnosticInfo(code), nullptr) << code;
  }
}

TEST(FlowAnalyzer, NoFlowOptionSuppressesTc2xx) {
  DiagnosticEngine diags;
  LintOptions options;
  options.no_flow = true;
  LintTqlScript(
      "define class t attributes v: temporal(integer) end;"
      "create t (v: 1);"
      "update i1 set v = 2;"
      "update i1 set v = 3",
      options, &diags);
  EXPECT_FALSE(Has(diags.diagnostics(), "TC202"));
}

}  // namespace
}  // namespace tchimera
