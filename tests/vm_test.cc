// Differential tests for the compiled query pipeline (query/lower.h +
// query/vm.h): every lowerable statement must produce bit-identical
// results on the batch VM and the tree-walking evaluator — including
// WHICH rows error (the short-circuit masks) — plus plan-cache
// behaviour (hits, DDL invalidation) through Engine/Session.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/db/database.h"
#include "core/temporal/interval_set.h"
#include "core/values/temporal_function.h"
#include "query/interpreter.h"
#include "query/lexer.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/session.h"
#include "query/vm.h"

namespace tchimera {
namespace {

// Lowers and runs `text` on the VM. A fallback is surfaced as an error so
// differential tests notice when a statement they expect to compile
// stops compiling.
Result<std::string> RunCompiled(const std::string& text,
                                const Database& db) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(text));
  TCH_ASSIGN_OR_RETURN(LowerOutcome outcome, LowerStatement(&stmt, db));
  if (!outcome.compiled()) {
    return Status::FailedPrecondition("fallback: " +
                                      outcome.fallback_reason);
  }
  const ExecProgram& prog = outcome.plan->program;
  if (outcome.plan->kind == LoweredPlan::Kind::kSelect) {
    TCH_ASSIGN_OR_RETURN(std::vector<SelectRow> rows,
                         RunSelect(prog, db));
    return FormatSelectRows(rows);
  }
  TCH_ASSIGN_OR_RETURN(IntervalSet held, RunWhen(prog, db));
  return held.ToString();
}

class VmDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Interpreter interp(&db_);
    auto run = [&](const std::string& s) {
      auto r = interp.Execute(s);
      ASSERT_TRUE(r.ok()) << s << ": " << r.status();
    };
    run("define class person attributes name: temporal(string), "
        "birthyear: integer end");
    run("define class employee under person attributes "
        "salary: temporal(integer), office: string end");
    Result<std::string> a =
        interp.Execute("create employee (name: 'Ann', birthyear: 1970, "
                       "salary: 100, office: 'A1')");
    ASSERT_TRUE(a.ok());
    a_ = *a;
    Result<std::string> b =
        interp.Execute("create employee (name: 'Bob', birthyear: 1980, "
                       "salary: 200, office: 'B2')");
    ASSERT_TRUE(b.ok());
    b_ = *b;
    // Multi-segment histories: salary changes mid-life, one update is
    // retroactive (splits segments), names change too.
    run("advance to 20");
    run("update " + a_ + " set salary = 150");
    run("update " + b_ + " set name = 'Rob'");
    run("advance to 40");
    run("update " + a_ + " set salary = 90 during [5,9]");
    run("update " + b_ + " set salary = 300");
    Result<std::string> c =
        interp.Execute("create employee (name: 'Cyd', birthyear: 1990, "
                       "salary: 50, office: 'C3')");
    ASSERT_TRUE(c.ok());
    c_ = *c;
    run("advance to 60");
  }

  // The core differential assertion: same success/failure, same output
  // text, same error (code and message) on both paths.
  void ExpectSame(const std::string& text) {
    Interpreter interp(&db_);
    Result<std::string> walked = interp.Execute(text);
    Result<std::string> compiled = RunCompiled(text, db_);
    if (walked.ok()) {
      ASSERT_TRUE(compiled.ok())
          << text << "\n  tree-walker: " << *walked
          << "\n  vm error: " << compiled.status().ToString();
      EXPECT_EQ(*walked, *compiled) << text;
    } else {
      ASSERT_FALSE(compiled.ok())
          << text << "\n  tree-walker error: "
          << walked.status().ToString()
          << "\n  vm result: " << *compiled;
      EXPECT_EQ(walked.status().code(), compiled.status().code()) << text;
      EXPECT_EQ(walked.status().ToString(), compiled.status().ToString())
          << text;
    }
  }

  Database db_;
  std::string a_, b_, c_;
};

TEST_F(VmDifferentialTest, SelectBattery) {
  const std::string queries[] = {
      "select x from x in employee",
      "select x from x in person",
      "select x.name from x in employee where x.salary > 120",
      "select x, x.salary from x in employee where x.salary <= 150",
      "select x.name, x.office from x in employee",
      "select x from x in employee at 10 where x.salary > 95",
      "select x from x in employee at 3 where x.salary > 95",
      "select x from x in employee where x.salary @ 7 < 100",
      "select x from x in employee where x.salary @ 25 >= 150",
      "select x.name @ 10 from x in employee",
      "select x from x in employee where x.birthyear + 10 < 1985",
      "select x from x in employee where x.salary * 2 > 250 and "
      "x.birthyear < 1985",
      "select x from x in employee where x.salary > 100 or "
      "x.office = 'C3'",
      "select x from x in employee where not (x.salary > 100)",
      "select x from x in employee where x.name = 'Rob'",
      "select x from x in employee where 1 + 1 = 2",
      "select x from x in employee where false",
      "select x from x in employee where x = " + a_,
  };
  for (const std::string& q : queries) ExpectSame(q);
}

TEST_F(VmDifferentialTest, WhenBattery) {
  const std::string queries[] = {
      "when " + a_ + ".salary > 95",
      "when " + a_ + ".salary > 95 and " + b_ + ".salary < 250",
      "when " + a_ + ".salary + " + b_ + ".salary > 300",
      "when " + a_ + ".name = 'Ann' or " + c_ + ".salary = 50",
      "when not (" + a_ + ".salary = 100)",
      "when " + a_ + ".salary > 95 during [3,30]",
      "when " + a_ + ".salary > 95 during [0,now]",
      "when " + b_ + ".salary >= 300 during [35,now]",
      "when true",
      "when false",
  };
  for (const std::string& q : queries) ExpectSame(q);
}

TEST_F(VmDifferentialTest, ShortCircuitMasksErrorsIdentically) {
  // The masked rhs must evaluate over exactly the rows the tree-walker
  // reaches: rows short-circuited away never see the division.
  ExpectSame("select x from x in employee where false and 1 / 0 = 1");
  ExpectSame("select x from x in employee where true or 1 / 0 = 1");
  // Bob (1980) would divide by zero; the conjunction masks him out.
  ExpectSame("select x from x in employee where x.birthyear < 1979 and "
             "100 / (x.birthyear - 1980) < 0");
  // Here Ann (1970) reaches the division by zero on both paths.
  ExpectSame("select x from x in employee where x.birthyear < 1979 and "
             "100 / (x.birthyear - 1970) > 0");
  // Pure-but-erroring subtrees are not folded away; they fire only when
  // a row reaches them.
  ExpectSame("select x from x in employee where x.salary > 1000 and "
             "1 / 0 = 1");
}

TEST_F(VmDifferentialTest, RandomizedPredicates) {
  // Seeded grammar walk over int/bool expressions; every generated
  // predicate must agree between the two paths (including the ones that
  // error — e.g. a division whose divisor hits zero on some row).
  std::mt19937 rng(20260809);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  std::function<std::string(int)> int_expr = [&](int depth) -> std::string {
    if (depth <= 0 || pick(3) == 0) {
      switch (pick(4)) {
        case 0: return "x.birthyear";
        case 1: return "x.salary";
        case 2: return std::to_string(pick(400) - 50);
        default: return "x.salary @ " + std::to_string(pick(60));
      }
    }
    static const char* ops[] = {" + ", " - ", " * ", " / "};
    return "(" + int_expr(depth - 1) + ops[pick(4)] +
           int_expr(depth - 1) + ")";
  };
  std::function<std::string(int)> bool_expr =
      [&](int depth) -> std::string {
    if (depth <= 0 || pick(4) == 0) {
      static const char* cmps[] = {" = ", " <> ", " < ", " <= ", " > ",
                                   " >= "};
      return "(" + int_expr(1) + cmps[pick(6)] + int_expr(1) + ")";
    }
    switch (pick(3)) {
      case 0: return "(" + bool_expr(depth - 1) + " and " +
                     bool_expr(depth - 1) + ")";
      case 1: return "(" + bool_expr(depth - 1) + " or " +
                     bool_expr(depth - 1) + ")";
      default: return "(not " + bool_expr(depth - 1) + ")";
    }
  };
  for (int i = 0; i < 150; ++i) {
    ExpectSame("select x, x.salary from x in employee where " +
               bool_expr(3));
  }
  for (int i = 0; i < 100; ++i) {
    std::string cond = bool_expr(2);
    // Rebind the free variable to a literal object for WHEN.
    size_t pos;
    while ((pos = cond.find("x.")) != std::string::npos) {
      cond.replace(pos, 1, pick(2) == 0 ? a_ : b_);
    }
    ExpectSame("when " + cond);
  }
}

TEST_F(VmDifferentialTest, SessionCompileToggleMatches) {
  // The same statements through Session with the compiled path on/off.
  Engine engine;
  Session on = engine.OpenSession();
  Session off = engine.OpenSession();
  off.set_compile_enabled(false);
  for (const char* s :
       {"define class p attributes v: temporal(integer) end",
        "create p (v: 1)", "advance to 9", "update i1 set v = 5"}) {
    Result<std::string> r = on.Execute(s);
    ASSERT_TRUE(r.ok()) << s << ": " << r.status();
  }
  const std::string queries[] = {
      "select x, x.v from x in p where x.v > 0",
      "select x from x in p where x.v @ 3 = 1",
      "when i1.v > 2",
      "when i1.v > 2 during [0,5]",
  };
  for (const std::string& q : queries) {
    Result<std::string> compiled = on.Execute(q);
    Result<std::string> walked = off.Execute(q);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
    ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
    EXPECT_EQ(*compiled, *walked) << q;
  }
}

TEST(PlanCacheTest, NormalizePlanKey) {
  // Comments stripped, whitespace collapsed, trimmed...
  EXPECT_EQ(NormalizePlanKey("  select   x -- pick x\n from x in p  "),
            "select x from x in p");
  // ...but quoted literals are preserved byte-for-byte (spacing and
  // comment-looking content included), and case is significant.
  EXPECT_EQ(NormalizePlanKey("select 'a  -- b'  from x in p"),
            "select 'a  -- b' from x in p");
  EXPECT_NE(NormalizePlanKey("select X from x in p"),
            NormalizePlanKey("select x from x in p"));
}

TEST(PlanCacheTest, NormalizePlanKeyUnterminatedLiteral) {
  // An unterminated quoted literal runs to end-of-statement, so every
  // byte after the quote — trailing spaces included — is literal content.
  // The final trim must not eat those bytes: `select 'ab` and
  // `select 'ab ` are different (both invalid) statements, and colliding
  // keys would let one statement's negative cache entry answer for the
  // other.
  EXPECT_NE(NormalizePlanKey("select 'ab"), NormalizePlanKey("select 'ab "));
  EXPECT_NE(NormalizePlanKey("select 'ab"),
            NormalizePlanKey("select 'ab   "));
  // Same collision through a trailing backslash: the escape consumes the
  // final space into the (unterminated) literal, which the trim then
  // used to strip.
  EXPECT_NE(NormalizePlanKey("select 'a\\"),
            NormalizePlanKey("select 'a\\ "));
  // Terminated literals still trim trailing whitespace outside the quote.
  EXPECT_EQ(NormalizePlanKey("select 'ab'  "), "select 'ab'");
  // And an escaped quote does not terminate the literal — the bytes
  // after it stay significant.
  EXPECT_NE(NormalizePlanKey("select 'a\\'"),
            NormalizePlanKey("select 'a\\' "));
}

// Two attributes whose names differ only after a `--`: the lexer keeps
// `--` inside an identifier, so the key must too, or both selects would
// share one cached plan.
TEST(PlanCacheTest, DashesInsideAnIdentifierAreNoComment) {
  Engine engine;
  Session s = engine.OpenSession();
  Session walker = engine.OpenSession();
  walker.set_compile_enabled(false);
  ASSERT_TRUE(s.Execute("define class c attributes k--a: integer, "
                        "k--b: integer end")
                  .ok());
  ASSERT_TRUE(s.Execute("create c (k--a: 1, k--b: 2)").ok());
  EXPECT_NE(NormalizePlanKey("select x.k--a from x in c"),
            NormalizePlanKey("select x.k--b from x in c"));
  for (const char* q : {"select x.k--a from x in c",
                        "select x.k--b from x in c"}) {
    Result<std::string> compiled = s.Execute(q);
    Result<std::string> walked = walker.Execute(q);
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
    ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
    EXPECT_EQ(*compiled, *walked) << q;
  }
  EXPECT_EQ(*s.Execute("select x.k--b from x in c"), "2");
  EXPECT_EQ(engine.plan_cache().stats().misses, 2u);
}

// What the lexer makes of a text, comparable across texts: "error", or
// (kind, text, int_value, real_value) per token.
std::string LexSignature(std::string_view text) {
  Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return "error";
  std::string sig;
  for (const Token& t : *tokens) {
    sig += std::to_string(static_cast<int>(t.kind)) + ":" +
           std::to_string(t.text.size()) + ":" + t.text + ":" +
           std::to_string(t.int_value) + ":" + std::to_string(t.real_value) +
           "|";
  }
  return sig;
}

TEST(PlanCacheTest, EqualKeysMeanEqualTokenStreams) {
  // Token spellings that sit on the lexer's boundaries: `--` inside an
  // identifier or after a number, exponents that are not, quotes with
  // escapes (one unterminated), char literals and two-byte operators.
  const std::vector<std::string> tokens = {
      "select", "x",       "k--a",   "k--b",    "a---b",  "i5--x",
      "i5",     "t7",      "tnow",   "5e--3",   "5e-3",   "5",
      "5.5",    "'a b'",   "'a  b'", "'x--y'",  "'it\\'s'", "'\\\\'",
      "c'x'",   "c'-'",    "'open",  "'a\\",    "<=",     "<>",
      ">=",     "<",       ">",      "=",       "-",      ".",
      "(",      ")",       "#"};
  // Gaps between them, the empty one included: it fuses neighbours.
  const std::vector<std::string> gaps = {
      "", "", " ", "  ", "\t", "\n", " -- note\n", "--c\n", "-- x  y\n ",
      " \n\t "};
  const std::vector<std::string> tails = {"", " ", "--end", " -- end",
                                          "\n"};
  std::mt19937 rng(20261018);
  auto pick = [&](const std::vector<std::string>& from) {
    return from[std::uniform_int_distribution<size_t>(0, from.size() - 1)(
        rng)];
  };
  std::map<std::string, std::pair<std::string, std::string>> by_key;
  size_t shared = 0;
  for (int base = 0; base < 4000; ++base) {
    std::vector<std::string> seq(
        std::uniform_int_distribution<size_t>(1, 5)(rng));
    for (std::string& tok : seq) tok = pick(tokens);
    // Several renderings of one token sequence: the ones whose gaps
    // agree on being empty share a key.
    for (int render = 0; render < 6; ++render) {
      std::string text;
      for (const std::string& tok : seq) text += pick(gaps) + tok;
      text += pick(tails);
      const std::string key = NormalizePlanKey(text);
      const std::string sig = LexSignature(text);
      // The key is itself a text with the statement's tokens.
      ASSERT_EQ(LexSignature(key), sig)
          << "text: [" << text << "]\nkey: [" << key << "]";
      auto [it, fresh] = by_key.emplace(key, std::make_pair(text, sig));
      if (fresh) continue;
      ++shared;
      ASSERT_EQ(it->second.second, sig)
          << "texts: [" << it->second.first << "] and [" << text
          << "] share the key [" << key << "]";
    }
  }
  // Not vacuous: many texts met an earlier text's key.
  EXPECT_GT(shared, 2000u);
}

TEST(PlanCacheTest, OnlyCompilableTextsCountLookups) {
  Engine engine;
  Session s = engine.OpenSession();
  Session off = engine.OpenSession();
  off.set_compile_enabled(false);
  for (const char* w :
       {"define class p attributes v: temporal(integer) end",
        "create p (v: 1)", "advance to 5", "update i1 set v = 2",
        "create index pv on p (v)", "drop index pv"}) {
    ASSERT_TRUE(s.Execute(w).ok()) << w;
  }
  for (const char* r : {"snapshot i1", "history i1.v", "show classes",
                        "show object i1", "explain when i1.v > 1"}) {
    ASSERT_TRUE(s.Execute(r).ok()) << r;
  }
  for (const char* q :
       {"select x from x in p where x.v > 0", "when i1.v > 1"}) {
    ASSERT_TRUE(off.Execute(q).ok()) << q;
  }
  // A failed parse is no lookup outcome either.
  EXPECT_FALSE(s.Execute("select from").ok());
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(engine.plan_cache().size(), 0u);

  // A select that does not type-check reaches the lowering decision: a
  // miss every time, and never cached.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(s.Execute("select x from x in p where x.nope > 0").ok());
  }
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(engine.plan_cache().size(), 0u);

  // The statement kind is read from the first token after any leading
  // whitespace and comments, in any case: a write there stays out of the
  // cache, and a read there is cached under its bare text's key.
  ASSERT_TRUE(s.Execute("  -- a write\n\t CREATE p (v: 3)").ok());
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(engine.plan_cache().size(), 0u);
  const std::string q = "select x from x in p where x.v > 0";
  ASSERT_TRUE(s.Execute("\n  -- a read\n" + q).ok());
  ASSERT_TRUE(s.Execute(q).ok());
  ASSERT_TRUE(s.Execute("-- x\nWHEN i1.v > 1").ok());
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(engine.plan_cache().size(), 2u);
}

TEST(PlanCacheTest, NegativeEntryCountsOneHitPerExecution) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(s.Execute("define class p attributes v: integer end").ok());
  ASSERT_TRUE(s.Execute("create p (v: 1)").ok());
  const std::string q = "select x, y from x in p, y in p";
  Result<std::string> first = s.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status();
  for (uint64_t n = 1; n <= 3; ++n) {
    Result<std::string> again = s.Execute(q);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *first);
    const PlanCache::Stats stats = engine.plan_cache().stats();
    EXPECT_EQ(stats.hits, n);
    EXPECT_EQ(stats.misses, 1u);
  }
}

TEST(PlanCacheTest, DdlBetweenHitsRelowers) {
  Engine engine;
  Session s = engine.OpenSession();
  Session walker = engine.OpenSession();
  walker.set_compile_enabled(false);
  ASSERT_TRUE(s.Execute("define class p attributes v: integer end").ok());
  ASSERT_TRUE(s.Execute("create p (v: 1)").ok());
  const std::string q = "select x, x.v from x in p where x.v > 0";
  const std::string before = *s.Execute(q);
  ASSERT_EQ(*s.Execute(q), before);  // a hit
  // A subclass widens p's extent: the plan is re-lowered under the new
  // schema and sees the subclass member.
  ASSERT_TRUE(
      s.Execute("define class sub under p attributes w: integer end").ok());
  ASSERT_TRUE(s.Execute("create sub (v: 2, w: 0)").ok());
  Result<std::string> relowered = s.Execute(q);
  ASSERT_TRUE(relowered.ok()) << relowered.status();
  EXPECT_EQ(*relowered, *walker.Execute(q));
  EXPECT_NE(*relowered, before);
  EXPECT_EQ(*s.Execute(q), *relowered);  // a hit on the new plan
  const PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(PlanCacheTest, HitsAndDdlInvalidation) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(
      s.Execute("define class p attributes v: temporal(integer) end").ok());
  ASSERT_TRUE(s.Execute("create p (v: 7)").ok());

  const std::string q = "select x from x in p where x.v > 0";
  Result<std::string> first = s.Execute(q);
  ASSERT_TRUE(first.ok()) << first.status();
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);

  // Normalization makes the spaced/commented spelling the same plan.
  Result<std::string> second =
      s.Execute("select   x from x in p -- cached\n where x.v > 0");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // DDL bumps the schema version: the cached plan is stale and must be
  // recompiled (counted as an invalidation + a miss), and the query
  // still answers correctly.
  ASSERT_TRUE(
      s.Execute("define class q attributes w: integer end").ok());
  Result<std::string> third = s.Execute(q);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*first, *third);
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(PlanCacheTest, NegativeEntriesCacheFallbacks) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(
      s.Execute("define class p attributes v: integer end").ok());
  ASSERT_TRUE(s.Execute("create p (v: 1)").ok());
  // A cartesian product does not lower; the session tree-walks it and
  // remembers the fallback so the next execution skips re-lowering.
  const std::string q = "select x, y from x in p, y in p";
  Result<std::string> r1 = s.Execute(q);
  ASSERT_TRUE(r1.ok()) << r1.status();
  Result<std::string> r2 = s.Execute(q);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LowerFallbackTest, ReasonsAreReported) {
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(
      interp.Execute("define class p attributes v: integer end").ok());
  Statement multi =
      ParseStatement("select x from x in p, y in p").value();
  Result<LowerOutcome> outcome = LowerStatement(&multi, db);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->compiled());
  EXPECT_NE(outcome->fallback_reason.find("multi-binder"),
            std::string::npos)
      << outcome->fallback_reason;

  Statement tick = ParseStatement("tick 1").value();
  outcome = LowerStatement(&tick, db);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->compiled());

  // Type errors are NOT fallbacks: they propagate as the same error the
  // interpreter reports.
  Statement bad =
      ParseStatement("select x from x in p where x.v = 'no'").value();
  Result<LowerOutcome> err = LowerStatement(&bad, db);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kTypeError);
}

// --- temporal secondary indexes: planner + differential correctness ---

// A class with an extent large enough (>= 64 rows) for the cost-based
// planner to consider an index probe, with multi-segment histories on a
// few objects so probes exercise temporal postings.
class IndexedSelectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Interpreter interp(&db_);
    auto run = [&](const std::string& s) {
      auto r = interp.Execute(s);
      ASSERT_TRUE(r.ok()) << s << ": " << r.status();
    };
    run("define class item attributes v: temporal(integer), "
        "tag: string end");
    for (int i = 0; i < 80; ++i) {
      run("create item (v: " + std::to_string(i % 20) + ", tag: 't" +
          std::to_string(i % 5) + "')");
    }
    run("advance to 10");
    run("update i3 set v = 100");
    run("update i7 set v = 100 during [2,5]");
    run("update i11 set v = 5");
    run("advance to 30");
  }

  Result<std::string> Walk(const std::string& q) {
    Interpreter interp(&db_);
    return interp.Execute(q);
  }

  Status CreateIndex() {
    Interpreter interp(&db_);
    return interp.Execute("create index idx_v on item (v)").status();
  }

  Database db_;
};

TEST_F(IndexedSelectTest, PlannerChoosesIndexAndExplainsIt) {
  ASSERT_TRUE(CreateIndex().ok());
  auto lower = [&](const std::string& q) {
    Statement stmt = ParseStatement(q).value();
    Result<LowerOutcome> outcome = LowerStatement(&stmt, db_);
    EXPECT_TRUE(outcome.ok()) << q << ": " << outcome.status();
    EXPECT_TRUE(outcome->compiled()) << q;
    return outcome->plan->program;
  };

  // A selective equality on the leftmost conjunct probes the index; the
  // decision and its estimates are visible in explain.
  ExecProgram p = lower("select x from x in item where x.v = 5");
  ASSERT_TRUE(p.access.has_value());
  EXPECT_EQ(p.access->names[0], "idx_v");
  EXPECT_NE(p.ToString().find("access: index idx_v"), std::string::npos)
      << p.ToString();

  // Flipped orientation still matches (literal on the left).
  EXPECT_TRUE(lower("select x from x in item where 5 = x.v")
                  .access.has_value());
  // Only the LEFTMOST conjunct of the AND spine may drive the probe.
  EXPECT_TRUE(
      lower("select x from x in item where x.v = 5 and x.tag = 't1'")
          .access.has_value());
  p = lower("select x from x in item where x.tag = 't1' and x.v = 5");
  EXPECT_FALSE(p.access.has_value());
  EXPECT_NE(p.access_note.find("no value index on 'tag'"),
            std::string::npos)
      << p.access_note;

  // Refused shapes fall back to the scan, with the reason recorded.
  p = lower("select x from x in item where x.v <> 5");
  EXPECT_FALSE(p.access.has_value());
  p = lower("select x from x in item where x.v @ 4 = 5");
  EXPECT_FALSE(p.access.has_value());
  p = lower("select x from x in item");
  EXPECT_FALSE(p.access.has_value());
  EXPECT_EQ(p.access_note, "no where clause");
  // A non-selective range (matches nearly every row) is rejected by the
  // cost model, not by shape.
  p = lower("select x from x in item where x.v >= 0");
  EXPECT_FALSE(p.access.has_value());
  EXPECT_NE(p.access_note.find("not selective"), std::string::npos)
      << p.access_note;
  EXPECT_NE(p.ToString().find("access: scan"), std::string::npos);
}

TEST_F(IndexedSelectTest, IndexScanAndTreeWalkerReturnIdenticalRows) {
  const std::string queries[] = {
      "select x from x in item where x.v = 5",
      "select x, x.v from x in item where x.v = 5",
      "select x from x in item where 5 = x.v",
      "select x from x in item where x.v < 2",
      "select x from x in item where x.v <= 1",
      "select x from x in item where x.v > 17",
      "select x from x in item where x.v >= 100",
      "select x from x in item where x.v = 100",
      "select x from x in item at 4 where x.v = 100",
      "select x from x in item at 4 where x.v = 3",
      "select x.tag from x in item where x.v = 19",
      "select x from x in item where x.v = 5 and x.tag = 't1'",
      // Probe survivors reach the second conjunct on both paths: here it
      // divides by zero on exactly the v = 5 rows (identical error), and
      // on the next one it never does (identical rows).
      "select x from x in item where x.v = 5 and 1 / (x.v - 5) = 1",
      "select x from x in item where x.v = 5 and 100 / (x.v - 6) < 0",
      "select x from x in item where x.v = -1",
  };
  // Capture the compiled-scan results before any index exists.
  std::vector<Result<std::string>> scan;
  for (const std::string& q : queries) scan.push_back(RunCompiled(q, db_));
  ASSERT_TRUE(CreateIndex().ok());
  for (size_t i = 0; i < std::size(queries); ++i) {
    const std::string& q = queries[i];
    Result<std::string> indexed = RunCompiled(q, db_);
    Result<std::string> walked = Walk(q);
    ASSERT_EQ(scan[i].ok(), indexed.ok()) << q;
    ASSERT_EQ(walked.ok(), indexed.ok()) << q;
    if (indexed.ok()) {
      EXPECT_EQ(*scan[i], *indexed) << q;
      EXPECT_EQ(*walked, *indexed) << q;
    } else {
      EXPECT_EQ(scan[i].status().ToString(), indexed.status().ToString())
          << q;
      EXPECT_EQ(walked.status().ToString(), indexed.status().ToString())
          << q;
    }
  }
}

TEST(PlanCacheTest, IndexDdlInvalidatesCachedPlans) {
  Engine engine;
  Session s = engine.OpenSession();
  ASSERT_TRUE(
      s.Execute("define class p attributes v: temporal(integer) end").ok());
  for (int i = 0; i < 70; ++i) {
    ASSERT_TRUE(
        s.Execute("create p (v: " + std::to_string(100 + i) + ")").ok());
  }
  ASSERT_TRUE(s.Execute("update i1 set v = 1").ok());

  const std::string q = "select x from x in p where x.v = 1";
  Result<std::string> scanned = s.Execute(q);
  ASSERT_TRUE(scanned.ok()) << scanned.status();
  ASSERT_TRUE(s.Execute(q).ok());
  PlanCache::Stats stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Index DDL bumps the schema version: the cached scan plan (compiled
  // before the index existed) must be invalidated and recompiled, or the
  // session would keep scanning forever.
  ASSERT_TRUE(s.Execute("create index pv on p (v)").ok());
  Result<std::string> indexed = s.Execute(q);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(*scanned, *indexed);
  stats = engine.plan_cache().stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  // The recompiled plan really takes the index path.
  Result<std::string> explained = s.Execute("explain " + q);
  ASSERT_TRUE(explained.ok()) << explained.status();
  EXPECT_NE(explained->find("access: index pv"), std::string::npos)
      << *explained;

  // Dropping the index invalidates again — a plan probing a dead index
  // would be unsound, not just slow.
  ASSERT_TRUE(s.Execute("drop index pv").ok());
  Result<std::string> after_drop = s.Execute(q);
  ASSERT_TRUE(after_drop.ok());
  EXPECT_EQ(*scanned, *after_drop);
  EXPECT_GE(engine.plan_cache().stats().invalidations, 2u);
  explained = s.Execute("explain " + q);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("access: scan"), std::string::npos)
      << *explained;
}

// --- WHEN boundary handling at adjacent-interval edges (satellite 2) ---

TEST(VmWhenTest, AdjacentIntervalBoundariesMatchTreeWalker) {
  // i1.v has exactly adjacent segments: [0,9] -> 1, [10,19] -> 2,
  // [20,now] -> 3. Every WHEN below is answered identically by the VM
  // and the tree-walker, and a handful are pinned to exact interval
  // sets so a shared bug cannot hide.
  Database db;
  Interpreter interp(&db);
  auto run = [&](const std::string& s) {
    auto r = interp.Execute(s);
    ASSERT_TRUE(r.ok()) << s << ": " << r.status();
  };
  run("define class p attributes v: temporal(integer) end");
  run("create p (v: 1)");
  run("advance to 10");
  run("update i1 set v = 2");
  run("advance to 20");
  run("update i1 set v = 3");
  run("advance to 25");

  auto same = [&](const std::string& q) {
    Result<std::string> walked = interp.Execute(q);
    Result<std::string> compiled = RunCompiled(q, db);
    ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
    ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
    EXPECT_EQ(*walked, *compiled) << q;
  };
  auto pinned = [&](const std::string& q, const IntervalSet& want) {
    same(q);
    Result<std::string> walked = interp.Execute(q);
    ASSERT_TRUE(walked.ok());
    EXPECT_EQ(*walked, want.ToString()) << q;
  };

  pinned("when i1.v = 2", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v >= 2", IntervalSet::Of(Interval(10, 25)));
  // Windows whose endpoints sit exactly on segment edges: the carry-in
  // boundary at the window start duplicates the segment edge, which the
  // dedup in CollectWhenBoundaries must absorb (a sorted-but-non-unique
  // boundary list would otherwise emit a degenerate piece).
  pinned("when i1.v = 2 during [10,19]", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v = 2 during [10,10]", IntervalSet::Of(Interval(10, 10)));
  pinned("when i1.v = 2 during [9,10]", IntervalSet::Of(Interval(10, 10)));
  pinned("when i1.v = 2 during [19,20]", IntervalSet::Of(Interval(19, 19)));
  pinned("when i1.v = 1 during [0,9]", IntervalSet::Of(Interval(0, 9)));
  pinned("when i1.v = 3 during [20,now]",
         IntervalSet::Of(Interval(20, 25)));
  pinned("when i1.v = 2 during [11,12]", IntervalSet::Of(Interval(11, 12)));
  // Window entirely in one segment, endpoints interior.
  pinned("when i1.v = 1 during [3,6]", IntervalSet::Of(Interval(3, 6)));
  // Empty / out-of-range windows.
  pinned("when i1.v >= 1 during [26,40]", IntervalSet());
  same("when i1.v = 2 during [0,now]");
  same("when i1.v <> 2 during [5,14]");

  // The same battery with a value index present: an index must never
  // change a WHEN answer.
  ASSERT_TRUE(interp.Execute("create index pv on p (v)").ok());
  pinned("when i1.v = 2", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v = 2 during [10,19]", IntervalSet::Of(Interval(10, 19)));
  pinned("when i1.v = 2 during [9,10]", IntervalSet::Of(Interval(10, 10)));
  pinned("when i1.v = 2 during [19,20]", IntervalSet::Of(Interval(19, 19)));
  pinned("when i1.v >= 1 during [26,40]", IntervalSet());
  same("when i1.v <> 2 during [5,14]");
}

// Windowed WHEN on seeded random histories of a non-indexed attribute
// (gaps, a closed or ongoing tail, retroactive splices, current-time
// asserts), against a brute-force oracle that evaluates the condition at
// every instant of the window. The VM and the tree-walker share
// CollectWhenBoundaries, so only an independent oracle can catch a
// window-slicing bug. Windows start in gaps, on segment edges, and inside
// the first and last segments.
TEST(VmWhenTest, WindowedWhenMatchesPerInstantOracle) {
  constexpr TimePoint kNowAt = 120;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    auto pick = [&rng](int64_t n) {
      return static_cast<int64_t>(rng() % static_cast<uint64_t>(n));
    };
    std::vector<TemporalFunction::Segment> segments;
    for (TimePoint t = pick(4); t < kNowAt - 10;) {
      const TimePoint end = t + pick(6);
      segments.push_back({Interval(t, end), Value::Integer(pick(10))});
      t = end + 1 + (pick(3) == 0 ? 1 + pick(5) : 0);  // sometimes a gap
    }
    if (seed % 2 == 0) {  // an ongoing tail; odd seeds end closed
      segments.push_back({Interval::FromUntilNow(kNowAt - 8),
                          Value::Integer(pick(10))});
    }
    Result<TemporalFunction> history = TemporalFunction::Make(segments);
    ASSERT_TRUE(history.ok()) << history.status();

    Database db;
    Interpreter interp(&db);
    ASSERT_TRUE(
        interp.Execute("define class p attributes v: temporal(integer) end")
            .ok());
    ASSERT_TRUE(db.AdvanceTo(kNowAt - 20).ok());
    ASSERT_TRUE(
        db.CreateObjectAt("p", 0, {{"v", Value::Temporal(*history)}}).ok());
    for (int k = 0; k < 6; ++k) {
      const TimePoint lo = pick(kNowAt - 24);
      Status spliced = db.UpdateAttributeAt(
          Oid{1}, "v", Interval(lo, lo + pick(4)), Value::Integer(pick(10)));
      ASSERT_TRUE(spliced.ok()) << spliced;
    }
    if (seed % 2 == 0) {
      for (int k = 0; k < 4; ++k) {
        ASSERT_TRUE(db.AdvanceTo(db.now() + 1 + pick(5)).ok());
        ASSERT_TRUE(
            db.UpdateAttribute(Oid{1}, "v", Value::Integer(pick(10))).ok());
      }
    }
    ASSERT_TRUE(db.AdvanceTo(kNowAt).ok());
    ASSERT_EQ(db.FindValueIndex("v"), nullptr);
    const TemporalFunction& v =
        db.GetObject(Oid{1})->Attribute("v")->AsTemporal();

    // Window starts: every segment edge, the instant after each segment
    // (a gap start when one follows), an instant inside the first and the
    // last segment, and a few random ones.
    std::vector<TimePoint> starts = {0, kNowAt, kNowAt + 2};
    for (const auto& seg : v.segments()) {
      const TimePoint end = seg.interval.is_ongoing() ? kNowAt
                                                      : seg.interval.end();
      starts.insert(starts.end(), {seg.interval.start(), end, end + 1});
    }
    for (const auto* seg : {&v.segments().front(), &v.segments().back()}) {
      starts.push_back(seg->interval.start() + 1);
    }
    for (int k = 0; k < 4; ++k) starts.push_back(pick(kNowAt));

    for (TimePoint lo : starts) {
      const int64_t threshold = pick(10);
      const TimePoint hi = lo + pick(30);
      const std::string q = "when i1.v > " + std::to_string(threshold) +
                            " during [" + std::to_string(lo) + "," +
                            std::to_string(hi) + "]";
      IntervalSet want;
      for (TimePoint t = lo; t <= std::min(hi, kNowAt); ++t) {
        const Value* at = v.At(t);
        if (at != nullptr && at->AsInteger() > threshold) {
          want.Add(Interval::At(t));
        }
      }
      Result<std::string> walked = interp.Execute(q);
      Result<std::string> compiled = RunCompiled(q, db);
      ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
      ASSERT_TRUE(compiled.ok()) << q << ": " << compiled.status();
      EXPECT_EQ(*walked, want.ToString()) << "seed " << seed << ": " << q;
      EXPECT_EQ(*compiled, want.ToString()) << "seed " << seed << ": " << q;
    }
  }
}

TEST(VmWhenTest, BoundaryRestrictionKeepsSemantics) {
  // The WHEN boundary scan only collects segment edges of the attributes
  // the condition actually reads; an unrelated attribute with a busy
  // history must not change the answer (it only ever could have split
  // intervals finer, and IntervalSet coalesces).
  Database db;
  Interpreter interp(&db);
  ASSERT_TRUE(interp
                  .ExecuteScript(
                      "define class p attributes v: temporal(integer), "
                      "noise: temporal(integer) end; "
                      "create p (v: 1, noise: 0)")
                  .ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(interp.Execute("tick 3").ok());
    ASSERT_TRUE(
        interp.Execute("update i1 set noise = " + std::to_string(i)).ok());
  }
  ASSERT_TRUE(interp.Execute("update i1 set v = 9 during [7,11]").ok());
  Result<std::string> walked = interp.Execute("when i1.v > 5");
  ASSERT_TRUE(walked.ok()) << walked.status();
  Result<std::string> compiled = RunCompiled("when i1.v > 5", db);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(*walked, *compiled);
  EXPECT_EQ(*walked, IntervalSet::Of(Interval(7, 11)).ToString());
}

// Four sessions run cached select/when texts while a writer flips a value
// index on and off and updates the indexed attribute. Each result must
// be the tree-walker's on the snapshot the statement read; when a commit
// lands during an execution that snapshot is unknown, and the read is
// not compared. CI also runs this under TSan.
TEST(PlanCacheConcurrencyTest, CachedReadsMatchTreeWalkerUnderIndexDdl) {
  Engine engine;
  {
    Session setup = engine.OpenSession();
    ASSERT_TRUE(
        setup.Execute("define class p attributes v: temporal(integer) end")
            .ok());
    for (int i = 0; i < 70; ++i) {
      ASSERT_TRUE(setup.Execute("create p (v: " + std::to_string(i) + ")")
                      .ok());
    }
  }
  const std::vector<std::string> queries = {
      "select x from x in p where x.v = 7",
      "select x.v from x in p where x.v > 60",
      "select x from x in p where x.v >= 65",
      "select x from x in p where x.v < 3",
      "select x, x.v from x in p where x.v <= 2",
      "when i1.v > 3",
      "when i5.v = 5 during [0, 50]",
  };
  std::atomic<bool> stop{false};
  std::atomic<int> compared{0};
  std::thread writer([&] {
    Session w = engine.OpenSession();
    std::mt19937 rng(7);
    for (int i = 0; i < 200; ++i) {
      std::string stmt;
      if (i % 10 == 0) {
        stmt = (i / 10) % 2 == 0 ? "create index pv on p (v)"
                                 : "drop index pv";
      } else {
        stmt = "update i" + std::to_string(1 + rng() % 70) + " set v = " +
               std::to_string(rng() % 70);
      }
      EXPECT_TRUE(w.Execute(stmt).ok()) << stmt;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop = true;
  });
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Session s = engine.OpenSession();
      for (size_t n = r; !stop.load(); ++n) {
        const std::string& q = queries[n % queries.size()];
        ReadSnapshot before = engine.OpenSnapshot();
        Result<std::string> got = s.Execute(q);
        ReadSnapshot after = engine.OpenSnapshot();
        ASSERT_TRUE(got.ok()) << q << ": " << got.status();
        if (before.version() != after.version()) continue;
        Statement stmt = ParseStatement(q).value();
        Result<std::string> walked = ExecuteReadStatement(&stmt, before.db());
        ASSERT_TRUE(walked.ok()) << q << ": " << walked.status();
        EXPECT_EQ(*got, *walked) << q;
        ++compared;
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(compared.load(), 100);
  EXPECT_GT(engine.plan_cache().stats().hits, 0u);
}

}  // namespace
}  // namespace tchimera
