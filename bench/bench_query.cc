// Experiment QU (DESIGN.md): the TQL pipeline — parse, type check
// (Definition 3.6 rules + the Section 6.1 coercion) and evaluate —
// over populated databases, plus the compiled pipeline (query/lower.h +
// query/vm.h) head-to-head against the tree-walking evaluator.
//
// Besides the google-benchmark suite, a custom main emits the
// machine-readable compiled-vs-interpreted report (BENCH_query.json, a
// CI artifact): a sweep over history length (WHEN over an object with H
// salary segments) and extent size (WHERE over N objects), plus the
// create-growth sweep, whose create_growth ratio the report gates on, as
// it does the one-posting probe's growth (probe_growth); and pi over a
// class that kept 10 of its 4,000 members.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "query/interpreter.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/session.h"
#include "query/type_checker.h"
#include "query/vm.h"
#include "workload/generator.h"

namespace tchimera {
namespace {

struct Fixture {
  Database db;
  Population pop;
};

Fixture& SharedFixture(int64_t persons) {
  static std::map<int64_t, Fixture>& cache =
      *new std::map<int64_t, Fixture>();
  auto it = cache.find(persons);
  if (it == cache.end()) {
    it = cache.emplace(std::piecewise_construct,
                       std::forward_as_tuple(persons),
                       std::forward_as_tuple())
             .first;
    PopulationConfig config;
    config.persons = static_cast<size_t>(persons);
    config.projects = static_cast<size_t>(persons / 5 + 1);
    config.timesteps = 32;
    config.updates_per_step = 10;
    config.migration_rate = 0.2;
    it->second.pop = PopulateDatabase(&it->second.db, config).value();
  }
  return it->second;
}

constexpr const char* kSelect =
    "select x.name from x in employee where x.salary > 50000 and "
    "x.birthyear < 1990";

void BM_Parse(benchmark::State& state) {
  for (auto _ : state) {
    auto stmt = ParseStatement(kSelect);
    if (!stmt.ok()) state.SkipWithError("parse failed");
    benchmark::DoNotOptimize(stmt);
  }
}
BENCHMARK(BM_Parse);

void BM_TypeCheck(benchmark::State& state) {
  Fixture& fx = SharedFixture(50);
  Statement stmt = ParseStatement(kSelect).value();
  for (auto _ : state) {
    // Re-check in place (annotations are overwritten).
    auto types = TypeCheckSelect(&*stmt.select, fx.db);
    if (!types.ok()) state.SkipWithError("type check failed");
    benchmark::DoNotOptimize(types);
  }
}
BENCHMARK(BM_TypeCheck);

void BM_EvaluateSelect(benchmark::State& state) {
  Fixture& fx = SharedFixture(state.range(0));
  Statement stmt = ParseStatement(kSelect).value();
  (void)TypeCheckSelect(&*stmt.select, fx.db);
  for (auto _ : state) {
    auto rows = EvaluateSelect(*stmt.select, fx.db);
    if (!rows.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvaluateSelect)->Arg(20)->Arg(100)->Arg(400);

void BM_EvaluateTimeSliceSelect(benchmark::State& state) {
  // AT-clause queries evaluate against past extents and coerce temporal
  // attributes at the past instant.
  Fixture& fx = SharedFixture(state.range(0));
  Statement stmt =
      ParseStatement(
          "select x from x in employee at 10 where x.salary > 50000")
          .value();
  (void)TypeCheckSelect(&*stmt.select, fx.db);
  for (auto _ : state) {
    auto rows = EvaluateSelect(*stmt.select, fx.db);
    if (!rows.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvaluateTimeSliceSelect)->Arg(20)->Arg(100)->Arg(400);

void BM_EvaluateEqualityPredicate(benchmark::State& state) {
  // vinstant() in a WHERE clause: quadratic-ish work per pair, the
  // expensive end of the language.
  Fixture& fx = SharedFixture(20);
  std::string query =
      "select x from x in employee where vinstant(x, " +
      fx.pop.persons.front().ToString() + ")";
  Statement stmt = ParseStatement(query).value();
  (void)TypeCheckSelect(&*stmt.select, fx.db);
  for (auto _ : state) {
    auto rows = EvaluateSelect(*stmt.select, fx.db);
    if (!rows.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_EvaluateEqualityPredicate);

void BM_When(benchmark::State& state) {
  // Temporal selection: piecewise evaluation over one object's history.
  Fixture& fx = SharedFixture(state.range(0));
  std::string q = "when " + fx.pop.persons.front().ToString() +
                  ".salary > 50000";
  Statement stmt = ParseStatement(q).value();
  for (auto _ : state) {
    auto held = EvaluateWhen(*stmt.when->condition, fx.db);
    if (!held.ok()) state.SkipWithError("when failed");
    benchmark::DoNotOptimize(held);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_When)->Arg(20)->Arg(100);

void BM_ExpressionEvaluation(benchmark::State& state) {
  // A single bound expression evaluation (the per-row cost).
  Fixture& fx = SharedFixture(50);
  ExprPtr expr =
      ParseExpression("x.salary > 50000 and x.birthyear < 1990").value();
  TypeEnv tenv;
  tenv.emplace("x", "employee");
  (void)TypeCheckExpr(expr.get(), fx.db, tenv);
  ValueEnv venv;
  venv.emplace("x", fx.pop.persons.front());
  for (auto _ : state) {
    auto v = EvaluateExpr(*expr, fx.db, venv, fx.db.now());
    if (!v.ok()) state.SkipWithError("evaluation failed");
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ExpressionEvaluation);

void BM_CompiledSelect(benchmark::State& state) {
  // The same query as BM_EvaluateSelect, lowered once and executed on
  // the batch VM each iteration (the plan-cache steady state).
  Fixture& fx = SharedFixture(state.range(0));
  Statement stmt = ParseStatement(kSelect).value();
  LowerOutcome outcome = LowerStatement(&stmt, fx.db).value();
  const ExecProgram& prog = outcome.plan->program;
  for (auto _ : state) {
    auto rows = RunSelect(prog, fx.db);
    if (!rows.ok()) state.SkipWithError("vm failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompiledSelect)->Arg(20)->Arg(100)->Arg(400);

void BM_CompiledWhen(benchmark::State& state) {
  Fixture& fx = SharedFixture(state.range(0));
  std::string q = "when " + fx.pop.persons.front().ToString() +
                  ".salary > 50000";
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, fx.db).value();
  const ExecProgram& prog = outcome.plan->program;
  for (auto _ : state) {
    auto held = RunWhen(prog, fx.db);
    if (!held.ok()) state.SkipWithError("vm failed");
    benchmark::DoNotOptimize(held);
  }
  state.SetLabel("persons=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CompiledWhen)->Arg(20)->Arg(100);

// --- the compiled-vs-interpreted report (BENCH_query.json) -------------------

// Mean microseconds per call of `fn` over one timed span long enough to
// dominate timer noise.
template <typename Fn>
double SpanUs(Fn&& fn) {
  constexpr auto kMinSpan = std::chrono::milliseconds(60);
  int iters = 0;
  auto begin = std::chrono::steady_clock::now();
  auto end = begin;
  do {
    fn();
    ++iters;
    end = std::chrono::steady_clock::now();
  } while (end - begin < kMinSpan);
  return std::chrono::duration<double, std::micro>(end - begin).count() /
         iters;
}

struct SweepPoint {
  long long x = 0;  // history length or extent size
  double interp_us = 0.0;    // Session::Execute, compiled reads off
  double compiled_us = 0.0;  // Session::Execute, a plan-cache hit
  double key_vm_us = 0.0;    // layer: NormalizePlanKey + the VM run
  double speedup() const {
    return compiled_us > 0.0 ? interp_us / compiled_us : 0.0;
  }
};

// The best span of each of `fns`, measured with INTERLEAVED repeats: a
// transient load spike then degrades the same repeats of every side
// instead of landing entirely on whichever side happened to be measured
// during it.
std::vector<double> MeasureInterleaved(
    const std::vector<std::function<void()>>& fns) {
  constexpr int kRepeats = 5;
  std::vector<double> best(fns.size(), 0.0);
  for (int r = 0; r < kRepeats; ++r) {
    for (size_t i = 0; i < fns.size(); ++i) {
      const double us = SpanUs(fns[i]);
      if (r == 0 || us < best[i]) best[i] = us;
    }
  }
  return best;
}

// Times one statement the three ways a sweep point reports: end to end
// through a compile-off and a compile-on Session over `db`, and the
// compiled path's key + VM layer alone on the cached program.
SweepPoint MeasureStatement(long long x, const Database& db,
                            const std::string& q) {
  Engine engine(std::make_unique<Database>(db));
  Session compiled = engine.OpenSession();
  Session walker = engine.OpenSession();
  walker.set_compile_enabled(false);
  Result<std::string> expected = walker.Execute(q);
  Result<std::string> warmed = compiled.Execute(q);  // fills the cache
  if (!expected.ok() || !warmed.ok() || *expected != *warmed) {
    std::fprintf(stderr, "compiled and tree-walked results differ: %s\n",
                 q.c_str());
  }
  ReadSnapshot snap = engine.OpenSnapshot();
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, snap.db()).value();
  const LoweredPlan& plan = *outcome.plan;
  const std::vector<double> us = MeasureInterleaved({
      [&] { benchmark::DoNotOptimize(walker.Execute(q)); },
      [&] { benchmark::DoNotOptimize(compiled.Execute(q)); },
      [&] {
        std::string key = NormalizePlanKey(q);
        benchmark::DoNotOptimize(key);
        if (plan.kind == LoweredPlan::Kind::kSelect) {
          benchmark::DoNotOptimize(RunSelect(plan.program, snap.db()));
        } else {
          benchmark::DoNotOptimize(RunWhen(plan.program, snap.db()));
        }
      },
  });
  return SweepPoint{x, us[0], us[1], us[2]};
}

// One object whose salary flips across a threshold every step: H
// segments, maximally fragmented WHEN answer (worst case for both
// executors).
Database MakeHistoryDb(int history) {
  Database db;
  Interpreter interp(&db);
  (void)interp.Execute(
      "define class employee attributes salary: temporal(integer), "
      "name: string end");
  (void)interp.Execute("create employee (salary: 0, name: 'h')");
  for (int k = 1; k < history; ++k) {
    (void)interp.Execute("tick 2");
    (void)interp.Execute("update i1 set salary = " +
                         std::to_string(k % 2 == 0 ? 0 : 100));
  }
  return db;
}

// N objects, each with `history` salary segments.
Database MakeExtentDb(int objects, int history) {
  Database db;
  Interpreter interp(&db);
  (void)interp.Execute(
      "define class employee attributes salary: temporal(integer), "
      "name: string end");
  for (int i = 0; i < objects; ++i) {
    (void)interp.Execute("create employee (salary: " +
                         std::to_string(i % 100) + ", name: 'e" +
                         std::to_string(i) + "')");
  }
  for (int k = 1; k < history; ++k) {
    (void)interp.Execute("tick 2");
    for (int i = 0; i < objects; i += 7) {
      (void)interp.Execute("update i" + std::to_string(i + 1) +
                           " set salary = " +
                           std::to_string((i + k) % 100));
    }
  }
  return db;
}

// Each sweep point compares the two paths end to end, as a Session
// executes them per statement (result formatting included):
//   interpreted — parse, type check, tree-walk (repeated on every
//     execution);
//   compiled — normalize the cache key, look it up, run the cached
//     program (no parse: parse, type check and lowering happened once,
//     at the plan-cache miss).
// The key + VM layer row is the compiled path without what the session
// adds around it (snapshot pin, cache lookup, result formatting).
SweepPoint MeasureWhenPoint(int history) {
  // A compound condition with several temporal reads: the tree-walker
  // pays a recursive descent plus a binary search per attribute access
  // per boundary; the VM merge-walks the history once per batch (CSE
  // folds the repeated reads into one load).
  return MeasureStatement(history, MakeHistoryDb(history),
                          "when i1.salary > 50 and i1.salary * 2 < 300 or "
                          "i1.salary + 25 = 25");
}

SweepPoint MeasureSelectPoint(int objects, int history) {
  return MeasureStatement(objects, MakeExtentDb(objects, history),
                          "select x.name from x in employee where "
                          "x.salary > 40 and x.salary < 90");
}

// --- the index-vs-scan report (temporal secondary indexes) -------------------

// One sweep point comparing the VM's two access paths over identical
// data: the full extent scan (PR 8 behavior, still what the planner
// picks when no index helps) against an index probe.
struct IndexPoint {
  long long x = 0;  // extent size
  double scan_us = 0.0;
  double index_us = 0.0;
  double probe_us = 0.0;      // layer: the select's Database::IndexProbe
  double probe_one_us = 0.0;  // layer: a probe matching one posting
  double speedup() const {
    return index_us > 0.0 ? scan_us / index_us : 0.0;
  }
};

// Selective WHERE over N objects: the scan projects salary for every
// extent row; the probe touches ~N/100 postings plus the survivors.
// Both programs run over the SAME database (an index never changes what
// a scan program does), so the comparison is access path only.
IndexPoint MeasureIndexSelectPoint(int objects, int history) {
  Database db = MakeExtentDb(objects, history);
  const std::string q =
      "select x.name from x in employee where x.salary = 5";
  Statement scan_stmt = ParseStatement(q).value();
  LowerOutcome scan_outcome = LowerStatement(&scan_stmt, db).value();
  const ExecProgram& scan_prog = scan_outcome.plan->program;

  Status created = db.CreateIndex(
      {"bench_salary", IndexKind::kValue, "employee", "salary"});
  if (!created.ok()) {
    std::fprintf(stderr, "index creation failed: %s\n",
                 created.ToString().c_str());
  }
  Statement idx_stmt = ParseStatement(q).value();
  LowerOutcome idx_outcome = LowerStatement(&idx_stmt, db).value();
  const ExecProgram& idx_prog = idx_outcome.plan->program;
  if (!idx_prog.access.has_value()) {
    std::fprintf(stderr,
                 "planner skipped the index at %d objects: %s\n", objects,
                 idx_prog.access_note.c_str());
  }

  // The probe the index program starts with, alone: the candidate list
  // before the extent check and the projection. It matches ~N/100
  // postings, so the report also times a probe that matches one posting
  // at every N — on a copy where i1's salary is -1, a value no other
  // posting holds. Its growth across the sweep is what the index
  // layout costs a probe as the index grows (probe_growth).
  Database marked(db);
  Status updated =
      marked.UpdateAttribute(Oid{1}, "salary", Value::Integer(-1));
  if (!updated.ok()) {
    std::fprintf(stderr, "marking i1 failed: %s\n",
                 updated.ToString().c_str());
  }
  const Value bound = Value::Integer(5);
  const Value unique = Value::Integer(-1);
  const std::vector<double> us = MeasureInterleaved({
      [&] { benchmark::DoNotOptimize(RunSelect(scan_prog, db)); },
      [&] { benchmark::DoNotOptimize(RunSelect(idx_prog, db)); },
      [&] {
        benchmark::DoNotOptimize(
            db.IndexProbe("bench_salary", ProbeOp::kEq, bound, db.now()));
      },
      [&] {
        benchmark::DoNotOptimize(marked.IndexProbe(
            "bench_salary", ProbeOp::kEq, unique, marked.now()));
      },
  });
  return IndexPoint{objects, us[0], us[1], us[2], us[3]};
}

// Selective `during` window (the last 9 instants) over one object with H
// salary segments: the boundary collection binary-searches the first
// segment in the window and walks only the few inside it, so the time
// should stay flat in H.
struct DuringPoint {
  long long history = 0;
  double when_us = 0.0;
};

DuringPoint MeasureWhenDuringPoint(int history) {
  Database db = MakeHistoryDb(history);
  const TimePoint end = db.now();
  const std::string q = "when i1.salary > 50 during [" +
                        std::to_string(end > 8 ? end - 8 : 0) + "," +
                        std::to_string(end) + "]";
  Statement stmt = ParseStatement(q).value();
  LowerOutcome outcome = LowerStatement(&stmt, db).value();
  const ExecProgram& prog = outcome.plan->program;
  const std::vector<double> us = MeasureInterleaved({
      [&] { benchmark::DoNotOptimize(RunWhen(prog, db)); },
  });
  return DuringPoint{history, us[0]};
}

// Create growth: `create` through Session::Execute on an Engine, with
// one `tick` between creates so each lands at its own instant (the case
// where a set-valued extent history stored a full member-set copy per
// instant). Each create adds the oid to employee's ext and proper-ext
// and to person's ext. At each checkpoint N the sweep reports the median
// create over the kGrowthWindow creates ending at N, and the resident
// memory added per 1k creates since the previous checkpoint.
struct GrowthPoint {
  long long members = 0;
  double create_us = 0.0;
  double rss_mib_per_1k = 0.0;
};

constexpr int kGrowthWindow = 501;

double ResidentMib() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::vector<GrowthPoint> MeasureCreateGrowth(
    const std::vector<int>& checkpoints) {
  Engine engine;
  Session s = engine.OpenSession();
  for (const char* ddl :
       {"define class person attributes name: temporal(string), "
        "age: integer end",
        "define class employee under person attributes "
        "salary: temporal(integer) end"}) {
    if (!s.Execute(ddl).ok()) std::fprintf(stderr, "failed: %s\n", ddl);
  }
  std::vector<GrowthPoint> out;
  std::vector<double> window;
  double rss_before = ResidentMib();
  int created = 0;
  for (int checkpoint : checkpoints) {
    const int from = created;
    for (; created < checkpoint; ++created) {
      const std::string q = "create employee (name: 'e" +
                            std::to_string(created) +
                            "', age: 30, salary: " +
                            std::to_string(created % 1000) + ")";
      const auto begin = std::chrono::steady_clock::now();
      const bool ok = s.Execute(q).ok();
      const auto end = std::chrono::steady_clock::now();
      if (!ok || !s.Execute("tick").ok()) {
        std::fprintf(stderr, "create growth failed at %d\n", created);
        return out;
      }
      if (checkpoint - created <= kGrowthWindow) {
        window.push_back(
            std::chrono::duration<double, std::micro>(end - begin).count());
      }
    }
    std::nth_element(window.begin(), window.begin() + window.size() / 2,
                     window.end());
    const double rss = ResidentMib();
    out.push_back({checkpoint, window[window.size() / 2],
                   (rss - rss_before) * 1000.0 / (checkpoint - from)});
    rss_before = rss;
    window.clear();
  }
  return out;
}

// pi over a class that created 4,000 members and keeps the last 10: the
// extent scan skips every 512-row chunk whose rows all ended before now
// (ExtentRows::At), so it reads the one chunk holding the members.
double MeasurePiTenOf4k() {
  Database db;
  if (!Interpreter(&db)
           .Execute("define class member attributes x: integer end")
           .ok()) {
    std::fprintf(stderr, "define class member failed\n");
  }
  constexpr int kCreated = 4000;
  constexpr int kKept = 10;
  for (int i = 0; i < kCreated; ++i) {
    if (!db.CreateObject("member", {{"x", Value::Integer(i)}}).ok()) {
      std::fprintf(stderr, "create %d failed\n", i);
    }
  }
  db.Tick();
  for (uint64_t id = 1; id <= kCreated - kKept; ++id) {
    if (!db.DeleteObject(Oid{id}).ok()) {
      std::fprintf(stderr, "delete i%llu failed\n",
                   static_cast<unsigned long long>(id));
    }
  }
  db.Tick();
  if (db.Pi("member", db.now()).size() != kKept) {
    std::fprintf(stderr, "pi(member) should hold %d members\n", kKept);
  }
  return MeasureInterleaved(
      {[&] { benchmark::DoNotOptimize(db.Pi("member", db.now())); }})[0];
}

void AppendIndexSweep(const std::vector<IndexPoint>& points,
                      std::string* json) {
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[240];
    std::snprintf(buf, sizeof(buf),
                  "    {\"objects\": %lld, \"scan_us\": %.2f, "
                  "\"index_us\": %.2f, \"speedup\": %.2f, "
                  "\"layer_probe_us\": %.2f, "
                  "\"layer_probe_one_us\": %.2f}%s\n",
                  points[i].x, points[i].scan_us, points[i].index_us,
                  points[i].speedup(), points[i].probe_us,
                  points[i].probe_one_us, i + 1 < points.size() ? "," : "");
    *json += buf;
  }
}

void AppendSweep(const std::vector<SweepPoint>& points, const char* xname,
                 std::string* json) {
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "    {\"%s\": %lld, \"interp_us\": %.2f, "
                  "\"compiled_us\": %.2f, \"speedup\": %.2f, "
                  "\"layer_key_vm_us\": %.2f}%s\n",
                  xname, points[i].x, points[i].interp_us,
                  points[i].compiled_us, points[i].speedup(),
                  points[i].key_vm_us, i + 1 < points.size() ? "," : "");
    *json += buf;
  }
}

int WriteQueryReport(const std::string& path) {
  // First, while the heap is fresh, so its RSS readings are the creates'.
  const std::vector<GrowthPoint> create_sweep =
      MeasureCreateGrowth({1000, 4000, 16000});
  std::vector<SweepPoint> history_sweep;
  for (int h : {64, 256, 1024, 4096}) {
    history_sweep.push_back(MeasureWhenPoint(h));
  }
  std::vector<SweepPoint> extent_sweep;
  for (int n : {100, 1000, 4000}) {
    extent_sweep.push_back(MeasureSelectPoint(n, 16));
  }
  std::vector<IndexPoint> index_select_sweep;
  for (int n : {100, 1000, 4000}) {
    index_select_sweep.push_back(MeasureIndexSelectPoint(n, 16));
  }
  std::vector<DuringPoint> during_sweep;
  for (int h : {64, 256, 1024, 4096, 16384}) {
    during_sweep.push_back(MeasureWhenDuringPoint(h));
  }
  const double pi_ten_of_4k_us = MeasurePiTenOf4k();
  // Per-create cost at the largest extent over the smallest; the report
  // fails (exit 1) above kMaxCreateGrowth, so CI gates on it.
  constexpr double kMaxCreateGrowth = 2.0;
  const double create_growth =
      create_sweep.size() == 3
          ? create_sweep.back().create_us / create_sweep.front().create_us
          : 0.0;
  // Index-vs-scan speedup on the selective WHERE at the largest extent,
  // and how much a one-posting probe grows from the smallest extent to
  // the largest; the report fails above kMaxProbeGrowth, so CI gates on
  // a probe that stays flat as the index grows.
  constexpr double kMaxProbeGrowth = 1.5;
  const double index_speedup_at_max = index_select_sweep.back().speedup();
  const double probe_growth = index_select_sweep.back().probe_one_us /
                              index_select_sweep.front().probe_one_us;

  double min_history_speedup = 0.0;
  for (const SweepPoint& p : history_sweep) {
    if (min_history_speedup == 0.0 || p.speedup() < min_history_speedup) {
      min_history_speedup = p.speedup();
    }
  }

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"query\",\n";
  json += "  \"pipeline\": \"Session::Execute: plan-cache hit vs "
          "tree-walker\",\n";
  json += "  \"history_sweep\": [\n";
  AppendSweep(history_sweep, "history", &json);
  json += "  ],\n";
  json += "  \"extent_sweep\": [\n";
  AppendSweep(extent_sweep, "objects", &json);
  json += "  ],\n";
  json += "  \"index_select_sweep\": [\n";
  AppendIndexSweep(index_select_sweep, &json);
  json += "  ],\n";
  json += "  \"during_sweep\": [\n";
  char buf[200];
  for (size_t i = 0; i < during_sweep.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"history\": %lld, \"when_us\": %.2f}%s\n",
                  during_sweep[i].history, during_sweep[i].when_us,
                  i + 1 < during_sweep.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  json += "  \"create_sweep\": [\n";
  for (size_t i = 0; i < create_sweep.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"members\": %lld, \"create_us\": %.2f, "
                  "\"rss_mib_per_1k_creates\": %.2f}%s\n",
                  create_sweep[i].members, create_sweep[i].create_us,
                  create_sweep[i].rss_mib_per_1k,
                  i + 1 < create_sweep.size() ? "," : "");
    json += buf;
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf), "  \"pi_10_of_4k_us\": %.2f,\n",
                pi_ten_of_4k_us);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"history_sweep_min_speedup\": %.2f,\n"
                "  \"index_speedup_at_max\": %.2f,\n"
                "  \"probe_growth\": %.2f,\n"
                "  \"create_growth\": %.2f\n",
                min_history_speedup, index_speedup_at_max, probe_growth,
                create_growth);
  json += buf;
  json += "}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr,
               "wrote %s (min history-sweep speedup: %.2fx, "
               "index speedup at max size: %.2fx, probe growth: %.2fx, "
               "create growth: %.2fx)\n%s",
               path.c_str(), min_history_speedup, index_speedup_at_max,
               probe_growth, create_growth, json.c_str());
  if (create_growth == 0.0 || create_growth > kMaxCreateGrowth) {
    std::fprintf(stderr, "create growth %.2f is outside (0, %.1f]\n",
                 create_growth, kMaxCreateGrowth);
    return 1;
  }
  if (probe_growth == 0.0 || probe_growth > kMaxProbeGrowth) {
    std::fprintf(stderr, "probe growth %.2f is outside (0, %.1f]\n",
                 probe_growth, kMaxProbeGrowth);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tchimera

// Custom main: the google-benchmark suite as usual, plus the
// machine-readable compiled-vs-interpreted report.
//   --json[=PATH]  write BENCH_query.json (or PATH) after the suite
//   --json-only    skip the google-benchmark suite (the CI artifact path)
int main(int argc, char** argv) {
  std::string json_path;
  bool json_only = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-only") {
      json_only = true;
      if (json_path.empty()) json_path = "BENCH_query.json";
    } else if (arg == "--json") {
      json_path = "BENCH_query.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_only) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  if (!json_path.empty()) {
    return tchimera::WriteQueryReport(json_path);
  }
  return 0;
}
