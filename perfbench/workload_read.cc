// tql_read: one session thread calling Session::Execute in process on a
// read-only mix over a 64-object hot set. Its ~200 distinct texts fit
// the engine's 256-entry plan cache, so select/when take the cache-hit
// path; snapshot/history take the tree-walker. No server, no storage.
#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "query/interpreter.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/vm.h"
#include "workloads.h"

namespace perfbench {

using tchimera::Database;
using tchimera::Engine;
using tchimera::Oid;
using tchimera::PlanCache;
using tchimera::Rng;
using tchimera::Session;
using tchimera::Statement;

namespace {

constexpr size_t kHotSet = 64;
constexpr int64_t kWhenSalary = 70000;
constexpr int kPastInstants[] = {25, 50, 75, 90};  // offsets into the history

}  // namespace

std::string MakeReadStatement(int kind, Oid key, const Population& pop,
                              Rng* rng) {
  const std::string k = key.ToString();
  switch (kind) {
    case 0:
      return "snapshot " + k;
    case 1:
      return "history " + k + ".salary";
    case 2:
      return "when " + k + ".salary > " + std::to_string(kWhenSalary);
    case 3:
      return "select x.name from x in employee where x.salary > " +
             std::to_string(pop.select_thresholds[rng->Index(4)]);
    default: {
      const int64_t t = pop.history_start + kPastInstants[rng->Index(4)];
      return "select x.salary @ " + std::to_string(t) +
             " from x in employee where x.salary > " +
             std::to_string(pop.select_thresholds[rng->Index(4)]);
    }
  }
}

std::string ReplayRead(const std::string& text, const Database& db,
                       PlanCache* cache, uint64_t parent, uint64_t request) {
  auto error = [](const tchimera::Status& s) { return "error: " + s.ToString(); };
  tchimera::Result<Statement> parsed = ReplaySpan(
      "ParseStatement", parent, request,
      [&] { return tchimera::ParseStatement(text); });
  if (!parsed.ok()) return error(parsed.status());
  Statement stmt = std::move(parsed).value();
  if (stmt.kind == Statement::Kind::kSelect ||
      stmt.kind == Statement::Kind::kWhen) {
    std::string key = ReplaySpan("NormalizePlanKey", parent, request,
                                 [&] { return tchimera::NormalizePlanKey(text); });
    const uint64_t schema_version = db.schema_version();
    std::shared_ptr<const tchimera::CachedPlan> cached =
        ReplaySpan("PlanCache::Lookup", parent, request,
                   [&] { return cache->Lookup(key, schema_version); });
    if (cached == nullptr) {
      // The miss path of Session::TryCompiledRead: lower, then publish
      // (the insert is part of this span).
      tchimera::Status lowered = ReplaySpan(
          "LowerStatement", parent, request, [&]() -> tchimera::Status {
            TCH_ASSIGN_OR_RETURN(tchimera::LowerOutcome outcome,
                                 tchimera::LowerStatement(&stmt, db));
            auto fresh = std::make_shared<tchimera::CachedPlan>();
            if (outcome.compiled()) {
              fresh->plan = std::move(outcome.plan);
            } else {
              fresh->fallback_reason = std::move(outcome.fallback_reason);
            }
            cache->Insert(key, schema_version, fresh);
            cached = std::move(fresh);
            return tchimera::Status::OK();
          });
      if (!lowered.ok()) return error(lowered);
    }
    if (cached->plan.has_value()) {
      const tchimera::LoweredPlan& plan = *cached->plan;
      tchimera::Result<std::string> ran = ReplaySpan(
          "VM", parent, request, [&]() -> tchimera::Result<std::string> {
            if (plan.kind == tchimera::LoweredPlan::Kind::kSelect) {
              TCH_ASSIGN_OR_RETURN(auto rows,
                                   tchimera::RunSelect(plan.program, db));
              return tchimera::FormatSelectRows(rows);
            }
            TCH_ASSIGN_OR_RETURN(auto held, tchimera::RunWhen(plan.program, db));
            return held.ToString();
          });
      return ran.ok() ? ran.value() : error(ran.status());
    }
  }
  tchimera::Result<std::string> walked = ReplaySpan(
      "Interpreter", parent, request, [&] {
        // Read statements touch only const members (as in Session).
        tchimera::Interpreter interp(const_cast<Database*>(&db));
        return interp.ExecuteStatement(&stmt);
      });
  return walked.ok() ? walked.value() : error(walked.status());
}

double HitRatio(const PlanCache::Stats& before, const PlanCache::Stats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  return hits + misses > 0 ? hits / (hits + misses) : 0;
}

void AddQueryLayerMetrics(RunResult* out,
                          const std::map<std::string, SpanStats>& stats,
                          bool* sums_hold) {
  LayerSum sum = SumLayer(stats, "Session::Execute(read)",
                          {"ParseStatement", "NormalizePlanKey",
                           "PlanCache::Lookup", "LowerStatement", "VM",
                           "Interpreter"});
  out->Metric("query.execute_us", sum.parent_us, "us");
  const char* names[] = {"query.parse_us", "query.plan_key_us",
                         "query.plan_lookup_us", "query.lower_us",
                         "query.vm_us", "query.treewalk_us"};
  for (size_t i = 0; i < sum.children_us.size(); ++i) {
    out->Metric(names[i], sum.children_us[i].second, "us");
  }
  out->Metric("query.residual_us", sum.residual_us, "us");
  if (!sum.holds) {
    std::fprintf(stderr, "perfbench: query layer sum does not hold\n");
    *sums_hold = false;
  }
}

namespace {

struct ReadSetup {
  Population pop;  // db moved into the engine
  std::unique_ptr<Engine> engine;
};

}  // namespace

RunResult RunTqlRead(const Options& options) {
  RunResult out;
  AddRunMeta(&out, options);
  out.Meta("sessions", 1.0);

  // Set up several times and report the median; the last one is used.
  std::vector<double> setup_s;
  ReadSetup setup;
  for (int k = 0; k < kSetups; ++k) {
    setup = ReadSetup();
    const int64_t t0 = NowNs();
    tchimera::Result<Population> pop = BuildPopulation(options.seed, true);
    if (!pop.ok()) {
      out.Fail("population: " + pop.status().ToString());
      return out;
    }
    setup.pop = std::move(pop).value();
    setup.engine = std::make_unique<Engine>(std::move(setup.pop.db));
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  Engine& engine = *setup.engine;
  const Population& pop = setup.pop;

  // The workload: a seeded stream over the hot set's distinct texts.
  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<Oid> hot = pop.employees;
  std::shuffle(hot.begin(), hot.end(), rng.engine());
  hot.resize(kHotSet);
  std::vector<std::string> texts;
  std::unordered_map<std::string, uint32_t> index_of;
  constexpr size_t kStream = 1 << 16;
  std::vector<uint32_t> stream(kStream);
  for (size_t i = 0; i < kStream; ++i) {
    std::string text = MakeReadStatement(
        static_cast<int>(rng.Index(kReadTemplates)), rng.Pick(hot), pop, &rng);
    auto [it, inserted] = index_of.emplace(text, texts.size());
    if (inserted) texts.push_back(text);
    stream[i] = it->second;
  }
  out.Meta("distinct_statements", static_cast<double>(texts.size()));

  // Output check before timing: every distinct statement's compiled
  // result equals the tree-walker's, and is not an error.
  Session session = engine.OpenSession();
  Session walker = engine.OpenSession();
  walker.set_compile_enabled(false);
  std::vector<std::string> expected(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    tchimera::Result<std::string> compiled = session.Execute(texts[i]);
    tchimera::Result<std::string> walked = walker.Execute(texts[i]);
    if (!compiled.ok() || !walked.ok()) {
      out.Fail("read failed: " + texts[i]);
      continue;
    }
    if (compiled.value() != walked.value()) {
      out.Fail("compiled result differs from tree-walker: " + texts[i]);
    }
    expected[i] = compiled.value();
  }
  // The selects must take the index access path (else this workload
  // would not measure what it claims).
  {
    tchimera::ReadSnapshot snap = engine.OpenSnapshot();
    for (const std::string& text : texts) {
      if (text.rfind("select", 0) != 0) continue;
      tchimera::Result<Statement> stmt = tchimera::ParseStatement(text);
      if (!stmt.ok()) continue;
      tchimera::Result<tchimera::LowerOutcome> lowered =
          tchimera::LowerStatement(&stmt.value(), snap.db());
      if (!lowered.ok() || !lowered.value().compiled() ||
          !lowered.value().plan->program.access.has_value()) {
        out.Fail("select is not index-backed: " + text);
      }
    }
  }

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  auto check = [&](uint32_t idx, const tchimera::Result<std::string>& r) {
    if (!r.ok() || r.value() != expected[idx]) {
      ++out.failed;
      if (out.failed == 1) out.Fail("wrong result for: " + texts[idx]);
    }
  };

  // Warm-up (not timed): a few passes' worth of the stream fill the plan
  // cache.
  for (size_t i = 0; i < texts.size() * 4; ++i) {
    check(stream[i % kStream], session.Execute(texts[stream[i % kStream]]));
  }

  // Untraced phase: the end-to-end numbers.
  LatencySamples lat;
  const PlanCache::Stats cache_before = engine.plan_cache().stats();
  size_t pos = 0;
  uint64_t ops = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(phase_s * 1e9);
  int64_t end = start;
  while (end < deadline) {
    const uint32_t idx = stream[pos++ % kStream];
    const int64_t t0 = NowNs();
    tchimera::Result<std::string> r = session.Execute(texts[idx]);
    end = NowNs();
    lat.Add(end - t0);
    ++ops;
    check(idx, r);
  }
  const double ops_per_s = ops / ((end - start) / 1e9);
  const double peak_rss_mb = PeakRssMb();
  const PlanCache::Stats cache_after = engine.plan_cache().stats();
  out.attempted += ops;

  out.Metric("setup_s", Median(setup_s), "s");
  AddEndToEndMetrics(&out, lat, (end - start) / 1e9);
  AddLatencyMetrics(&out, "read", lat);
  out.Metric("peak_rss_mb", peak_rss_mb, "MiB");
  out.Metric("query.plan_cache_hit_ratio", HitRatio(cache_before, cache_after),
             "ratio");
  out.Metric("core.live_instances",
             static_cast<double>(Database::live_instance_count()), "count");

  if (options.trace) {
    // Traced phase: each request is timed as Session::Execute, then
    // replayed through the query layer's calls.
    Tracer& tracer = GlobalTracer();
    tracer.set_enabled(true);
    PlanCache replay_cache;
    bool replay_diverged = false;
    uint64_t traced_ops = 0;
    const int64_t tstart = NowNs();
    const int64_t tdeadline = tstart + static_cast<int64_t>(phase_s * 1e9);
    int64_t tend = tstart;
    while (tend < tdeadline) {
      const uint32_t idx = stream[pos++ % kStream];
      const uint64_t request = ++traced_ops;
      ScopedSpan parent("Session::Execute(read)", request);
      tchimera::Result<std::string> r = session.Execute(texts[idx]);
      parent.End();
      check(idx, r);
      tchimera::ReadSnapshot snap = engine.OpenSnapshot();
      std::string replayed = ReplayRead(texts[idx], snap.db(), &replay_cache,
                                        parent.id(), request);
      if (r.ok() && replayed != r.value() && !replay_diverged) {
        replay_diverged = true;
        out.Fail("query replay diverged from Session::Execute: " + texts[idx]);
      }
      tend = NowNs();
    }
    tracer.set_enabled(false);
    out.attempted += traced_ops;
    const double traced_ops_per_s = traced_ops / ((tend - tstart) / 1e9);
    std::vector<Span> spans = tracer.Collect();
    std::map<std::string, SpanStats> stats = SummarizeSpans(spans);
    bool sums_hold = CheckNesting(spans) == 0;
    AddQueryLayerMetrics(&out, stats, &sums_hold);
    out.Metric("trace.overhead_pct",
               (ops_per_s - traced_ops_per_s) / ops_per_s * 100, "%");
    out.Metric("trace.layer_sums_ok", sums_hold ? 1 : 0, "bool");
    out.Metric("trace.spans", static_cast<double>(spans.size()), "count");
    WriteSpans(spans, options.work_dir + "/trace-tql_read.jsonl", 20000);
  }
  out.Metric("failed_ratio",
             out.attempted ? static_cast<double>(out.failed) / out.attempted : 0,
             "ratio");
  return out;
}

}  // namespace perfbench
