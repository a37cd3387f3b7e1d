// tql_write: two writer sessions running durable optimistic writes
// through a GroupCommitJournal (one fdatasync per batch). Each writer
// owns 100 objects; 10% of all writes hit one shared object, so some
// commits lose validation and retry. 70% of writes are retroactive
// `during [lo,lo+1]` corrections that splice mid-history, 30% are
// current-time updates. No plan cache, no VM, no server.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/db/consistency.h"
#include "storage/recovery.h"
#include "storage/serializer.h"
#include "triggers/trigger.h"
#include "workloads.h"

namespace perfbench {

using tchimera::Database;
using tchimera::Engine;
using tchimera::Oid;
using tchimera::Rng;
using tchimera::Session;
using tchimera::Status;

DurableEngine::~DurableEngine() {
  if (journal != nullptr && journal->is_open()) journal->Close();
}

tchimera::Result<std::unique_ptr<DurableEngine>> OpenDurableEngine(
    const Options& options, const std::string& name, bool traced) {
  auto d = std::make_unique<DurableEngine>();
  d->dir = options.work_dir + "/" + name;
  d->snapshot_path = d->dir + "/snapshot.tchdb";
  d->journal_path = d->dir + "/journal.tql";
  TCH_ASSIGN_OR_RETURN(d->pop, BuildPopulation(options.seed, true));
  d->engine = std::make_unique<Engine>(std::move(d->pop.db));
  d->counters = std::make_unique<StorageCounters>();
  d->files = std::make_unique<MemfdFileSystem>();
  tchimera::JournalOptions journal_options;
  journal_options.fs = d->files.get();
  if (traced) {
    d->traced_files =
        std::make_unique<TracedFileSystem>(d->files.get(), d->counters.get());
    journal_options.fs = d->traced_files.get();
  }
  d->journal = std::make_unique<tchimera::GroupCommitJournal>();
  TCH_RETURN_IF_ERROR(d->journal->Open(d->journal_path, journal_options));
  if (traced) {
    d->sink = std::make_unique<TracedSink>(d->journal.get(), d->counters.get());
    d->engine->set_commit_sink(d->sink.get());
  } else {
    d->engine->set_commit_sink(d->journal.get());
  }
  // Checkpoint the population, so the directory alone recovers to the
  // engine's state (the same protocol as the REPL's `.checkpoint`).
  DurableEngine* raw = d.get();
  TCH_RETURN_IF_ERROR(raw->engine->WithExclusive(
      [raw, &journal_options](Database& live, tchimera::ActiveDatabase& active) {
        return raw->journal->WithQuiesced([&](tchimera::Journal& journal) {
          return tchimera::RecoveryManager::Checkpoint(
              live, &journal, raw->snapshot_path, journal_options.fs,
              active.DefinitionStatements());
        });
      }));
  return d;
}

void VerifyDurableEngine(DurableEngine* d, RunResult* out) {
  d->journal->Close();
  tchimera::ReadSnapshot snap = d->engine->OpenSnapshot();
  tchimera::Result<uint32_t> live = tchimera::DatabaseStateHash(
      snap.db(), d->engine->active().DefinitionStatements());
  tchimera::RecoveryOptions recovery_options;
  recovery_options.fs = d->files.get();
  tchimera::RecoveryManager recovery(d->snapshot_path, d->journal_path,
                                     recovery_options);
  tchimera::RecoveryStats stats;
  tchimera::Result<std::unique_ptr<Database>> recovered =
      recovery.Recover(&stats);
  if (!live.ok() || !recovered.ok()) {
    out->Fail("recovery: " + (recovered.ok() ? live.status().ToString()
                                             : recovered.status().ToString()));
    return;
  }
  tchimera::Result<uint32_t> hash = tchimera::DatabaseStateHash(**recovered);
  if (!hash.ok() || hash.value() != live.value()) {
    out->Fail("recovered state hash differs from the engine's final state");
  }
  out->Meta("recovered_statements", static_cast<double>(stats.statements_applied));
  Status consistent = tchimera::CheckDatabaseConsistency(snap.db());
  if (!consistent.ok()) {
    out->Fail("final snapshot inconsistent: " + consistent.ToString());
  }
}

void AddCoreLayerMetrics(RunResult* out, uint64_t seed,
                         const std::vector<std::string>& writes,
                         bool* sums_hold) {
  // The same statements on a fresh population, once with emp_salary and
  // once without; the difference is the index maintenance cost.
  struct Pass {
    bool with_index;
    const char* parent;
    const char* begin;
    const char* apply;
    const char* commit;
  };
  const Pass passes[] = {
      {true, "core.write", "BeginTransaction", "ActiveDatabase::Execute",
       "CommitTransaction"},
      {false, "core.write(noindex)", "BeginTransaction(noindex)",
       "ActiveDatabase::Execute(noindex)", "CommitTransaction(noindex)"}};
  Tracer& tracer = GlobalTracer();
  double write_us[2] = {0, 0};
  for (int p = 0; p < 2; ++p) {
    const Pass& pass = passes[p];
    tchimera::Result<Population> pop = BuildPopulation(seed, pass.with_index);
    if (!pop.ok()) {
      out->Fail("core replay population: " + pop.status().ToString());
      return;
    }
    tchimera::VersionedDatabase vdb(std::move(pop.value().db));
    tracer.set_enabled(true);
    uint64_t request = 0;
    for (const std::string& statement : writes) {
      ScopedSpan parent(pass.parent, ++request);
      tchimera::OptimisticTransaction txn;
      {
        ScopedSpan span(pass.begin);
        txn = vdb.BeginTransaction();
      }
      tchimera::Result<std::string> applied = Status::OK();
      {
        ScopedSpan span(pass.apply);
        tchimera::ActiveDatabase facade(&txn.db());
        applied = facade.Execute(statement);
      }
      tchimera::Result<uint64_t> committed = Status::OK();
      {
        ScopedSpan span(pass.commit);
        committed = vdb.CommitTransaction(&txn);
      }
      if (!applied.ok() || !committed.ok()) {
        out->Fail("core replay failed: " + statement);
        break;
      }
    }
    tracer.set_enabled(false);
    std::map<std::string, SpanStats> stats = SummarizeSpans(tracer.Collect());
    LayerSum sum = SumLayer(stats, pass.parent,
                            {pass.begin, pass.apply, pass.commit});
    if (!sum.holds) *sums_hold = false;
    write_us[p] = sum.children_us[1].second + sum.children_us[2].second;
    if (pass.with_index) {
      out->Metric("core.write_us", sum.parent_us, "us");
      out->Metric("core.txn_begin_us", sum.children_us[0].second, "us");
      out->Metric("core.apply_us", sum.children_us[1].second, "us");
      out->Metric("core.commit_us", sum.children_us[2].second, "us");
      out->Metric("core.residual_us", sum.residual_us, "us");
    } else {
      out->Metric("core.apply_noindex_us", sum.children_us[1].second, "us");
      out->Metric("core.commit_noindex_us", sum.children_us[2].second, "us");
    }
  }
  // Index maintenance happens both on the transaction's copy (apply) and
  // when the commit adopts the changed objects, so both are compared.
  out->Metric("core.index_maintain_us", write_us[0] - write_us[1], "us");
  out->Metric("core.replayed_writes", static_cast<double>(writes.size()),
              "count");
}

void AddStorageLayerMetrics(RunResult* out,
                            const std::map<std::string, SpanStats>& stats,
                            uint64_t commits, uint64_t syncs, uint64_t bytes,
                            bool* sums_hold) {
  auto mean = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() || it->second.count == 0
               ? 0.0
               : it->second.total_ns / 1000.0 / it->second.count;
  };
  out->Metric("storage.enqueue_us", mean("CommitSink::Enqueue"), "us");
  out->Metric("storage.await_us", mean("CommitSink::Await"), "us");
  out->Metric("storage.fdatasync_us", mean("WritableFile::Sync"), "us");
  out->Metric("storage.append_us", mean("WritableFile::Append"), "us");
  out->Metric("storage.syncs_per_commit",
              commits ? static_cast<double>(syncs) / commits : 0, "count");
  out->Metric("storage.bytes_per_commit",
              commits ? static_cast<double>(bytes) / commits : 0, "B");
  // Where the write statement's span is the sink calls' parent (the
  // in-process writers), the sink's share of it sums with the rest.
  if (stats.count("Session::Execute(write)")) {
    LayerSum sum = SumLayer(stats, "Session::Execute(write)",
                            {"CommitSink::Enqueue", "CommitSink::Await"});
    out->Metric("storage.residual_us", sum.residual_us, "us");
    if (!sum.holds) *sums_hold = false;
  }
}

namespace {

constexpr int kWriters = 2;
constexpr size_t kOwnedObjects = 100;
constexpr size_t kCoreReplayPerWriter = 2000;
// Statements per writer whose texts are hashed for the distinct count
// (a fixed prefix: memory must not grow with throughput).
constexpr size_t kDistinctSample = 1 << 14;

struct WriterOutcome {
  LatencySamples lat;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<std::string> statements;  // traced phase: for the core replay
  std::vector<size_t> text_hashes;      // first kDistinctSample statements
};

// One closed-loop writer until `deadline`.
void RunWriter(Engine* engine, const Population& pop,
               const std::vector<Oid>& owned, Oid shared, uint64_t seed,
               int writer, int64_t deadline, bool traced, WriterOutcome* out) {
  Session session = engine->OpenSession();
  Rng rng(seed * 1000003ULL + writer * 7919ULL + (traced ? 17 : 0));
  uint64_t request = static_cast<uint64_t>(writer + 1) << 40;
  while (NowNs() < deadline) {
    const Oid target = rng.Chance(0.1) ? shared : owned[rng.Index(owned.size())];
    std::string text = "update " + target.ToString() + " set salary = " +
                       std::to_string(rng.Uniform(20000, 120000));
    if (rng.Chance(0.7)) {
      const int64_t lo = rng.Uniform(pop.history_start, pop.now - 2);
      text += " during [" + std::to_string(lo) + "," + std::to_string(lo + 1) +
              "]";
    }
    if (out->text_hashes.size() < kDistinctSample) {
      out->text_hashes.push_back(std::hash<std::string>()(text));
    }
    const int64_t t0 = NowNs();
    tchimera::Result<std::string> r = Status::OK();
    if (traced) {
      ScopedSpan span("Session::Execute(write)", ++request);
      r = session.Execute(text);
    } else {
      r = session.Execute(text);
    }
    out->lat.Add(NowNs() - t0);
    ++out->ops;
    if (!r.ok() || r.value() != "ok") {
      if (++out->failed == 1) {
        std::fprintf(stderr, "perfbench: write failed: %s: %s\n", text.c_str(),
                     r.ok() ? r.value().c_str() : r.status().ToString().c_str());
      }
    }
    if (traced && out->statements.size() < kCoreReplayPerWriter) {
      out->statements.push_back(std::move(text));
    }
  }
}

struct PhaseOutcome {
  LatencySamples lat;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;
  double peak_rss_mb = 0;  // sampled before the per-thread results merge
  std::vector<std::string> statements;
  std::vector<size_t> text_hashes;
  double ops_per_s() const { return seconds > 0 ? ops / seconds : 0; }
};

PhaseOutcome RunWriters(Engine* engine, const Population& pop,
                        const std::vector<std::vector<Oid>>& owned, Oid shared,
                        uint64_t seed, double seconds, bool traced) {
  std::vector<WriterOutcome> outcomes(kWriters);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back(RunWriter, engine, std::cref(pop), std::cref(owned[w]),
                         shared, seed, w, deadline, traced, &outcomes[w]);
  }
  for (std::thread& t : threads) t.join();
  PhaseOutcome out;
  out.seconds = (NowNs() - start) / 1e9;
  out.peak_rss_mb = PeakRssMb();
  for (WriterOutcome& w : outcomes) {
    out.lat.Append(w.lat);
    out.ops += w.ops;
    out.failed += w.failed;
    out.statements.insert(out.statements.end(), w.statements.begin(),
                          w.statements.end());
    out.text_hashes.insert(out.text_hashes.end(), w.text_hashes.begin(),
                           w.text_hashes.end());
  }
  return out;
}

}  // namespace

RunResult RunTqlWrite(const Options& options) {
  RunResult out;
  AddRunMeta(&out, options);
  out.Meta("writers", static_cast<double>(kWriters));
  out.Meta("owned_objects_per_writer", static_cast<double>(kOwnedObjects));

  std::vector<double> setup_s;
  std::unique_ptr<DurableEngine> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    const int64_t t0 = NowNs();
    tchimera::Result<std::unique_ptr<DurableEngine>> opened =
        OpenDurableEngine(options, "tql_write", options.trace);
    if (!opened.ok()) {
      out.Fail("setup: " + opened.status().ToString());
      return out;
    }
    d = std::move(opened).value();
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  out.Meta("journal_fs", "memfd/" + MemfdFileSystem::BackingType());
  Engine* engine = d->engine.get();
  const Population& pop = d->pop;

  Rng rng(options.seed * 0x9E3779B97F4A7C15ULL + 2);
  std::vector<Oid> objects = pop.employees;
  std::shuffle(objects.begin(), objects.end(), rng.engine());
  std::vector<std::vector<Oid>> owned(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    owned[w].assign(objects.begin() + w * kOwnedObjects,
                    objects.begin() + (w + 1) * kOwnedObjects);
  }
  const Oid shared = objects[kWriters * kOwnedObjects];

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  // Warm-up: a short untimed burst (first-touch allocations, journal file
  // growth).
  RunWriters(engine, pop, owned, shared, options.seed + 99, 0.5, false);

  const uint64_t conflicts_before = engine->conflict_count();
  PhaseOutcome phase =
      RunWriters(engine, pop, owned, shared, options.seed, phase_s, false);
  const uint64_t conflicts = engine->conflict_count() - conflicts_before;
  out.attempted += phase.ops;
  out.failed += phase.failed;
  // Distinct texts among the statements hashed (each thread's first
  // kDistinctSample).
  out.Meta("distinct_of", static_cast<double>(phase.text_hashes.size()));
  out.Meta("distinct_statements",
           static_cast<double>(CountDistinct(std::move(phase.text_hashes))));

  out.Metric("setup_s", Median(setup_s), "s");
  AddEndToEndMetrics(&out, phase.lat, phase.seconds);
  AddLatencyMetrics(&out, "write", phase.lat);
  out.Metric("peak_rss_mb", phase.peak_rss_mb, "MiB");
  out.Metric("core.abort_ratio",
             phase.ops ? static_cast<double>(conflicts) / phase.ops : 0,
             "ratio");
  out.Metric("core.live_instances",
             static_cast<double>(Database::live_instance_count()), "count");

  if (options.trace) {
    Tracer& tracer = GlobalTracer();
    const uint64_t commits0 = d->counters->enqueues.load();
    const uint64_t syncs0 = d->counters->syncs.load();
    const uint64_t bytes0 = d->counters->bytes_appended.load();
    tracer.set_enabled(true);
    PhaseOutcome traced =
        RunWriters(engine, pop, owned, shared, options.seed, phase_s, true);
    tracer.set_enabled(false);
    out.attempted += traced.ops;
    out.failed += traced.failed;
    std::vector<Span> spans = tracer.Collect();
    bool sums_hold = CheckNesting(spans) == 0;
    AddStorageLayerMetrics(&out, SummarizeSpans(spans),
                           d->counters->enqueues.load() - commits0,
                           d->counters->syncs.load() - syncs0,
                           d->counters->bytes_appended.load() - bytes0,
                           &sums_hold);
    WriteSpans(spans, options.work_dir + "/trace-tql_write.jsonl", 20000);
    AddCoreLayerMetrics(&out, options.seed, traced.statements, &sums_hold);
    out.Metric("trace.overhead_pct",
               (phase.ops_per_s() - traced.ops_per_s()) / phase.ops_per_s() * 100,
               "%");
    out.Metric("trace.layer_sums_ok", sums_hold ? 1 : 0, "bool");
    out.Metric("trace.spans", static_cast<double>(spans.size()), "count");
  }

  VerifyDurableEngine(d.get(), &out);
  out.Metric("failed_ratio",
             out.attempted ? static_cast<double>(out.failed) / out.attempted : 0,
             "ratio");
  return out;
}

}  // namespace perfbench
