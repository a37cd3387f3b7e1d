// Experiment CC: the session/transaction engine — snapshot-read
// scaling across threads (the Table 3 functions are pure reads, so
// snapshot isolation should scale them near-linearly), MVCC interference
// (writer throughput must not degrade while a reader pins a snapshot,
// commit cost must track touched objects, not database size, an
// indexed commit must cost the same at every index size, and beginning
// a transaction must not touch every shard) and
// group commit vs per-statement fdatasync (the sync count is the
// durability cost a batch amortizes).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/db/database.h"
#include "core/db/versioned_db.h"
#include "core/values/value.h"
#include "query/interpreter.h"
#include "query/session.h"
#include "storage/group_commit.h"
#include "storage/journal.h"
#include "workload/generator.h"

namespace tchimera {
namespace {

// One shared engine across all benchmark threads (that is the point:
// concurrent sessions on one engine).
Engine& SharedEngine() {
  static Engine& engine = *[] {
    auto db = std::make_unique<Database>();
    PopulationConfig config;
    config.persons = 100;
    config.projects = 20;
    config.timesteps = 24;
    config.updates_per_step = 8;
    config.migration_rate = 0.2;
    (void)PopulateDatabase(db.get(), config);
    return new Engine(std::move(db));
  }();
  return engine;
}

std::string ScratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("tchimera_bench_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// --- read scaling: N threads, each with its own Session, running the
// same TQL query against pinned snapshots. Scaling past 1 thread is the
// acceptance bar for the snapshot-isolated read path.

void BM_SnapshotReads(benchmark::State& state) {
  Engine& engine = SharedEngine();
  Session session = engine.OpenSession();
  for (auto _ : state) {
    Result<std::string> rows =
        session.Execute("select x.name from x in person");
    if (!rows.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotReads)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// A cheaper read (single-object snapshot) to show the scaling is not an
// artifact of one expensive query dominating.
void BM_SnapshotPointReads(benchmark::State& state) {
  Engine& engine = SharedEngine();
  Session session = engine.OpenSession();
  for (auto _ : state) {
    Result<std::string> v = session.Execute("snapshot i1");
    if (!v.ok()) state.SkipWithError("read failed");
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotPointReads)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// --- MVCC interference: writer commit throughput with (Arg 1) and
// without (Arg 0) a reader snapshot pinned across the entire run. The
// two arms must be indistinguishable — a pinned snapshot only keeps its
// own version alive, it never gates the writer. (Under the pre-MVCC
// shared_mutex protocol the Arg(1) arm would simply hang on the first
// commit.)

void BM_WriterCommitsUnderPinnedSnapshot(benchmark::State& state) {
  const bool pin = state.range(0) != 0;
  Engine engine;
  Session setup = engine.OpenSession();
  (void)setup.Execute("define class emp attributes v: integer end");
  Session reader = engine.OpenSession();
  ReadSnapshot pinned;
  if (pin) pinned = reader.snapshot();  // held until the run ends
  Session writer = engine.OpenSession();
  for (auto _ : state) {
    Result<std::string> out = writer.Execute("create emp (v: 1)");
    if (!out.ok()) state.SkipWithError("write failed");
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pinned"] = pin ? 1.0 : 0.0;
}
BENCHMARK(BM_WriterCommitsUnderPinnedSnapshot)->Arg(0)->Arg(1);

// --- MVCC commit cost vs touched objects: a commit publishes a
// copy-on-write Database — the copy shares every class and object shard
// with the previous version, and the next writes re-clone only what they
// touch. Time per touched object should therefore be flat as the touch
// count grows, on a database whose total size (4096 objects) never
// changes.

void BM_CommitCostVsTouchedObjects(benchmark::State& state) {
  constexpr int kDbObjects = 4096;
  const int touched = static_cast<int>(state.range(0));
  VersionedDatabase vdb;
  std::vector<Oid> oids;
  {
    WriteGuard guard = vdb.BeginWrite();
    Interpreter interp(&guard.db());
    if (!interp.Execute("define class emp attributes v: integer end").ok()) {
      state.SkipWithError("schema failed");
      return;
    }
    oids.reserve(kDbObjects);
    for (int i = 0; i < kDbObjects; ++i) {
      Result<Oid> oid =
          guard.db().CreateObject("emp", {{"v", Value::Integer(0)}});
      if (!oid.ok()) {
        state.SkipWithError("populate failed");
        return;
      }
      oids.push_back(*oid);
    }
    guard.Commit();
  }
  int64_t next = 0;
  for (auto _ : state) {
    WriteGuard guard = vdb.BeginWrite();
    for (int k = 0; k < touched; ++k) {
      Oid oid = oids[static_cast<size_t>(next) % oids.size()];
      ++next;
      if (!guard.db().UpdateAttribute(oid, "v", Value::Integer(next)).ok()) {
        state.SkipWithError("update failed");
        return;
      }
    }
    benchmark::DoNotOptimize(guard.Commit());
  }
  state.SetItemsProcessed(state.iterations() * touched);
  state.counters["touched"] = static_cast<double>(touched);
  state.counters["db_objects"] = kDbObjects;
}
BENCHMARK(BM_CommitCostVsTouchedObjects)->Arg(1)->Arg(16)->Arg(256)->Arg(1024);

// --- indexed commit cost vs index size: one optimistic commit of one
// retroactive `during [lo, lo+1]` splice of an attribute under a value
// index. Index maintenance applies a per-oid delta to copy-on-write
// posting chunks on the transaction's copy (and, when another commit
// landed first, again on the head's copy that adopts it), so the time
// per commit should stay flat as the index grows. The object
// count is fixed (the object shards' own COW clones cost the same at
// every size); Arg = splices per object's history, so postings per
// index shard grow ~12x across the rows.

void BM_IndexedCommitCostVsIndexSize(benchmark::State& state) {
  constexpr int kObjects = 1024;
  constexpr TimePoint kHistory = 512;
  const int splices = static_cast<int>(state.range(0));
  VersionedDatabase vdb;
  std::vector<Oid> oids;
  std::mt19937_64 rng(1);
  auto splice = [&rng](Database& db, Oid oid) {
    const TimePoint lo = static_cast<TimePoint>(rng() % (kHistory - 1));
    return db.UpdateAttributeAt(oid, "v", Interval(lo, lo + 1),
                                Value::Integer(rng() % 100000));
  };
  {
    WriteGuard guard = vdb.BeginWrite();
    Database& db = guard.db();
    if (!Interpreter(&db)
             .Execute("define class emp attributes v: temporal(integer) end")
             .ok() ||
        !db.AdvanceTo(kHistory).ok()) {
      state.SkipWithError("schema failed");
      return;
    }
    for (int i = 0; i < kObjects; ++i) {
      Result<Oid> oid = db.CreateObjectAt("emp", 0, {{"v", Value::Integer(0)}});
      if (!oid.ok()) {
        state.SkipWithError("populate failed");
        return;
      }
      for (int s = 0; s < splices; ++s) {
        if (!splice(db, *oid).ok()) {
          state.SkipWithError("history failed");
          return;
        }
      }
      oids.push_back(*oid);
    }
    if (!Interpreter(&db).Execute("create index ev on emp (v)").ok()) {
      state.SkipWithError("index failed");
      return;
    }
    guard.Commit();
  }
  const double postings =
      static_cast<double>(vdb.OpenSnapshot().db().IndexEntryCount("ev"));
  for (auto _ : state) {
    OptimisticTransaction txn = vdb.BeginTransaction();
    if (!splice(txn.db(), oids[rng() % oids.size()]).ok() ||
        !vdb.CommitTransaction(&txn).ok()) {
      state.SkipWithError("commit failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["splices"] = splices;
  state.counters["postings_per_shard"] = postings / 64;
}
BENCHMARK(BM_IndexedCommitCostVsIndexSize)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

// --- transaction begin cost: BeginTransaction() copies the published
// head, and dropping the transaction releases the copy. Every optimistic
// write pays this pair once, and once more when another commit landed
// after its base (the head's copy that adopts its slots); concurrent
// writers copy the same head, so the 2-thread row shows what sharing its
// structures costs.

VersionedDatabase& PublishedPopulation() {
  static VersionedDatabase& vdb = *[] {
    auto* published = new VersionedDatabase;
    WriteGuard guard = published->BeginWrite();
    (void)Interpreter(&guard.db())
        .Execute("define class emp attributes v: integer end");
    for (int i = 0; i < 4096; ++i) {
      (void)guard.db().CreateObject("emp", {{"v", Value::Integer(i)}});
    }
    guard.Commit();
    return published;
  }();
  return vdb;
}

void BM_BeginTransactionAndDrop(benchmark::State& state) {
  VersionedDatabase& vdb = PublishedPopulation();
  for (auto _ : state) {
    OptimisticTransaction txn = vdb.BeginTransaction();
    benchmark::DoNotOptimize(txn.db().now());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BeginTransactionAndDrop)->Threads(1)->Threads(2);

// --- durability: group commit vs one fdatasync per statement. The
// baseline sink syncs inside Enqueue (the pre-refactor behavior: every
// acknowledged statement pays a full fdatasync); GroupCommitJournal
// batches concurrent commits into one sync. `syncs` is the counter the
// batch amortizes — fewer syncs per committed statement is the win.

class PerStatementSink final : public CommitSink {
 public:
  Status Open(const std::string& path) { return journal_.Open(path); }
  Ticket Enqueue(std::string_view statement) override {
    std::lock_guard<std::mutex> lock(mu_);
    // One fdatasync per statement, before Enqueue returns.
    last_ = journal_.Append(statement);
    if (last_.ok()) last_ = journal_.Sync();
    return Ticket{++seq_};
  }
  Status Await(Ticket) override {
    std::lock_guard<std::mutex> lock(mu_);
    return last_;
  }
  size_t sync_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return journal_.sync_count();
  }

 private:
  std::mutex mu_;
  Journal journal_;
  uint64_t seq_ = 0;
  Status last_;
};

// Shared state for a multi-threaded commit benchmark: thread 0 sets up
// the engine + sink, every thread hammers writes, thread 0 reports.
struct CommitBench {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<GroupCommitJournal> group;
  std::unique_ptr<PerStatementSink> per_statement;
};
CommitBench g_commit;
// Threads other than 0 spin on this before touching g_commit: benchmark
// only synchronizes threads at the state loop, not before it.
std::atomic<bool> g_commit_ready{false};

void SetUpCommitBench(bool grouped, const std::string& dir) {
  g_commit.engine = std::make_unique<Engine>();
  Session setup = g_commit.engine->OpenSession();
  (void)setup.Execute("define class emp attributes v: integer end");
  if (grouped) {
    g_commit.group = std::make_unique<GroupCommitJournal>();
    (void)g_commit.group->Open(dir + "/journal.tchl");
    g_commit.engine->set_commit_sink(g_commit.group.get());
  } else {
    g_commit.per_statement = std::make_unique<PerStatementSink>();
    (void)g_commit.per_statement->Open(dir + "/journal.tchl");
    g_commit.engine->set_commit_sink(g_commit.per_statement.get());
  }
}

void RunCommitLoop(benchmark::State& state) {
  while (!g_commit_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  Session session = g_commit.engine->OpenSession();
  for (auto _ : state) {
    Result<std::string> out = session.Execute("create emp (v: 1)");
    if (!out.ok()) state.SkipWithError("write failed");
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CommitGrouped(benchmark::State& state) {
  if (state.thread_index() == 0) {
    SetUpCommitBench(/*grouped=*/true, ScratchDir("grouped"));
    g_commit_ready.store(true, std::memory_order_release);
  }
  RunCommitLoop(state);
  if (state.thread_index() == 0) {
    state.counters["syncs"] =
        static_cast<double>(g_commit.group->batches());
    state.counters["commits"] =
        static_cast<double>(g_commit.group->durable());
    g_commit.group->Close();
    g_commit_ready.store(false, std::memory_order_release);
    g_commit = CommitBench{};
  }
}
BENCHMARK(BM_CommitGrouped)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_CommitPerStatement(benchmark::State& state) {
  if (state.thread_index() == 0) {
    SetUpCommitBench(/*grouped=*/false, ScratchDir("per_statement"));
    g_commit_ready.store(true, std::memory_order_release);
  }
  RunCommitLoop(state);
  if (state.thread_index() == 0) {
    state.counters["syncs"] =
        static_cast<double>(g_commit.per_statement->sync_count());
    g_commit_ready.store(false, std::memory_order_release);
    g_commit = CommitBench{};
  }
}
BENCHMARK(BM_CommitPerStatement)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// --- machine-readable report: optimistic multi-writer scaling ---------------
//
// Emitted as BENCH_concurrency.json (CI uploads it as an artifact): write
// throughput vs writer count plus the observed abort rate, on two
// workloads — disjoint objects (the scaling case: validation never
// conflicts, so throughput must grow with writers) and one shared object
// (the contention case: every commit round has one winner, abort rate is
// the interesting number). The acceptance bar for the optimistic
// protocol is >= 2x disjoint-object throughput at 4 writers vs 1.

struct WriterPoint {
  int writers = 0;
  uint64_t statements = 0;   // successfully committed statements
  uint64_t conflicts = 0;    // validation aborts (internally retried)
  double seconds = 0.0;
  double throughput = 0.0;   // statements per second
  double abort_rate = 0.0;   // conflicts / (commits + conflicts)
};

WriterPoint MeasureWriters(int writers, int per_writer, bool disjoint) {
  Engine engine;
  {
    Session setup = engine.OpenSession();
    (void)setup.Execute(
        "define class emp attributes v: temporal(integer) end");
    (void)setup.Execute("tick 2000");
    // One target object per writer (disjoint) or a single shared one.
    const int objects = disjoint ? writers : 1;
    for (int i = 0; i < objects; ++i) {
      (void)setup.Execute("create emp at 0 (v: 0)");
    }
  }
  std::atomic<uint64_t> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(writers);
  const auto begin = std::chrono::steady_clock::now();
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&engine, &committed, t, per_writer, disjoint] {
      Session session = engine.OpenSession();
      const std::string target = "i" + std::to_string(disjoint ? t + 1 : 1);
      for (int i = 0; i < per_writer; ++i) {
        // The model's bread-and-butter mutation: patch a window of a
        // temporal attribute's history (Table 2 update semantics) — the
        // history merge is real per-statement work, where a bare integer
        // store would only measure commit-lock overhead.
        const int lo = (i * 2) % 1600;
        if (session
                .Execute("update " + target + " set v = " +
                         std::to_string(i) + " during [" +
                         std::to_string(lo) + "," + std::to_string(lo + 1) +
                         "]")
                .ok()) {
          committed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  WriterPoint point;
  point.writers = writers;
  point.statements = committed.load();
  point.conflicts = engine.conflict_count();
  point.seconds = std::chrono::duration<double>(end - begin).count();
  point.throughput =
      point.seconds > 0.0 ? point.statements / point.seconds : 0.0;
  const double attempts =
      static_cast<double>(point.statements + point.conflicts);
  point.abort_rate = attempts > 0.0 ? point.conflicts / attempts : 0.0;
  return point;
}

void AppendPoints(const std::vector<WriterPoint>& points, std::string* out) {
  char buf[256];
  for (size_t i = 0; i < points.size(); ++i) {
    const WriterPoint& p = points[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"writers\": %d, \"statements\": %llu, "
                  "\"conflicts\": %llu, \"seconds\": %.6f, "
                  "\"throughput_stmts_per_sec\": %.1f, "
                  "\"abort_rate\": %.4f}%s\n",
                  p.writers,
                  static_cast<unsigned long long>(p.statements),
                  static_cast<unsigned long long>(p.conflicts), p.seconds,
                  p.throughput, p.abort_rate,
                  i + 1 < points.size() ? "," : "");
    *out += buf;
  }
}

// Single-threaded phase breakdown of one optimistic statement at the
// VersionedDatabase layer: begin (COW copy of the base), execute (parse +
// typecheck + history merge on the private copy) and commit (the only
// span under the writer mutex). begin+execute parallelize across
// writers; commit serializes — the serial fraction bounds scaling via
// Amdahl, which is the honest number to report when the measuring host
// itself has too few cores to demonstrate the speedup directly.
struct PhaseBreakdown {
  double begin_us = 0.0;
  double exec_us = 0.0;
  double commit_us = 0.0;
  double serial_fraction = 0.0;
  double amdahl(int writers) const {
    if (serial_fraction <= 0.0) return static_cast<double>(writers);
    return 1.0 /
           (serial_fraction + (1.0 - serial_fraction) / writers);
  }
};

PhaseBreakdown MeasurePhases(int statements) {
  VersionedDatabase vdb;
  {
    WriteGuard guard = vdb.BeginWrite();
    Interpreter interp(&guard.db());
    (void)interp.Execute(
        "define class emp attributes v: temporal(integer) end");
    (void)interp.Execute("tick 2000");
    (void)interp.Execute("create emp at 0 (v: 0)");
    guard.Commit();
  }
  PhaseBreakdown phases;
  for (int i = 0; i < statements; ++i) {
    const auto a = std::chrono::steady_clock::now();
    OptimisticTransaction txn = vdb.BeginTransaction();
    const auto b = std::chrono::steady_clock::now();
    Interpreter interp(&txn.db());
    const int lo = (i * 2) % 1600;
    if (!interp
             .Execute("update i1 set v = " + std::to_string(i) +
                      " during [" + std::to_string(lo) + "," +
                      std::to_string(lo + 1) + "]")
             .ok()) {
      break;
    }
    const auto c = std::chrono::steady_clock::now();
    if (!vdb.CommitTransaction(&txn).ok()) break;
    const auto d = std::chrono::steady_clock::now();
    phases.begin_us += std::chrono::duration<double, std::micro>(b - a).count();
    phases.exec_us += std::chrono::duration<double, std::micro>(c - b).count();
    phases.commit_us +=
        std::chrono::duration<double, std::micro>(d - c).count();
  }
  phases.begin_us /= statements;
  phases.exec_us /= statements;
  phases.commit_us /= statements;
  const double total = phases.begin_us + phases.exec_us + phases.commit_us;
  phases.serial_fraction = total > 0.0 ? phases.commit_us / total : 0.0;
  return phases;
}

int WriteConcurrencyReport(const std::string& path) {
  constexpr int kPerWriter = 800;
  constexpr int kRepeats = 3;  // keep the best run per point (noise floor)
  const std::vector<int> writer_counts = {1, 2, 4, 8};

  std::vector<WriterPoint> disjoint;
  std::vector<WriterPoint> contended;
  for (int writers : writer_counts) {
    WriterPoint best_d, best_c;
    for (int r = 0; r < kRepeats; ++r) {
      WriterPoint d = MeasureWriters(writers, kPerWriter, /*disjoint=*/true);
      if (d.throughput > best_d.throughput) best_d = d;
      WriterPoint c = MeasureWriters(writers, kPerWriter, /*disjoint=*/false);
      if (c.throughput > best_c.throughput) best_c = c;
    }
    disjoint.push_back(best_d);
    contended.push_back(best_c);
  }

  double speedup4 = 0.0;
  for (const WriterPoint& p : disjoint) {
    if (p.writers == 4 && disjoint.front().throughput > 0.0) {
      speedup4 = p.throughput / disjoint.front().throughput;
    }
  }
  const PhaseBreakdown phases = MeasurePhases(kPerWriter);
  const unsigned cores = std::thread::hardware_concurrency();

  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"concurrency\",\n";
  json += "  \"protocol\": \"optimistic-multi-writer\",\n";
  json += "  \"statements_per_writer\": " + std::to_string(kPerWriter) +
          ",\n";
  json += "  \"host_cores\": " + std::to_string(cores) + ",\n";
  json += "  \"disjoint_objects\": [\n";
  AppendPoints(disjoint, &json);
  json += "  ],\n";
  json += "  \"shared_object\": [\n";
  AppendPoints(contended, &json);
  json += "  ],\n";
  char buf[256];
  // Measured speedup is bounded by min(host cores, Amdahl); the phase
  // breakdown makes the protocol-level bound visible even when the host
  // has too few cores to demonstrate it.
  std::snprintf(buf, sizeof(buf),
                "  \"phase_us\": {\"begin\": %.3f, \"execute\": %.3f, "
                "\"commit_serial\": %.3f},\n"
                "  \"commit_serial_fraction\": %.3f,\n"
                "  \"amdahl_projected_speedup\": {\"2\": %.2f, \"4\": %.2f, "
                "\"8\": %.2f},\n",
                phases.begin_us, phases.exec_us, phases.commit_us,
                phases.serial_fraction, phases.amdahl(2), phases.amdahl(4),
                phases.amdahl(8));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"disjoint_speedup_4_writers_vs_1\": %.2f\n", speedup4);
  json += buf;
  json += "}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (disjoint 4-writer speedup: %.2fx)\n%s",
               path.c_str(), speedup4, json.c_str());
  return 0;
}

}  // namespace
}  // namespace tchimera

// Custom main: the google-benchmark suite as usual, plus the
// machine-readable multi-writer report.
//   --json[=PATH]  write BENCH_concurrency.json (or PATH) after the suite
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
      if (json_path.empty()) json_path = "BENCH_concurrency.json";
    } else if (arg == "--json") {
      json_path = "BENCH_concurrency.json";
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
    return tchimera::WriteConcurrencyReport(json_path);
  }
  return 0;
}
