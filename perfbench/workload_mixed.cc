// mixed: two session threads calling Session::Execute in process on a
// durable engine (group-commit sink). 90% reads (the tql_read templates
// over all 2000 employees, so the distinct texts far exceed the 256-entry
// plan cache and select/when take the miss/lower path) and 10%
// current-time writes on uniform keys, so reads and writes share the
// engine.
//
// The traced run also sends every read, right after its in-process
// execution, through an in-process Server (2 workers, assembled as
// tools/tchimera_serve.cpp does it) over a persistent client connection
// per thread: the server layer is the round trip minus the in-process
// execute of the same statement. The end-to-end numbers stay in process
// because on the 4-vCPU test host a socket round trip's median doubled
// (about 70 to 140 us) from one minute to the next with load elsewhere on
// the machine, while in-process medians held.
#include <cstdio>
#include <thread>

#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

using tchimera::Client;
using tchimera::Database;
using tchimera::Engine;
using tchimera::Oid;
using tchimera::Rng;
using tchimera::Server;
using tchimera::Session;

namespace {

constexpr int kSessions = 2;
constexpr int kServerWorkers = 2;
constexpr size_t kCoreReplayPerThread = 2000;
// Statements per thread whose texts are hashed for the distinct count
// (a fixed prefix: memory must not grow with throughput).
constexpr size_t kDistinctSample = 1 << 14;

// The server and one client per session thread, over the engine.
struct Serving {
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<Client>> clients;

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() { Stop(); }
  void Stop() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
  }
};

tchimera::Status StartServing(DurableEngine* d, Serving* out) {
  tchimera::ServerOptions server_options;
  server_options.worker_threads = kServerWorkers;
  server_options.port = 0;
  tchimera::GroupCommitJournal* journal = d->journal.get();
  server_options.commit_backlog = [journal]() -> uint64_t {
    // Durable first: see tools/tchimera_serve.cpp.
    uint64_t durable = journal->durable();
    uint64_t enqueued = journal->enqueued();
    return enqueued > durable ? enqueued - durable : 0;
  };
  out->server = std::make_unique<Server>(d->engine.get(), server_options);
  TCH_RETURN_IF_ERROR(out->server->Start());
  for (int c = 0; c < kSessions; ++c) {
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<Client> client,
                         Client::Connect("127.0.0.1", out->server->port()));
    out->clients.push_back(std::move(client));
  }
  return tchimera::Status::OK();
}

struct ThreadOutcome {
  LatencySamples reads;
  LatencySamples writes;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<std::string> write_statements;  // traced: for the core replay
  std::vector<size_t> text_hashes;  // first kDistinctSample statements
};

void CountFailure(const std::string& text,
                  const tchimera::Result<std::string>& r, bool write,
                  ThreadOutcome* out) {
  if (r.ok() && (!write || r.value() == "ok")) return;
  if (++out->failed == 1) {
    std::fprintf(stderr, "perfbench: statement failed: %s: %s\n", text.c_str(),
                 r.ok() ? r.value().c_str() : r.status().ToString().c_str());
  }
}

// One closed-loop session thread until `deadline`. Traced (`client` set):
// each statement's Session::Execute is a span; reads are then replayed
// through the query layer and sent over `client`.
void RunSession(Engine* engine, Client* client, const Population& pop,
                uint64_t seed, int index, int64_t deadline, ThreadOutcome* out) {
  const bool traced = client != nullptr;
  Rng rng(seed * 2654435761ULL + index * 97ULL + (traced ? 5 : 0));
  Session session = engine->OpenSession();
  tchimera::PlanCache replay_cache;
  uint64_t request = static_cast<uint64_t>(index + 1) << 40;
  while (NowNs() < deadline) {
    const Oid key = rng.Pick(pop.employees);
    const bool write = rng.Chance(0.1);
    std::string text =
        write ? "update " + key.ToString() + " set salary = " +
                    std::to_string(rng.Uniform(20000, 120000))
              : MakeReadStatement(static_cast<int>(rng.Index(kReadTemplates)),
                                  key, pop, &rng);
    if (out->text_hashes.size() < kDistinctSample) {
      out->text_hashes.push_back(std::hash<std::string>()(text));
    }
    ++request;
    const int64_t t0 = NowNs();
    tchimera::Result<std::string> r = tchimera::Status::OK();
    uint64_t parent_id = 0;
    {
      ScopedSpan span(write ? "Session::Execute(write)" : "Session::Execute(read)",
                      request);
      r = session.Execute(text);
      parent_id = span.id();
    }
    (write ? out->writes : out->reads).Add(NowNs() - t0);
    ++out->ops;
    CountFailure(text, r, write, out);
    if (!traced) continue;
    if (write) {
      if (out->write_statements.size() < kCoreReplayPerThread) {
        out->write_statements.push_back(std::move(text));
      }
      continue;
    }
    tchimera::ReadSnapshot snap = engine->OpenSnapshot();
    ReplayRead(text, snap.db(), &replay_cache, parent_id, request);
    snap = tchimera::ReadSnapshot();
    // The same read over the socket: the server's share is the round
    // trip minus the in-process execute above.
    tchimera::Result<std::string> remote = ReplaySpan(
        "Client::Execute(read)", parent_id, request,
        [&] { return client->ExecuteRetrying(text); });
    CountFailure(text, remote, false, out);
  }
}

struct PhaseOutcome {
  LatencySamples reads;
  LatencySamples writes;
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0;
  double peak_rss_mb = 0;  // sampled before the per-thread results merge
  std::vector<std::string> write_statements;
  std::vector<size_t> text_hashes;
  double ops_per_s() const { return seconds > 0 ? ops / seconds : 0; }
};

// Runs the session threads for `seconds`; traced when `serving` is set.
PhaseOutcome RunSessions(DurableEngine* d, Serving* serving, uint64_t seed,
                         double seconds) {
  std::vector<ThreadOutcome> outcomes(kSessions);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kSessions; ++c) {
    Client* client = serving != nullptr ? serving->clients[c].get() : nullptr;
    threads.emplace_back(RunSession, d->engine.get(), client, std::cref(d->pop),
                         seed, c, deadline, &outcomes[c]);
  }
  for (std::thread& t : threads) t.join();
  PhaseOutcome out;
  out.seconds = (NowNs() - start) / 1e9;
  out.peak_rss_mb = PeakRssMb();
  for (ThreadOutcome& c : outcomes) {
    out.reads.Append(c.reads);
    out.writes.Append(c.writes);
    out.ops += c.ops;
    out.failed += c.failed;
    out.write_statements.insert(out.write_statements.end(),
                                c.write_statements.begin(),
                                c.write_statements.end());
    out.text_hashes.insert(out.text_hashes.end(), c.text_hashes.begin(),
                           c.text_hashes.end());
  }
  return out;
}

void AddServerLayerMetrics(RunResult* out,
                           const std::map<std::string, SpanStats>& stats,
                           const tchimera::ServerStats& server_stats,
                           uint64_t client_retries, bool* sums_hold) {
  auto median = [&](const char* name) {
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.durations.QuantileUs(0.5);
  };
  out->Metric("server.overhead_us",
              median("Client::Execute(read)") - median("Session::Execute(read)"),
              "us");
  LayerSum sum =
      SumLayer(stats, "Client::Execute(read)", {"Session::Execute(read)"});
  out->Metric("server.roundtrip_us", sum.parent_us, "us");
  out->Metric("server.residual_us", sum.residual_us, "us");
  if (!sum.holds) *sums_hold = false;
  out->Metric("server.admission_rejections",
              static_cast<double>(server_stats.admission_rejections.load()),
              "count");
  out->Metric("server.conflict_retries",
              static_cast<double>(server_stats.conflict_retries.load()), "count");
  out->Metric("server.conflict_budget_exhausted",
              static_cast<double>(server_stats.conflict_budget_exhausted.load()),
              "count");
  out->Metric("server.client_retries", static_cast<double>(client_retries),
              "count");
}

}  // namespace

RunResult RunMixed(const Options& options) {
  RunResult out;
  AddRunMeta(&out, options);
  out.Meta("sessions", static_cast<double>(kSessions));
  out.Meta("server_workers", static_cast<double>(kServerWorkers));
  out.Meta("clients", static_cast<double>(kSessions));

  std::vector<double> setup_s;
  std::unique_ptr<DurableEngine> d;
  for (int k = 0; k < kSetups; ++k) {
    d.reset();
    const int64_t t0 = NowNs();
    tchimera::Result<std::unique_ptr<DurableEngine>> opened =
        OpenDurableEngine(options, "mixed", options.trace);
    if (!opened.ok()) {
      out.Fail("setup: " + opened.status().ToString());
      return out;
    }
    d = std::move(opened).value();
    setup_s.push_back((NowNs() - t0) / 1e9);
  }
  out.Meta("journal_fs", "memfd/" + MemfdFileSystem::BackingType());
  Engine* engine = d->engine.get();

  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  RunSessions(d.get(), nullptr, options.seed + 99, 0.3);  // warm-up, untimed

  const tchimera::PlanCache::Stats cache_before = engine->plan_cache().stats();
  const uint64_t conflicts_before = engine->conflict_count();
  PhaseOutcome phase = RunSessions(d.get(), nullptr, options.seed, phase_s);
  out.attempted += phase.ops;
  out.failed += phase.failed;
  // Distinct texts among the statements hashed (each thread's first
  // kDistinctSample).
  out.Meta("distinct_of", static_cast<double>(phase.text_hashes.size()));
  out.Meta("distinct_statements",
           static_cast<double>(CountDistinct(std::move(phase.text_hashes))));

  LatencySamples all = phase.reads;
  all.Append(phase.writes);
  out.Metric("setup_s", Median(setup_s), "s");
  AddEndToEndMetrics(&out, all, phase.seconds);
  AddLatencyMetrics(&out, "read", phase.reads);
  AddLatencyMetrics(&out, "write", phase.writes);
  out.Metric("peak_rss_mb", phase.peak_rss_mb, "MiB");
  out.Metric("query.plan_cache_hit_ratio",
             HitRatio(cache_before, engine->plan_cache().stats()), "ratio");
  out.Metric("core.abort_ratio",
             phase.writes.count()
                 ? static_cast<double>(engine->conflict_count() - conflicts_before) /
                       phase.writes.count()
                 : 0,
             "ratio");
  out.Metric("core.live_instances",
             static_cast<double>(Database::live_instance_count()), "count");

  Serving serving;
  tchimera::Status started = StartServing(d.get(), &serving);
  if (!started.ok()) {
    out.Fail("server: " + started.ToString());
    return out;
  }
  if (options.trace) {
    Tracer& tracer = GlobalTracer();
    StorageCounters& counters = *d->counters;
    const uint64_t commits0 = counters.enqueues.load();
    const uint64_t syncs0 = counters.syncs.load();
    const uint64_t bytes0 = counters.bytes_appended.load();
    tracer.set_enabled(true);
    PhaseOutcome traced = RunSessions(d.get(), &serving, options.seed, phase_s);
    tracer.set_enabled(false);
    out.attempted += traced.ops;
    out.failed += traced.failed;
    std::vector<Span> spans = tracer.Collect();
    std::map<std::string, SpanStats> stats = SummarizeSpans(spans);
    bool sums_hold = CheckNesting(spans) == 0;
    uint64_t client_retries = 0;
    for (const auto& client : serving.clients) {
      client_retries += client->retries_absorbed();
    }
    AddServerLayerMetrics(&out, stats, serving.server->stats(), client_retries,
                          &sums_hold);
    AddQueryLayerMetrics(&out, stats, &sums_hold);
    AddStorageLayerMetrics(&out, stats, counters.enqueues.load() - commits0,
                           counters.syncs.load() - syncs0,
                           counters.bytes_appended.load() - bytes0, &sums_hold);
    WriteSpans(spans, options.work_dir + "/trace-mixed.jsonl", 20000);
    AddCoreLayerMetrics(&out, options.seed, traced.write_statements, &sums_hold);
    out.Metric("trace.overhead_pct",
               (phase.ops_per_s() - traced.ops_per_s()) / phase.ops_per_s() * 100,
               "%");
    out.Metric("trace.layer_sums_ok", sums_hold ? 1 : 0, "bool");
    out.Metric("trace.spans", static_cast<double>(spans.size()), "count");
  }

  // Post-run reads over the socket must match the same reads in process.
  {
    Rng rng(options.seed + 7);
    Session session = engine->OpenSession();
    for (int i = 0; i < 40; ++i) {
      std::string text = MakeReadStatement(i % kReadTemplates,
                                           rng.Pick(d->pop.employees), d->pop,
                                           &rng);
      tchimera::Result<std::string> remote = serving.clients[0]->Execute(text);
      tchimera::Result<std::string> local = session.Execute(text);
      if (!remote.ok() || !local.ok() || remote.value() != local.value()) {
        out.Fail("socket read differs from in-process read: " + text);
        break;
      }
    }
  }
  serving.Stop();
  VerifyDurableEngine(d.get(), &out);
  out.Metric("failed_ratio",
             out.attempted ? static_cast<double>(out.failed) / out.attempted : 0,
             "ratio");
  return out;
}

}  // namespace perfbench
