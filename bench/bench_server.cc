// Experiment SV: the socket server front end (src/server/server.h) —
// request round-trip latency, sustained mixed-workload throughput over
// persistent connections, connection-scale fan-in (the acceptance bar:
// >= 1000 concurrent connections served without a failure), and
// backpressure behavior when admission control sheds load.
//
// The JSON report (BENCH_server.json, uploaded by CI) carries the
// serving numbers a deployment cares about: connections sustained,
// requests/sec through the pooled sessions, conflict retries absorbed by
// the server's budget, and how many retryable rejections clients saw
// while the server protected itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/session.h"
#include "report_main.h"
#include "server/client.h"
#include "server/net.h"
#include "server/server.h"
#include "server/wire.h"
#include "storage/group_commit.h"

namespace tchimera {
namespace {

std::string ScratchDir(const std::string& name) {
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("tchimera_bench_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Engine + durable sink + server, assembled the way tchimera_serve does.
struct BenchServer {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<GroupCommitJournal> sink;
  std::unique_ptr<Server> server;
  std::string dir;

  static bool Start(const std::string& name, ServerOptions options,
                    BenchServer* out) {
    out->dir = ScratchDir(name);
    out->engine = std::make_unique<Engine>();
    out->sink = std::make_unique<GroupCommitJournal>();
    if (!out->sink->Open(out->dir + "/journal.tql").ok()) return false;
    out->engine->set_commit_sink(out->sink.get());
    GroupCommitJournal* sink = out->sink.get();
    options.commit_backlog = [sink]() -> uint64_t {
      uint64_t d = sink->durable();
      uint64_t e = sink->enqueued();
      return e > d ? e - d : 0;
    };
    options.port = 0;
    out->server = std::make_unique<Server>(out->engine.get(), options);
    return out->server->Start().ok();
  }

  bool Seed() {
    Result<std::unique_ptr<Client>> c =
        Client::Connect("127.0.0.1", server->port());
    if (!c.ok()) return false;
    return (*c)->Execute("define class item attributes name: string, "
                         "qty: integer end")
               .ok() &&
           (*c)->Execute("create item (name: 'seed', qty: 0)").ok();
  }
};

// --- micro: wire codec and single-connection round-trip --------------------

void BM_FrameEncodeDecode(benchmark::State& state) {
  const std::string statement(static_cast<size_t>(state.range(0)), 's');
  FrameReader reader(1 << 20);
  Frame frame;
  for (auto _ : state) {
    std::string encoded = EncodeRequest(statement);
    reader.Feed(encoded);
    if (reader.Next(&frame) != FrameReader::Outcome::kFrame) {
      state.SkipWithError("decode failed");
      break;
    }
    benchmark::DoNotOptimize(frame.payload.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(statement.size() + 6));
}
BENCHMARK(BM_FrameEncodeDecode)->Arg(64)->Arg(1024)->Arg(65536);

void BM_RequestRoundTrip(benchmark::State& state) {
  static BenchServer& bench = *new BenchServer();
  static bool ready = [] {
    ServerOptions options;
    options.worker_threads = 2;
    return BenchServer::Start("srv_rtt", options, &bench) && bench.Seed();
  }();
  if (!ready) {
    state.SkipWithError("server setup failed");
    return;
  }
  Result<std::unique_ptr<Client>> client =
      Client::Connect("127.0.0.1", bench.server->port());
  if (!client.ok()) {
    state.SkipWithError("connect failed");
    return;
  }
  for (auto _ : state) {
    Result<std::string> r =
        (*client)->Execute("select x.qty from x in item");
    if (!r.ok()) {
      state.SkipWithError("request failed");
      break;
    }
    benchmark::DoNotOptimize(r.value().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RequestRoundTrip);

// --- the JSON report -------------------------------------------------------

struct PhaseResult {
  uint64_t requests = 0;
  uint64_t failures = 0;
  double seconds = 0;
  double per_sec() const { return seconds > 0 ? requests / seconds : 0; }
};

// `threads` drivers, each owning `conns_per_thread` persistent
// connections, each connection issuing `requests_per_conn` statements
// round-robin (1 write : 9 reads). Retryable errors are resent
// (ExecuteRetrying); anything else counts as a failure.
PhaseResult DriveWorkload(uint16_t port, int threads, int conns_per_thread,
                          int requests_per_conn,
                          std::atomic<uint64_t>* retries_absorbed) {
  PhaseResult result;
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> requests{0};
  auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> drivers;
  for (int t = 0; t < threads; ++t) {
    drivers.emplace_back([&, t] {
      std::vector<std::unique_ptr<Client>> conns;
      for (int c = 0; c < conns_per_thread; ++c) {
        Result<std::unique_ptr<Client>> client =
            Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          failures.fetch_add(1);
          continue;
        }
        conns.push_back(std::move(client).value());
      }
      for (int r = 0; r < requests_per_conn; ++r) {
        for (size_t c = 0; c < conns.size(); ++c) {
          bool write = (r % 10) == 0;
          std::string stmt =
              write ? "update i1 set qty = " +
                          std::to_string(t * 1'000'000 + r)
                    : "select x.qty from x in item";
          Result<std::string> out = conns[c]->ExecuteRetrying(stmt);
          requests.fetch_add(1);
          if (!out.ok()) failures.fetch_add(1);
        }
      }
      if (retries_absorbed != nullptr) {
        uint64_t absorbed = 0;
        for (const auto& conn : conns) absorbed += conn->retries_absorbed();
        retries_absorbed->fetch_add(absorbed);
      }
    });
  }
  for (std::thread& d : drivers) d.join();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  result.requests = requests.load();
  result.failures = failures.load();
  return result;
}

// Holds open `total` concurrent connections (the fan-in scale test),
// then round-trips one request on every single one: each connection must
// be live and served, not merely accepted.
bool HoldConnections(uint16_t port, int total, uint64_t* served,
                     uint64_t* failed) {
  const int kThreads = 8;
  std::atomic<uint64_t> ok{0}, bad{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      int quota = total / kThreads + (t < total % kThreads ? 1 : 0);
      std::vector<std::unique_ptr<Client>> conns;
      for (int i = 0; i < quota; ++i) {
        Result<std::unique_ptr<Client>> client =
            Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          bad.fetch_add(1);
          continue;
        }
        conns.push_back(std::move(client).value());
      }
      for (auto& conn : conns) {
        Result<std::string> r =
            conn->ExecuteRetrying("select x.qty from x in item");
        if (r.ok()) {
          ok.fetch_add(1);
        } else {
          bad.fetch_add(1);
        }
      }
      // All connections stay open until here: the server holds
      // `total` concurrent sockets while every request is served.
    });
  }
  for (std::thread& d : drivers) d.join();
  *served = ok.load();
  *failed = bad.load();
  return bad.load() == 0;
}

int WriteServerReport(const std::string& path) {
  TryRaiseNofileLimit(16384);

  // Phase 1+2 server: generous admission so the workload itself is the
  // limit. A small worker pool, as deployed.
  BenchServer main_srv;
  ServerOptions options;
  options.worker_threads = 4;
  options.max_pending_requests = 4096;
  options.max_commit_backlog = 1 << 20;
  if (!BenchServer::Start("srv_report", options, &main_srv) ||
      !main_srv.Seed()) {
    std::fprintf(stderr, "bench server setup failed\n");
    return 1;
  }

  // Phase 1: connection scale. 1000 concurrent connections, one served
  // request each.
  constexpr int kConnections = 1000;
  uint64_t scale_served = 0, scale_failed = 0;
  bool scale_ok = HoldConnections(main_srv.server->port(), kConnections,
                                  &scale_served, &scale_failed);

  // Phase 2: sustained mixed throughput over persistent connections.
  std::atomic<uint64_t> throughput_retries{0};
  PhaseResult throughput = DriveWorkload(main_srv.server->port(),
                                         /*threads=*/4,
                                         /*conns_per_thread=*/4,
                                         /*requests_per_conn=*/250,
                                         &throughput_retries);
  const ServerStats& main_stats = main_srv.server->stats();
  uint64_t conflict_retries = main_stats.conflict_retries.load();
  uint64_t conflict_exhausted = main_stats.conflict_budget_exhausted.load();
  main_srv.server->Stop();
  main_srv.sink->Close();

  // Phase 3: backpressure. A deliberately tiny admission window and one
  // worker; a burst of drivers must see retryable rejections (shed load)
  // while every request eventually lands via client backoff.
  BenchServer tight;
  ServerOptions tight_options;
  tight_options.worker_threads = 1;
  tight_options.max_pending_requests = 2;
  tight_options.max_commit_backlog = 1;
  if (!BenchServer::Start("srv_tight", tight_options, &tight) ||
      !tight.Seed()) {
    std::fprintf(stderr, "backpressure server setup failed\n");
    return 1;
  }
  std::atomic<uint64_t> bp_retries{0};
  PhaseResult pressure = DriveWorkload(tight.server->port(),
                                       /*threads=*/8,
                                       /*conns_per_thread=*/2,
                                       /*requests_per_conn=*/25,
                                       &bp_retries);
  uint64_t rejections = tight.server->stats().admission_rejections.load();
  tight.server->Stop();
  tight.sink->Close();

  char buf[256];
  std::string json;
  json += "{\n";
  json += "  \"benchmark\": \"server\",\n";
  json += "  \"connection_scale\": {\n";
  json += "    \"connections\": " + std::to_string(kConnections) + ",\n";
  json += "    \"served\": " + std::to_string(scale_served) + ",\n";
  json += "    \"failed\": " + std::to_string(scale_failed) + ",\n";
  json += std::string("    \"sustained\": ") +
          (scale_ok ? "true" : "false") + "\n";
  json += "  },\n";
  std::snprintf(buf, sizeof(buf),
                "  \"throughput\": {\n"
                "    \"requests\": %llu,\n"
                "    \"failures\": %llu,\n"
                "    \"seconds\": %.3f,\n"
                "    \"requests_per_sec\": %.1f,\n"
                "    \"conflict_retries\": %llu,\n"
                "    \"conflict_budget_exhausted\": %llu,\n"
                "    \"client_retries_absorbed\": %llu\n"
                "  },\n",
                static_cast<unsigned long long>(throughput.requests),
                static_cast<unsigned long long>(throughput.failures),
                throughput.seconds, throughput.per_sec(),
                static_cast<unsigned long long>(conflict_retries),
                static_cast<unsigned long long>(conflict_exhausted),
                static_cast<unsigned long long>(throughput_retries.load()));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"backpressure\": {\n"
                "    \"requests\": %llu,\n"
                "    \"failures\": %llu,\n"
                "    \"retryable_rejections\": %llu,\n"
                "    \"client_retries_absorbed\": %llu\n"
                "  }\n",
                static_cast<unsigned long long>(pressure.requests),
                static_cast<unsigned long long>(pressure.failures),
                static_cast<unsigned long long>(rejections),
                static_cast<unsigned long long>(bp_retries.load()));
  json += buf;
  json += "}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n%s", path.c_str(), json.c_str());
  // The acceptance gates: full fan-in with zero failures, and observed
  // load-shedding under the tight server.
  if (!scale_ok || throughput.failures != 0) return 1;
  if (rejections == 0) {
    std::fprintf(stderr, "expected backpressure rejections, saw none\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tchimera

int main(int argc, char** argv) {
  tchimera::IgnoreSigpipe();
  return tchimera::ReportMain(argc, argv, "BENCH_server.json",
                              tchimera::WriteServerReport);
}
