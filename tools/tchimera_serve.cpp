// tchimera_serve: the socket server front end.
//
//   tchimera_serve [flags] [DBDIR]
//
//     DBDIR                persist to DBDIR/{snapshot.tchdb,journal.tql}
//                          (recovered on start; omitted = in-memory)
//     --host=H             listen address        (default 127.0.0.1)
//     --port=P             listen port           (default 7411; 0 = ephemeral)
//     --workers=N          session pool size     (default 4)
//     --max-pending=N      request-queue admission limit   (default 256)
//     --max-backlog=N      group-commit backlog admission limit (default 1024)
//     --retry-budget=N     optimistic attempts per request (default 5)
//     --port-file=PATH     write the bound port to PATH once listening
//                          (how tests and benches find an ephemeral port)
//
// Assembly order matters and mirrors examples/temporal_repl.cpp: recover
// the engine (RecoveryManager::RecoverEngine) *before* the commit sink is
// installed — replay must not re-journal — then open the sink at the
// recovered epoch, install it, and only then serve.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "query/session.h"
#include "server/net.h"
#include "server/server.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"

namespace {

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using tchimera::Engine;
  using tchimera::GroupCommitJournal;
  using tchimera::Result;
  using tchimera::Server;
  using tchimera::ServerOptions;
  using tchimera::Status;

  tchimera::IgnoreSigpipe();

  ServerOptions options;
  options.port = 7411;
  std::string dir_arg, port_file, value;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--host", &value)) {
      options.host = value;
    } else if (ParseFlag(argv[i], "--port", &value)) {
      options.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      options.worker_threads = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--max-pending", &value)) {
      options.max_pending_requests =
          static_cast<size_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--max-backlog", &value)) {
      options.max_commit_backlog =
          static_cast<uint64_t>(std::atoll(value.c_str()));
    } else if (ParseFlag(argv[i], "--retry-budget", &value)) {
      options.conflict_retry_budget = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--port-file", &value)) {
      port_file = value;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    } else {
      dir_arg = argv[i];
    }
  }

  std::string snapshot_path, journal_path;
  if (!dir_arg.empty()) {
    std::filesystem::path dir(dir_arg);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    snapshot_path = (dir / tchimera::kSnapshotFileName).string();
    journal_path = (dir / tchimera::kJournalFileName).string();
  }

  auto engine = std::make_unique<Engine>();
  GroupCommitJournal sink;
  if (!journal_path.empty()) {
    tchimera::RecoveryStats stats;
    Result<std::unique_ptr<Engine>> recovered =
        tchimera::RecoveryManager(snapshot_path, journal_path)
            .RecoverEngine(&stats);
    for (const std::string& note : stats.notes) {
      std::fprintf(stderr, "recovery: %s\n", note.c_str());
    }
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    engine = std::move(recovered).value();
    std::fprintf(stderr, "recovered: %zu objects, %zu statement(s)\n",
                 engine->OpenSnapshot().db().object_count(),
                 stats.statements_applied);
    tchimera::JournalOptions journal_options;
    journal_options.epoch = stats.next_epoch;
    Status opened = sink.Open(journal_path, journal_options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.ToString().c_str());
      return 1;
    }
    engine->set_commit_sink(&sink);
    options.commit_backlog = [&sink]() -> uint64_t {
      // Read durable first: reading enqueued first could observe a value
      // smaller than a durable read a moment later and underflow.
      uint64_t d = sink.durable();
      uint64_t e = sink.enqueued();
      return e > d ? e - d : 0;
    };
  }

  // Block the shutdown signals BEFORE Start() so every thread the server
  // spawns inherits the mask; sigwait below then consumes them
  // synchronously on the main thread — no async handlers, no EINTR
  // storms in the workers.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  tchimera::TryRaiseNofileLimit(16384);
  Server server(engine.get(), options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    // Write-then-rename so a watcher never reads a half-written port.
    std::string tmp = port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", static_cast<unsigned>(server.port()));
      std::fclose(f);
      (void)std::rename(tmp.c_str(), port_file.c_str());
    }
  }
  std::fprintf(stderr, "tchimera_serve listening on %s:%u (%s)\n",
               options.host.c_str(), static_cast<unsigned>(server.port()),
               journal_path.empty() ? "in-memory" : dir_arg.c_str());

  // Park until SIGINT/SIGTERM arrives (mask installed above).
  int sig = 0;
  (void)sigwait(&set, &sig);
  std::fprintf(stderr, "signal %d: shutting down\n", sig);

  server.Stop();
  if (sink.is_open()) sink.Close();
  return 0;
}
