// An interactive TQL shell over a persistent T_Chimera database.
//
//   ./build/examples/temporal_repl [--no-compile] [db-directory]
//
// `--no-compile` disables the compiled read path (query/lower.h +
// query/vm.h): every select/when tree-walks through the evaluator, and
// `explain` still shows what the compiler would have produced.
//
// On startup the shell runs crash recovery over the database directory
// (RecoveryManager::RecoverEngine: snapshot load, journal replay in epoch
// order with torn-tail salvage, consistency audit — see
// storage/recovery.h). Statements then run
// through a query Session over the concurrent Engine (query/session.h):
// mutating statements are serialized, journaled through the group-commit
// sink (storage/group_commit.h) and acknowledged only once durable;
// `.checkpoint` runs the safe rotate-snapshot-delete protocol with the
// sink quiesced. Without a directory argument the session is in-memory
// only.
//
// Recovery replays through the engine's ActiveDatabase facade, so
// journaled `trigger` and `constraint` definitions are restored too; a
// checkpoint persists them as the snapshot's DEFINE records (snapshot
// v3), which recovery replays back through the facade.
//
// Meta commands: .help .checkpoint .quit — everything else is TQL
// (see src/query/parser.h for the grammar).
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "core/db/database.h"
#include "query/session.h"
#include "server/net.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"
#include "triggers/trigger.h"

namespace {

constexpr const char* kHelp = R"(TQL statements:
  define class NAME [under SUPER,...] [attributes a: type, ...]
      [methods m(T,...): T, ...] [c-attributes a: type, ...] end
  create CLASS [at T] (attr: value, ...)
  update iN set attr = value [during [a,b]]
  migrate iN to CLASS [set attr = value, ...]
  delete iN
  select expr, ... from x in CLASS [at T] [where expr]
  snapshot iN [at T]   |  history iN.attr
  tick [n]  |  advance to T  |  check  |  when <expr>
  explain <select|when ...>   (print the compiled plan or fallback reason)
  show class NAME | show object iN | show classes | show now
  trigger NAME on EVENT [of CLASS[.ATTR]] do <stmt>
  constraint NAME on CLASS always|sometime <expr>
  constraint NAME on CLASS nondecreasing|immutable ATTR
meta commands:
  .help  .checkpoint  .quit
)";

}  // namespace

int main(int argc, char** argv) {
  // A shell piped into `head` (or a dying pager) should see EPIPE as an
  // ordinary write error, not take the process down mid-fdatasync.
  tchimera::IgnoreSigpipe();
  using tchimera::Database;
  using tchimera::Engine;
  using tchimera::GroupCommitJournal;
  using tchimera::Result;
  using tchimera::Session;
  using tchimera::Status;

  bool compile_enabled = true;
  std::string dir_arg;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--no-compile") {
      compile_enabled = false;
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
  } else {
    std::printf("(in-memory session; pass a directory to persist)\n");
  }

  // Recovery replays on the engine before the commit sink is installed,
  // so replayed statements are not re-journaled.
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
    tchimera::ReadSnapshot snap = engine->OpenSnapshot();
    std::printf("recovered: %zu objects, now = %lld "
                "(%zu statement(s) replayed)\n",
                snap.db().object_count(),
                static_cast<long long>(snap.db().now()),
                stats.statements_applied);
    tchimera::JournalOptions options;
    options.epoch = stats.next_epoch;
    Status opened = sink.Open(journal_path, options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.ToString().c_str());
      return 1;
    }
    engine->set_commit_sink(&sink);
  }
  Session session = engine->OpenSession();
  session.set_compile_enabled(compile_enabled);
  std::printf("T_Chimera temporal shell — .help for help\n");
  std::string line;
  while (true) {
    std::printf("tql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = tchimera::StripWhitespace(line);
    if (trimmed.empty()) continue;
    if (trimmed == ".quit" || trimmed == ".exit") break;
    if (trimmed == ".help") {
      std::printf("%s", kHelp);
      continue;
    }
    if (trimmed == ".checkpoint") {
      if (snapshot_path.empty()) {
        std::printf("no database directory; nothing to checkpoint\n");
        continue;
      }
      // Exclusive over the engine, quiesced over the sink: the snapshot
      // sees a committed state and the journal rotates at a batch
      // boundary. Lock order (writer lock, then sink mutex) matches the
      // write path.
      Status s = engine->WithExclusive(
          [&](Database& live, tchimera::ActiveDatabase& active) {
            return sink.WithQuiesced([&](tchimera::Journal& journal) {
              return tchimera::RecoveryManager::Checkpoint(
                  live, &journal, snapshot_path, nullptr,
                  active.DefinitionStatements());
            });
          });
      std::printf("%s\n", s.ok() ? "checkpointed" : s.ToString().c_str());
      continue;
    }
    // Session::Execute routes reads to a snapshot and mutations through
    // the serialized write path; a mutating statement is journaled and
    // fdatasynced (group commit) before the prompt acknowledges it.
    Result<std::string> out = session.Execute(trimmed);
    if (!out.ok()) {
      std::printf("error: %s\n", out.status().ToString().c_str());
      continue;
    }
    std::printf("%s\n", out->c_str());
  }
  std::printf("\nbye\n");
  return 0;
}
