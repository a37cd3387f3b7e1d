// tchimera-recover: offline inspection and repair for a T_Chimera
// database directory (the snapshot.tchdb / journal.tql pair the REPL and
// embedders write).
//
//   tchimera_recover inspect <dir>   report snapshot + journal health
//   tchimera_recover verify  <dir>   dry-run full recovery with audit;
//                                    exit 1 if the directory cannot be
//                                    recovered to a consistent database
//   tchimera_recover salvage <dir>   quarantine torn v2 journal tails to
//                                    <journal>.corrupt (what recovery
//                                    would do, without replaying)
//   tchimera_recover verify-replica <replica-dir> <primary-dir>
//                                    recover both directories and compare
//                                    state hashes: exit 0 when the
//                                    replica's replayed copy of the
//                                    shipped journal matches the primary,
//                                    1 on divergence, 2 when the replica
//                                    merely lags (a resync/drain away
//                                    from comparable)
//
// Nothing here ever mutates the snapshot; `salvage` only moves corrupt
// journal bytes aside, which is information-preserving.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "query/session.h"
#include "server/net.h"
#include "storage/deserializer.h"
#include "storage/journal.h"
#include "storage/recovery.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

// The journal files of `dir` in replay order: rotated epochs ascending,
// then the live journal.
Result<std::vector<std::string>> JournalPaths(const std::string& dir) {
  const std::string live = dir + "/" + kJournalFileName;
  bool live_exists = false;
  TCH_ASSIGN_OR_RETURN(std::vector<uint64_t> epochs,
                       ListJournalFiles(nullptr, live, &live_exists));
  std::vector<std::string> paths;
  for (uint64_t epoch : epochs) {
    paths.push_back(Journal::RotatedPath(live, epoch));
  }
  if (live_exists) paths.push_back(live);
  return paths;
}

void PrintScan(const std::string& path, const JournalScan& scan) {
  std::printf("journal  %s\n", path.c_str());
  std::printf("  format v%d  epoch %llu  statements %zu  valid bytes %llu\n",
              scan.format, static_cast<unsigned long long>(scan.epoch),
              scan.statements.size(),
              static_cast<unsigned long long>(scan.valid_bytes));
  if (!scan.tail_error.ok()) {
    std::printf("  CORRUPT TAIL: %llu byte(s) — %s\n",
                static_cast<unsigned long long>(scan.dropped_bytes),
                scan.tail_error.message().c_str());
  }
}

int Inspect(const std::string& dir) {
  int corrupt = 0;
  std::string snapshot = dir + "/" + kSnapshotFileName;
  if (FileSystem::Default()->FileExists(snapshot)) {
    auto info = ProbeSnapshotFile(snapshot);
    if (!info.ok()) {
      std::printf("snapshot %s: unreadable: %s\n", snapshot.c_str(),
                  info.status().ToString().c_str());
      ++corrupt;
    } else {
      std::printf("snapshot %s\n", snapshot.c_str());
      std::printf("  format v%d  epoch %llu  records %zu  bytes %llu\n",
                  info->version,
                  static_cast<unsigned long long>(info->epoch),
                  info->records,
                  static_cast<unsigned long long>(info->byte_size));
      if (!info->integrity.ok()) {
        std::printf("  CORRUPT: %s\n", info->integrity.message().c_str());
        ++corrupt;
      }
    }
  } else {
    std::printf("snapshot %s: absent\n", snapshot.c_str());
  }
  if (FileSystem::Default()->FileExists(snapshot + ".tmp")) {
    std::printf("snapshot %s.tmp: leftover of an interrupted checkpoint "
                "(recovery deletes it)\n",
                snapshot.c_str());
  }
  Result<std::vector<std::string>> files = JournalPaths(dir);
  if (!files.ok()) {
    std::printf("journals %s: unlistable: %s\n", dir.c_str(),
                files.status().ToString().c_str());
    return 1;
  }
  for (const std::string& file : *files) {
    auto scan = ScanJournal(file);
    if (!scan.ok()) {
      std::printf("journal  %s: unreadable: %s\n", file.c_str(),
                  scan.status().ToString().c_str());
      ++corrupt;
      continue;
    }
    PrintScan(file, *scan);
    if (!scan->tail_error.ok()) ++corrupt;
  }
  return corrupt == 0 ? 0 : 1;
}

int Verify(const std::string& dir) {
  // The REPL's and the server's own restart, audit included.
  RecoveryManager manager(dir + "/" + kSnapshotFileName,
                          dir + "/" + kJournalFileName);
  RecoveryStats stats;
  Result<std::unique_ptr<Engine>> engine = manager.RecoverEngine(&stats);
  for (const std::string& note : stats.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("snapshot %s (epoch %llu), %zu journal file(s), "
              "%zu statement(s) replayed\n",
              stats.snapshot_loaded ? "loaded" : "absent",
              static_cast<unsigned long long>(stats.snapshot_epoch),
              stats.journals_replayed, stats.statements_applied);
  if (!engine.ok()) {
    std::printf("NOT RECOVERABLE: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  ReadSnapshot snap = (*engine)->OpenSnapshot();
  const Database& db = snap.db();
  std::printf("OK: recovers to a consistent database "
              "(%zu objects, now = %lld)\n",
              db.object_count(), static_cast<long long>(db.now()));
  return 0;
}

int Salvage(const std::string& dir) {
  Result<std::vector<std::string>> files = JournalPaths(dir);
  if (!files.ok()) {
    std::printf("journals %s: unlistable: %s\n", dir.c_str(),
                files.status().ToString().c_str());
    return 1;
  }
  int failures = 0;
  for (const std::string& file : *files) {
    auto scan = SalvageJournal(file);
    if (!scan.ok()) {
      std::printf("%s: %s\n", file.c_str(),
                  scan.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (scan->dropped_bytes > 0) {
      std::printf("%s: quarantined %llu corrupt tail byte(s) to "
                  "%s.corrupt (%s)\n",
                  file.c_str(),
                  static_cast<unsigned long long>(scan->dropped_bytes),
                  file.c_str(), scan->tail_error.message().c_str());
    } else {
      std::printf("%s: clean (%zu statement(s))\n", file.c_str(),
                  scan->statements.size());
    }
  }
  return failures == 0 ? 0 : 1;
}

// One recovered database directory plus where its journal stream ends
// (replica journals mirror the primary's epoch/seq numbering, so the
// positions are directly comparable).
struct RecoveredDir {
  std::unique_ptr<Engine> engine;
  uint64_t epoch = 0;
  uint64_t last_seq = 0;
};

Status RecoverDir(const std::string& dir, RecoveredDir* out) {
  RecoveryOptions options;
  options.audit = AuditMode::kOff;
  const std::string live = dir + "/" + kJournalFileName;
  RecoveryManager manager(dir + "/" + kSnapshotFileName, live, options);
  RecoveryStats stats;
  TCH_ASSIGN_OR_RETURN(out->engine, manager.RecoverEngine(&stats));
  out->epoch = stats.next_epoch;
  // A missing live journal fails the scan and keeps the recovered epoch.
  auto scan = ScanJournal(live);
  if (scan.ok()) {
    out->epoch = scan->epoch;
    out->last_seq = scan->last_seq;
  }
  return Status::OK();
}

int VerifyReplica(const std::string& replica_dir,
                  const std::string& primary_dir) {
  RecoveredDir replica, primary;
  Status status = RecoverDir(replica_dir, &replica);
  if (!status.ok()) {
    std::printf("replica %s: NOT RECOVERABLE: %s\n", replica_dir.c_str(),
                status.ToString().c_str());
    return 1;
  }
  status = RecoverDir(primary_dir, &primary);
  if (!status.ok()) {
    std::printf("primary %s: NOT RECOVERABLE: %s\n", primary_dir.c_str(),
                status.ToString().c_str());
    return 1;
  }
  auto replica_hash =
      DatabaseStateHash(replica.engine->OpenSnapshot().db(),
                        replica.engine->active().DefinitionStatements());
  auto primary_hash =
      DatabaseStateHash(primary.engine->OpenSnapshot().db(),
                        primary.engine->active().DefinitionStatements());
  if (!replica_hash.ok() || !primary_hash.ok()) {
    std::printf("state hash failed: %s\n",
                (!replica_hash.ok() ? replica_hash.status() :
                                      primary_hash.status())
                    .ToString()
                    .c_str());
    return 1;
  }
  std::printf("replica  epoch %llu seq %llu  hash %08x\n",
              static_cast<unsigned long long>(replica.epoch),
              static_cast<unsigned long long>(replica.last_seq),
              replica_hash.value());
  std::printf("primary  epoch %llu seq %llu  hash %08x\n",
              static_cast<unsigned long long>(primary.epoch),
              static_cast<unsigned long long>(primary.last_seq),
              primary_hash.value());
  if (replica_hash.value() == primary_hash.value()) {
    std::printf("OK: replica state matches the primary\n");
    return 0;
  }
  const bool lagging =
      replica.epoch < primary.epoch ||
      (replica.epoch == primary.epoch && replica.last_seq < primary.last_seq);
  if (lagging) {
    std::printf("LAGGING: replica is behind the primary's stream position "
                "(not divergence; drain or resync and re-verify)\n");
    return 2;
  }
  std::printf("DIVERGED: replica is at or past the primary's stream "
              "position yet its state hash differs\n");
  return 1;
}

}  // namespace
}  // namespace tchimera

int main(int argc, char** argv) {
  tchimera::IgnoreSigpipe();
  std::string command = argc > 1 ? argv[1] : "";
  if ((command == "verify-replica" || command == "--verify-replica") &&
      argc == 4) {
    return tchimera::VerifyReplica(argv[2], argv[3]);
  }
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: %s inspect|verify|salvage <db-directory>\n"
                 "       %s verify-replica <replica-dir> <primary-dir>\n",
                 argv[0], argv[0]);
    return 2;
  }
  std::string dir = argv[2];
  if (command == "inspect") return tchimera::Inspect(dir);
  if (command == "verify") return tchimera::Verify(dir);
  if (command == "salvage") return tchimera::Salvage(dir);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
