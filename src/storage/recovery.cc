#include "storage/recovery.h"

#include <utility>

#include "core/db/consistency.h"
#include "storage/serializer.h"

namespace tchimera {
namespace {

void Note(RecoveryStats* stats, std::string message) {
  stats->notes.push_back(std::move(message));
}

}  // namespace

RecoveryManager::RecoveryManager(std::string snapshot_path,
                                 std::string journal_path,
                                 RecoveryOptions options)
    : snapshot_path_(std::move(snapshot_path)),
      journal_path_(std::move(journal_path)),
      options_(options) {}

FileSystem* RecoveryManager::fs() const {
  return options_.fs == nullptr ? FileSystem::Default() : options_.fs;
}

Result<LoadedSnapshot> RecoveryManager::LoadSnapshot(RecoveryStats* stats) {
  // A leftover tmp file is a checkpoint that died before its rename; the
  // real snapshot is intact, the tmp is garbage.
  std::string tmp = snapshot_path_ + ".tmp";
  if (fs()->FileExists(tmp)) {
    TCH_RETURN_IF_ERROR(fs()->RemoveFile(tmp));
    ++stats->stale_files_removed;
    Note(stats, "removed interrupted snapshot " + tmp);
  }
  stats->snapshot_loaded = false;
  stats->snapshot_epoch = 0;
  if (!fs()->FileExists(snapshot_path_)) {
    Note(stats, "no snapshot; recovering from the journals alone");
    LoadedSnapshot empty;
    empty.db = std::make_unique<Database>();
    return empty;
  }
  TCH_ASSIGN_OR_RETURN(std::string text,
                       fs()->ReadFileToString(snapshot_path_));
  TCH_ASSIGN_OR_RETURN(SnapshotInfo info, ProbeSnapshot(text));
  // Snapshot writes are atomic, so a failed integrity check is bit rot,
  // not a crash artifact — refuse to build any state from it.
  TCH_RETURN_IF_ERROR(info.integrity);
  TCH_ASSIGN_OR_RETURN(LoadedSnapshot loaded, LoadSnapshotFromString(text));
  stats->snapshot_loaded = true;
  stats->snapshot_epoch = info.epoch;
  Note(stats, "loaded v" + std::to_string(info.version) +
                  " snapshot at epoch " + std::to_string(info.epoch));
  if (!loaded.definitions.empty()) {
    Note(stats, "snapshot carries " +
                    std::to_string(loaded.definitions.size()) +
                    " definition statement(s)");
  }
  return loaded;
}

Status RecoveryManager::ReplayJournals(uint64_t snapshot_epoch,
                                       ActiveDatabase& active,
                                       RecoveryStats* stats) {
  // Discover the rotated journals next to the live one.
  bool live_exists = false;
  TCH_ASSIGN_OR_RETURN(std::vector<uint64_t> listed,
                       ListJournalFiles(fs(), journal_path_, &live_exists));
  std::vector<uint64_t> rotated;
  for (uint64_t epoch : listed) {
    if (epoch >= snapshot_epoch) {
      rotated.push_back(epoch);
      continue;
    }
    // Fully contained in the snapshot: stale leftover of a checkpoint
    // that crashed between writing the snapshot and deleting these.
    const std::string stale = Journal::RotatedPath(journal_path_, epoch);
    TCH_RETURN_IF_ERROR(fs()->RemoveFile(stale));
    ++stats->stale_files_removed;
    Note(stats, "removed stale journal " + stale + " (epoch " +
                    std::to_string(epoch) + " < snapshot epoch " +
                    std::to_string(snapshot_epoch) + ")");
  }

  // The live journal, if present and carrying a readable header, bounds
  // the epoch sequence from above. A live journal with no valid header
  // (empty, or a header torn by a crash during Rotate/Open before the
  // sync) carries no epoch information: it has no statements either, so
  // it is sequenced like a missing live journal and merely salvaged. It
  // is read once: this scan is also what gets salvaged and replayed.
  JournalScan live_scan;
  uint64_t live_epoch = 0;
  bool live_has_header = false;
  if (live_exists) {
    TCH_ASSIGN_OR_RETURN(live_scan, ScanJournal(journal_path_, fs()));
    live_epoch = live_scan.epoch;  // 0 for v1
    live_has_header = live_scan.format == 1 ||
                      (live_scan.format == 2 && live_scan.valid_bytes > 0);
    if (live_has_header && live_epoch < snapshot_epoch) {
      // The checkpoint protocol always leaves the live journal at an
      // epoch >= the snapshot's; an older live journal means files from
      // different histories were mixed together, and its statements are
      // already (differently) reflected in the snapshot.
      return Status::Corruption(
          "live journal epoch " + std::to_string(live_epoch) +
          " predates snapshot epoch " + std::to_string(snapshot_epoch));
    }
    if (!live_has_header) {
      Note(stats, "live journal has no readable header (crash during "
                  "rotation); sequencing from the rotated journals");
    }
  }

  // Every epoch in [snapshot_epoch, live_epoch) must be present as a
  // rotated file, exactly once, and nothing above the live epoch may
  // exist — any other shape means journals were lost or mixed up, and
  // replaying around the hole would silently drop transactions.
  std::vector<uint64_t> expected;
  if (live_exists && live_has_header) {
    for (uint64_t e = snapshot_epoch; e < live_epoch; ++e) {
      expected.push_back(e);
    }
    if (rotated != expected) {
      return Status::Corruption(
          "journal epochs are not contiguous: snapshot epoch " +
          std::to_string(snapshot_epoch) + ", live journal epoch " +
          std::to_string(live_epoch) + ", " +
          std::to_string(rotated.size()) + " rotated file(s)");
    }
  } else if (!rotated.empty()) {
    // No live epoch to anchor on (missing live journal, or one with no
    // readable header): the rotated files themselves must be gapless.
    for (uint64_t e = rotated.front(); e <= rotated.back(); ++e) {
      expected.push_back(e);
    }
    if (rotated != expected || rotated.front() != snapshot_epoch) {
      return Status::Corruption(
          "rotated journals do not start at snapshot epoch " +
          std::to_string(snapshot_epoch) + " or have gaps");
    }
  }

  stats->next_epoch = (live_exists && live_has_header)
                          ? live_epoch
                          : (rotated.empty() ? snapshot_epoch
                                             : rotated.back() + 1);

  // Replay: rotated files in epoch order, then the live journal. Torn v2
  // tails are salvaged first, so replay sees the longest valid prefix and
  // the corrupt bytes are preserved in `<file>.corrupt`.
  std::vector<std::string> files;
  for (uint64_t epoch : rotated) {
    files.push_back(Journal::RotatedPath(journal_path_, epoch));
  }
  if (live_exists) files.push_back(journal_path_);
  for (const std::string& file : files) {
    JournalScan scan;
    if (file == journal_path_) {
      scan = std::move(live_scan);
    } else {
      TCH_ASSIGN_OR_RETURN(scan, ScanJournal(file, fs()));
    }
    TCH_RETURN_IF_ERROR(QuarantineJournalTail(file, scan, fs()));
    if (scan.dropped_bytes > 0) {
      stats->salvaged_bytes += scan.dropped_bytes;
      Note(stats, "salvaged " + file + ": dropped " +
                      std::to_string(scan.dropped_bytes) +
                      " corrupt tail byte(s) (" +
                      scan.tail_error.message() + ")");
    }
    size_t replayed = 0;
    for (const std::string& statement : scan.statements) {
      Status s = active.Execute(statement).status();
      if (!s.ok()) {
        return Status::Corruption(
            "journal " + file + " statement " +
            std::to_string(replayed + 1) +
            " failed to replay: " + s.ToString());
      }
      ++replayed;
      ++stats->statements_applied;
    }
    ++stats->journals_replayed;
  }
  return Status::OK();
}

Status RecoveryManager::Audit(Database* db, RecoveryStats* stats) const {
  if (options_.audit == AuditMode::kOff) return Status::OK();
  Status st = CheckDatabaseConsistency(*db);
  if (st.ok() || options_.audit == AuditMode::kFail) return st;

  // kQuarantine: evict every object that fails its own consistency check
  // and retry. Evictions can orphan references *to* the evicted objects
  // (their extents are scrubbed, so referencing values become illegal),
  // which the next round catches — the loop is bounded by the object
  // count since every round removes at least one object.
  while (!st.ok()) {
    bool removed = false;
    for (Oid oid : db->AllOids()) {
      if (CheckObjectConsistency(*db, oid).ok()) continue;
      TCH_RETURN_IF_ERROR(db->QuarantineObject(oid));
      ++stats->quarantined_objects;
      Note(stats, "quarantined inconsistent object " + oid.ToString());
      removed = true;
    }
    if (!removed) {
      // The inconsistency is not attributable to any single object
      // (e.g. a schema-level invariant violation): not healable here.
      return st;
    }
    st = CheckDatabaseConsistency(*db);
  }
  return Status::OK();
}

Status RecoveryManager::Restore(const Host& host, RecoveryStats* stats) {
  // Past this point every phase reports into a real stats object.
  RecoveryStats discarded;
  if (stats == nullptr) stats = &discarded;
  TCH_ASSIGN_OR_RETURN(LoadedSnapshot loaded, LoadSnapshot(stats));
  const uint64_t snapshot_epoch = stats->snapshot_epoch;
  return host(std::move(loaded.db), [&](Database& db, ActiveDatabase& active) {
    for (const std::string& definition : loaded.definitions) {
      Status s = active.Execute(definition).status();
      if (!s.ok()) {
        return Status::Corruption("snapshot definition failed to replay: " +
                                  s.ToString());
      }
    }
    TCH_RETURN_IF_ERROR(ReplayJournals(snapshot_epoch, active, stats));
    return Audit(&db, stats);
  });
}

Result<std::unique_ptr<Database>> RecoveryManager::Recover(
    RecoveryStats* stats) {
  std::unique_ptr<Database> recovered;
  TCH_RETURN_IF_ERROR(Restore(
      [&recovered](std::unique_ptr<Database> db, const Replay& replay) {
        ActiveDatabase active(db.get());
        TCH_RETURN_IF_ERROR(replay(*db, active));
        recovered = std::move(db);
        return Status::OK();
      },
      stats));
  return recovered;
}

Result<std::unique_ptr<Engine>> RecoveryManager::RecoverEngine(
    RecoveryStats* stats) {
  std::unique_ptr<Engine> engine;
  TCH_RETURN_IF_ERROR(Restore(
      [&engine](std::unique_ptr<Database> db, const Replay& replay) {
        engine = std::make_unique<Engine>(std::move(db));
        return engine->WithExclusive(replay);
      },
      stats));
  return engine;
}

Status RecoveryManager::Checkpoint(const Database& db, Journal* journal,
                                   const std::string& snapshot_path,
                                   FileSystem* fs,
                                   const std::vector<std::string>& definitions) {
  if (fs == nullptr) fs = FileSystem::Default();
  if (journal == nullptr || !journal->is_open()) {
    return Status::FailedPrecondition("checkpoint requires an open journal");
  }
  // Step 1: park the live journal under its epoch; appends now go to a
  // fresh journal with the next epoch. Nothing is lost if we crash here —
  // recovery replays the rotated file like any other epoch.
  TCH_RETURN_IF_ERROR(journal->Rotate().status());
  // Step 2: the snapshot, stamped with the new epoch, lands atomically.
  uint64_t epoch = journal->epoch();
  TCH_RETURN_IF_ERROR(
      SaveDatabaseToFile(db, snapshot_path, epoch, fs, definitions));
  // Step 3: only now are the older journals redundant. Oldest first, so a
  // crash mid-loop leaves a contiguous (stale) tail for recovery to
  // finish deleting.
  bool live = false;
  TCH_ASSIGN_OR_RETURN(std::vector<uint64_t> rotated,
                       ListJournalFiles(fs, journal->path(), &live));
  for (uint64_t e : rotated) {
    if (e >= epoch) break;
    TCH_RETURN_IF_ERROR(
        fs->RemoveFile(Journal::RotatedPath(journal->path(), e)));
  }
  return Status::OK();
}

}  // namespace tchimera
