// Crash-consistent recovery and checkpointing over the snapshot+journal
// persistence pair (serializer.h / journal.h).
//
// Epochs tie the two together. Every journal carries an epoch in its
// header; a snapshot written with EPOCH e contains the effects of every
// journal with epoch < e. The checkpoint protocol is:
//
//   1. Rotate the live journal (epoch k) aside to `<journal>.e<k>` and
//      start a fresh live journal with epoch k+1.
//   2. Write the snapshot with EPOCH k+1, atomically (tmp + fsync +
//      rename + dir fsync).
//   3. Only now delete the journal files with epoch < k+1 — they are
//      redundant, the durable snapshot covers them.
//
// A crash at any point leaves a recoverable disk: before step 2 commits,
// the old snapshot plus the rotated and live journals replay to the same
// state; after it, the rotated files are stale and recovery deletes them.
//
// Recovery inverts the protocol:
//
//   1. Load the snapshot (epoch S). A v2 snapshot is checksum-verified
//      before any state is built; corruption fails recovery (the snapshot
//      write is atomic, so a bad snapshot is bit rot, not a crash
//      artifact). A leftover `<snapshot>.tmp` is deleted.
//   2. Delete rotated journals with epoch < S (covered by the snapshot),
//      then replay the remaining rotated journals in epoch order followed
//      by the live journal (iff its epoch >= S). Torn v2 tails are
//      salvaged (quarantined to `<file>.corrupt`), and replay applies the
//      longest valid prefix. Missing epochs in [S, live) fail with
//      Corruption — that is lost data, not a crash artifact.
//   3. Audit the recovered database against the paper's consistency
//      notions (Definitions 5.3-5.6, Invariants 5.1/5.2/6.1/6.2) per
//      AuditMode.
#ifndef TCHIMERA_STORAGE_RECOVERY_H_
#define TCHIMERA_STORAGE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/result.h"
#include "core/db/database.h"
#include "storage/journal.h"

namespace tchimera {

// What to do with the post-recovery consistency audit.
enum class AuditMode {
  kOff,         // trust the replay
  kFail,        // any inconsistency fails recovery (fail-safe default)
  kQuarantine,  // evict objects that fail their per-object check (plus
                // any left dangling by the eviction) and carry on; fails
                // only if the database cannot be healed that way
};

struct RecoveryOptions {
  AuditMode audit = AuditMode::kFail;
  FileSystem* fs = nullptr;  // nullptr = FileSystem::Default()
};

// What recovery found and did; every field is best-effort filled even
// when recovery fails partway.
struct RecoveryStats {
  bool snapshot_loaded = false;
  uint64_t snapshot_epoch = 0;
  size_t journals_replayed = 0;     // journal files executed (even if empty)
  size_t statements_applied = 0;
  uint64_t salvaged_bytes = 0;      // corrupt tail bytes quarantined
  size_t stale_files_removed = 0;   // snapshot tmp + pre-snapshot journals
  size_t quarantined_objects = 0;   // kQuarantine only
  // Epoch to open the live journal with after recovery (JournalOptions::
  // epoch); matters only when the live journal file is missing.
  uint64_t next_epoch = 0;
  std::vector<std::string> notes;   // human-readable recovery log
};

class RecoveryManager {
 public:
  RecoveryManager(std::string snapshot_path, std::string journal_path,
                  RecoveryOptions options = {});

  // Full recovery: snapshot, journal replay through a private
  // interpreter, audit. On failure the disk may already be partially
  // repaired (salvaged tails, deleted stale files) — both are
  // information-preserving — but no half-recovered database escapes.
  Result<std::unique_ptr<Database>> Recover(RecoveryStats* stats = nullptr);

  // Phase API for embedders that replay through their own facade (the
  // REPL uses ActiveDatabase so journaled trigger/constraint definitions
  // are restored too). Call in order: LoadSnapshot, replay
  // snapshot_definitions() through the facade, ReplayJournals with an
  // executor bound to the returned database, then Audit.
  Result<std::unique_ptr<Database>> LoadSnapshot(RecoveryStats* stats);
  // Any statement `exec` rejects aborts recovery with Corruption.
  Status ReplayJournals(const StatementExecutor& exec, RecoveryStats* stats);
  static Status Audit(Database* db, AuditMode mode, RecoveryStats* stats);

  // The v3 snapshot's DEFINE statements (trigger / constraint
  // declarations), in snapshot order; filled by LoadSnapshot, empty for
  // v1/v2 snapshots. They address the execution facade, so LoadSnapshot
  // cannot apply them itself — phase-API callers replay them through
  // their ActiveDatabase before ReplayJournals; Recover() (which has no
  // facade) notes and skips them.
  const std::vector<std::string>& snapshot_definitions() const {
    return snapshot_definitions_;
  }

  // The checkpoint protocol above. `fs` must be the same filesystem the
  // journal writes through (nullptr = FileSystem::Default()). On failure
  // the disk remains recoverable: rotated journals are deleted only after
  // the new snapshot is durable. `definitions` (typically
  // ActiveDatabase::DefinitionStatements()) are persisted as the
  // snapshot's DEFINE records.
  static Status Checkpoint(const Database& db, Journal* journal,
                           const std::string& snapshot_path,
                           FileSystem* fs = nullptr,
                           const std::vector<std::string>& definitions = {});

 private:
  FileSystem* fs() const;

  std::string snapshot_path_;
  std::string journal_path_;
  RecoveryOptions options_;
  uint64_t snapshot_epoch_ = 0;  // set by LoadSnapshot
  std::vector<std::string> snapshot_definitions_;  // set by LoadSnapshot
};

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_RECOVERY_H_
