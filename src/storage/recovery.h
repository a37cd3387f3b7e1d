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
// Recovery inverts the protocol, and RecoveryManager is the only code
// that knows its sequence:
//
//   1. Load the snapshot (epoch S). A v2+ snapshot is checksum-verified
//      before any state is built; corruption fails recovery (the snapshot
//      write is atomic, so a bad snapshot is bit rot, not a crash
//      artifact). A leftover `<snapshot>.tmp` is deleted.
//   2. Run the snapshot's DEFINE statements (v3: trigger / constraint
//      declarations), then every journal statement, through one
//      ActiveDatabase — triggers fire and definitions come back exactly
//      as they were first executed. Rotated journals with epoch < S are
//      deleted (covered by the snapshot); the rest replay in epoch order
//      followed by the live journal (iff its epoch >= S). Torn v2 tails
//      are salvaged (quarantined to `<file>.corrupt`), and replay applies
//      the longest valid prefix. Missing epochs in [S, live) fail with
//      Corruption — that is lost data, not a crash artifact.
//   3. Audit the recovered database against the paper's consistency
//      notions (Definitions 5.3-5.6, Invariants 5.1/5.2/6.1/6.2) per
//      AuditMode.
#ifndef TCHIMERA_STORAGE_RECOVERY_H_
#define TCHIMERA_STORAGE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/result.h"
#include "core/db/database.h"
#include "query/session.h"
#include "storage/deserializer.h"
#include "storage/journal.h"

namespace tchimera {

// The files of a database directory: the snapshot and the live journal
// (rotated journals sit beside it, Journal::RotatedPath). The REPL, the
// server, the recovery tool and replicas all lay a directory out so.
inline constexpr char kSnapshotFileName[] = "snapshot.tchdb";
inline constexpr char kJournalFileName[] = "journal.tql";

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

  // Full recovery into a bare database, replayed through a private
  // ActiveDatabase. On failure the disk may already be partially
  // repaired (salvaged tails, deleted stale files) — both are
  // information-preserving — but no half-recovered database escapes.
  Result<std::unique_ptr<Database>> Recover(RecoveryStats* stats = nullptr);

  // Full recovery into a ready engine: the replay runs inside one
  // Engine::WithExclusive, so the recovered state (definitions included)
  // is published once, and not at all if the replay fails. Install the commit sink
  // afterwards — the replay itself must not be re-journaled.
  Result<std::unique_ptr<Engine>> RecoverEngine(
      RecoveryStats* stats = nullptr);

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
  // Steps 2 and 3 of the sequence, on a database and the facade over it
  // (Engine::WithExclusive's signature).
  using Replay = std::function<Status(Database&, ActiveDatabase&)>;
  // Takes ownership of the loaded snapshot database and runs the replay
  // on it; the two public entry points differ only here.
  using Host = std::function<Status(std::unique_ptr<Database>, const Replay&)>;

  // The restart sequence: step 1, then `host` runs steps 2 and 3.
  Status Restore(const Host& host, RecoveryStats* stats);
  // The private phases all take a non-null `stats`.
  Result<LoadedSnapshot> LoadSnapshot(RecoveryStats* stats);
  // Any statement `active` rejects aborts recovery with Corruption.
  Status ReplayJournals(uint64_t snapshot_epoch, ActiveDatabase& active,
                        RecoveryStats* stats);
  Status Audit(Database* db, RecoveryStats* stats) const;
  FileSystem* fs() const;

  std::string snapshot_path_;
  std::string journal_path_;
  RecoveryOptions options_;
};

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_RECOVERY_H_
