// Journal-shipping replication: read replicas fed from the v2 journal.
//
// The v2 journal (per-record seq+len+CRC32 framing, per-file epoch
// headers — storage/journal.h) already totally orders every committed
// statement, so it doubles as a physical replication log. This module
// ships it:
//
//   ReplicationSource — the primary side. Tail-follows the journal
//       directory (live file + rotated epochs) and serves framed records
//       from a follower-supplied cursor, capped at the durable horizon
//       (HorizonProvider, implemented by GroupCommitJournal): records
//       that are appended but not yet fdatasync'd are never shipped,
//       because a crash could drop them and leave a follower ahead of
//       the recovered primary. A partially-written record at the live
//       tail is an append in flight — the source waits (ScanJournalTail),
//       it never salvages; quarantining bytes is recovery's decision.
//
//   Replica — a follower. Persists every received record into its own
//       local journal (same format, same epochs — the shipped copy IS a
//       recoverable database directory), re-verifies seq/epoch/CRC
//       continuity on its side, replays the statement through a private
//       Engine (triggers and constraints fire deterministically, exactly
//       as recovery replays), and publishes MVCC versions that
//       OpenSnapshot() serves lock-free. Epoch rollovers checkpoint the
//       replica locally, mirroring the primary's protocol, so replica
//       recovery after a crash — and a checkpoint resync — is ordinary
//       RecoveryManager::RecoverEngine.
//
//   ReplicationShipper — the pump. Drives one source into N replicas
//       and translates failures into bounded-exponential-backoff
//       retries and checkpoint resyncs.
//
// Failure handling is the point:
//
//   - a stream gap, epoch-header mismatch, or CRC mismatch surfaces as a
//     retryable Status (kUnavailable) — never a crash, never a silent
//     skip — and triggers resync-from-checkpoint after backoff;
//   - a follower whose epoch was checkpointed away on the primary
//     resyncs from the primary's snapshot (FetchCheckpoint), which by
//     the checkpoint protocol covers every deleted epoch;
//   - promotion fences the old primary: EpochFence hands out authority
//     by token, Replica::Promote raises the barrier above every token
//     the old primary can hold, and a fenced GroupCommitJournal rejects
//     every Enqueue and checkpoint (storage/group_commit.h) — a
//     recovered ex-primary cannot double-serve.
//
// See docs/REPLICATION.md for topology and the promotion protocol.
#ifndef TCHIMERA_STORAGE_REPLICATION_H_
#define TCHIMERA_STORAGE_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_fs.h"
#include "common/result.h"
#include "query/session.h"
#include "storage/journal.h"
#include "storage/recovery.h"

namespace tchimera {

// ---------------------------------------------------------------------------
// Fencing

// A monotone authority barrier shared by the nodes of one replication
// group (in-process here; a lease service in a distributed deployment).
// Writers hold a fixed authority token — the journal epoch at the moment
// they attached (GroupCommitJournal::AttachFence); the token does NOT
// advance with checkpoint rotations, so an ex-primary cannot outrun the
// barrier by checkpointing. Promotion raises the barrier to the new
// primary's token; Authorize then rejects every older token.
class EpochFence {
 public:
  // Raises the barrier to at least `token` (monotone; never lowers).
  void Fence(uint64_t token) {
    uint64_t cur = barrier_.load(std::memory_order_relaxed);
    while (cur < token &&
           !barrier_.compare_exchange_weak(cur, token,
                                           std::memory_order_acq_rel)) {
    }
  }

  // OK iff `token` is at or above the barrier (the current authority).
  Status Authorize(uint64_t token) const {
    uint64_t barrier = barrier_.load(std::memory_order_acquire);
    if (token >= barrier) return Status::OK();
    return Status::FailedPrecondition(
        "authority token " + std::to_string(token) +
        " is fenced (barrier " + std::to_string(barrier) +
        "): a replica was promoted; this node is no longer the primary");
  }

  uint64_t barrier() const {
    return barrier_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<uint64_t> barrier_{0};
};

// ---------------------------------------------------------------------------
// Backoff

// Bounded exponential backoff with deterministic jitter. Deterministic
// (seeded LCG) so failure-path tests reproduce; jitter de-synchronizes
// a fleet of followers hammering a recovering primary.
class ExponentialBackoff {
 public:
  struct Options {
    std::chrono::microseconds initial{1000};
    std::chrono::microseconds max{1'000'000};
    double multiplier = 2.0;
    double jitter = 0.2;  // +/- fraction of the nominal delay
    uint64_t seed = 0x7ee1;
  };

  ExponentialBackoff() : ExponentialBackoff(Options()) {}
  explicit ExponentialBackoff(const Options& options);

  // `options` with its seed folded together with `name` (FNV-1a), so a
  // fleet of followers configured identically still jitters apart.
  // Feeding every replica the same Options::seed verbatim puts their LCG
  // streams in lockstep: after a primary restart all lagging followers
  // would sleep the same jittered delays and retry at the same instants —
  // a thundering herd the jitter exists to prevent.
  static Options SeededFor(const Options& options, std::string_view name);

  // The next delay: min(initial * multiplier^attempts, max), jittered.
  // Always within [0, max].
  std::chrono::microseconds NextDelay();
  void Reset();
  uint64_t attempts() const { return attempts_; }

 private:
  Options options_;
  uint64_t attempts_ = 0;
  uint64_t rng_state_;
};

// ---------------------------------------------------------------------------
// Wire types

// A follower's position in the stream: the next record it needs.
struct ReplicationCursor {
  uint64_t epoch = 0;
  uint64_t next_seq = 1;
  // Byte offset in the epoch's file where next_seq is expected to start;
  // 0 = unknown (the source rescans from the file head). Purely an
  // optimization: a stale hint falls back to a full scan, never an error.
  uint64_t offset_hint = 0;
};

// One shipped record. The framing fields ride along so the follower can
// re-verify integrity end to end (disk -> source -> follower).
struct ReplicationRecord {
  uint64_t epoch = 0;
  uint64_t seq = 0;
  uint32_t crc = 0;  // CRC32 over "<seq> <statement>", as framed
  std::string statement;
};

struct ReplicationBatch {
  std::vector<ReplicationRecord> records;
  // True when the records (plus everything before the cursor) exhaust
  // the cursor's epoch: the epoch's file is rotated and fully consumed,
  // and the follower should roll to epoch+1.
  bool epoch_complete = false;
  // True when this fetch consumed everything the source may ship right
  // now (the durable horizon): an empty at_horizon batch means "caught
  // up, poll again later".
  bool at_horizon = false;
  // The horizon sampled for this fetch (drained flag included) — the
  // shipper's caught-up test needs it.
  JournalHorizon horizon;
  // Cursor after consuming this batch.
  ReplicationCursor next;
};

// ---------------------------------------------------------------------------
// Source

class ReplicationSource {
 public:
  struct Options {
    FileSystem* fs = nullptr;  // nullptr = FileSystem::Default()
    // Durable-frontier oracle. Required when the journal is open for
    // writing (the live GroupCommitJournal); nullptr = offline mode,
    // where everything on disk is shipped (closed journals, copies).
    const HorizonProvider* horizon = nullptr;
    // The primary's snapshot, served to followers that must resync.
    std::string snapshot_path;
  };

  explicit ReplicationSource(std::string journal_path)
      : ReplicationSource(std::move(journal_path), Options()) {}
  ReplicationSource(std::string journal_path, Options options);

  // Serves the next records after `cursor`, capped at `max_records` and
  // at the durable horizon. Statuses a follower must handle:
  //   kUnavailable — the cursor's epoch was checkpointed away, the
  //       stream has a gap, or the epoch header mismatches: back off and
  //       resync from checkpoint (retryable; nothing is wrong with the
  //       primary);
  //   kFailedPrecondition — the follower claims a position ahead of the
  //       primary's durable horizon: divergence (an un-fenced failover
  //       artifact), not retryable.
  // A partially-written live tail is NOT an error: the batch simply ends
  // before it (at_horizon when nothing else is pending).
  Result<ReplicationBatch> Fetch(const ReplicationCursor& cursor,
                                 size_t max_records = 256);

  // The primary's checkpoint image for follower resync. Integrity is
  // verified before shipping (a corrupt snapshot is refused with
  // kUnavailable — the next checkpoint will replace it).
  struct CheckpointImage {
    std::string bytes;
    uint64_t epoch = 0;
  };
  Result<CheckpointImage> FetchCheckpoint() const;

  const std::string& journal_path() const { return journal_path_; }

 private:
  FileSystem* fs() const;
  // The epoch of the live journal right now (from the horizon provider,
  // or the file header in offline mode).
  Result<JournalHorizon> SampleHorizon() const;

  std::string journal_path_;
  Options options_;
};

// ---------------------------------------------------------------------------
// Replica

struct ReplicaOptions {
  FileSystem* fs = nullptr;  // nullptr = FileSystem::Default()
  // Post-recovery/resync audit mode for the replica's own state.
  AuditMode audit = AuditMode::kOff;
};

// A follower: a locally-durable shipped journal copy plus a replaying
// Engine serving snapshot-isolated reads. Apply() is single-threaded
// (one shipping pump); reads (OpenSnapshot / read-only Sessions) are
// safe from any thread concurrently with Apply, courtesy of MVCC.
class Replica {
 public:
  // Opens (or re-opens after a crash) the replica at `dir`, recovering
  // whatever the local snapshot + journals hold — ordinary
  // RecoveryManager::RecoverEngine, torn tails salvaged, definitions
  // restored.
  // The resulting cursor resumes the stream exactly where the local
  // durable copy ends.
  static Result<std::unique_ptr<Replica>> Open(std::string dir,
                                               ReplicaOptions options = {});

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Validates and applies one shipped batch: epoch must match the
  // cursor, sequences must be contiguous, CRCs must verify — any
  // violation returns kUnavailable (retryable; the shipper resyncs) and
  // applies nothing further. Each record is journaled locally first,
  // then replayed; the batch is fdatasync'd once at the end, so a crash
  // loses at most the (unacknowledged) tail of this batch. An
  // epoch_complete batch rolls the local journal to the next epoch via a
  // local checkpoint (rotate + snapshot + prune), mirroring the primary.
  Status Apply(const ReplicationBatch& batch);

  // Discards local state and reseeds from a primary checkpoint image:
  // the snapshot is written atomically, local journals are removed, and
  // the directory — now exactly the image — is recovered like at Open:
  // the engine is rebuilt (definitions included) and the cursor
  // restarts at (image.epoch, 1).
  Status InstallCheckpoint(const ReplicationSource::CheckpointImage& image);

  // The stream position the replica needs next.
  const ReplicationCursor& cursor() const { return cursor_; }

  // Snapshot-isolated reads of what the replica has applied. Lock-free.
  ReadSnapshot OpenSnapshot() const { return engine_->OpenSnapshot(); }
  // Read-only sessions over the replica's engine (the replica accepts no
  // writes until promoted; executing writes through this engine is the
  // caller's responsibility to avoid).
  Engine& engine() { return *engine_; }
  const Engine& engine() const { return *engine_; }

  uint64_t statements_applied() const { return statements_applied_; }
  uint64_t checkpoints_installed() const { return checkpoints_installed_; }
  const std::string& dir() const { return dir_; }

  // Promotes this replica: raises `fence` above every authority token
  // the old primary can hold (its tokens never exceed the epochs it
  // shipped, all <= cursor().epoch) and returns the epoch + token the
  // new primary must adopt (open its GroupCommitJournal at
  // `epoch`, AttachFence with `token`). After promotion this Replica
  // object must no longer Apply() — it is the primary now; keep using
  // engine() and the local journal directory.
  struct Promotion {
    uint64_t epoch = 0;  // epoch for the new primary's live journal
    uint64_t token = 0;  // authority token for AttachFence
  };
  Result<Promotion> Promote(EpochFence* fence);

 private:
  Replica(std::string dir, ReplicaOptions options);

  FileSystem* fs() const;
  Status RecoverLocal();
  std::string snapshot_path() const { return dir_ + "/" + kSnapshotFileName; }
  std::string journal_path() const { return dir_ + "/" + kJournalFileName; }
  // Removes local journal files (live + rotated); used by resync.
  Status RemoveLocalJournals();

  std::string dir_;
  ReplicaOptions options_;
  std::unique_ptr<Engine> engine_;
  Journal journal_;  // the local shipped copy (the replica's WAL)
  ReplicationCursor cursor_;
  uint64_t statements_applied_ = 0;
  uint64_t checkpoints_installed_ = 0;
  bool promoted_ = false;
};

// ---------------------------------------------------------------------------
// Shipper

// Drives one source into N replicas: fetch, apply, translate failures
// into backoff + resync. Single-threaded per shipper (run it on its own
// thread to pump continuously); multiple shippers may share a source.
class ReplicationShipper {
 public:
  struct Options {
    size_t max_records_per_fetch = 256;
    ExponentialBackoff::Options backoff;
    // Injected sleeper for the backoff delays (tests pass a recorder;
    // the default really sleeps).
    std::function<void(std::chrono::microseconds)> sleeper;
  };

  explicit ReplicationShipper(ReplicationSource* source)
      : ReplicationShipper(source, Options()) {}
  ReplicationShipper(ReplicationSource* source, Options options);

  // Registers a follower. `name` seeds its backoff jitter (see
  // ExponentialBackoff::SeededFor).
  void AddReplica(Replica* replica, const std::string& name);

  // One fetch+apply round per replica. Returns the first hard
  // (non-retryable) failure; retryable conditions are handled internally
  // (backoff, resync) and reported via counters.
  Status PumpOnce();

  // Pumps until every replica sits at a drained horizon (fully caught
  // up) or a hard failure occurs. `max_rounds` bounds runaway loops.
  Status DrainAll(size_t max_rounds = 100000);

  uint64_t resyncs() const { return resyncs_; }
  uint64_t retries() const { return retries_; }

 private:
  struct Follower {
    Replica* replica = nullptr;
    ExponentialBackoff backoff;
    bool caught_up = false;  // last pump ended at a drained horizon
  };

  // Handles a retryable failure on `f`: backoff sleep, then resync from
  // checkpoint. Returns a hard error only when resync itself fails
  // non-retryably.
  Status HandleRetryable(Follower* f, const Status& cause);

  ReplicationSource* source_;
  Options options_;
  std::vector<Follower> followers_;
  uint64_t resyncs_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_STORAGE_REPLICATION_H_
