#include "storage/replication.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "storage/deserializer.h"
#include "storage/serializer.h"

namespace tchimera {

// ---------------------------------------------------------------------------
// ExponentialBackoff

ExponentialBackoff::ExponentialBackoff(const Options& options)
    : options_(options), rng_state_(options.seed ? options.seed : 1) {}

std::chrono::microseconds ExponentialBackoff::NextDelay() {
  // Nominal delay: initial * multiplier^attempts, saturating at max.
  double nominal = static_cast<double>(options_.initial.count());
  const double max = static_cast<double>(options_.max.count());
  for (uint64_t i = 0; i < attempts_ && nominal < max; ++i) {
    nominal *= options_.multiplier;
  }
  nominal = std::min(nominal, max);
  // Deterministic jitter in [1 - j, 1 + j] from a 64-bit LCG
  // (Knuth MMIX constants); the top bits make a uniform in [0, 1).
  rng_state_ = rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  double uniform =
      static_cast<double>(rng_state_ >> 11) / 9007199254740992.0;
  double jittered =
      nominal * (1.0 + options_.jitter * (2.0 * uniform - 1.0));
  jittered = std::min(std::max(jittered, 0.0), max);
  ++attempts_;
  return std::chrono::microseconds(static_cast<int64_t>(jittered));
}

void ExponentialBackoff::Reset() { attempts_ = 0; }

ExponentialBackoff::Options ExponentialBackoff::SeededFor(
    const Options& options, std::string_view name) {
  // FNV-1a over the replica name, folded into the configured seed. The
  // result stays deterministic per (seed, name) — failure-path tests
  // still reproduce — while distinct replicas get distinct LCG streams.
  uint64_t h = 14695981039346656037ULL;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  Options seeded = options;
  seeded.seed = (options.seed ? options.seed : 1) ^ h;
  if (seeded.seed == 0) seeded.seed = 1;  // the LCG treats 0 as "unseeded"
  return seeded;
}

// ---------------------------------------------------------------------------
// ReplicationSource

ReplicationSource::ReplicationSource(std::string journal_path,
                                     Options options)
    : journal_path_(std::move(journal_path)), options_(std::move(options)) {}

FileSystem* ReplicationSource::fs() const {
  return options_.fs != nullptr ? options_.fs : FileSystem::Default();
}

Result<JournalHorizon> ReplicationSource::SampleHorizon() const {
  if (options_.horizon != nullptr) {
    return options_.horizon->ReplicationHorizon();
  }
  // Offline mode: no writer holds the journal, so everything on disk is
  // durable by assumption. Read the live header for the epoch; the seq
  // cap is infinite (ship to EOF).
  TCH_ASSIGN_OR_RETURN(
      TailScan scan,
      ScanJournalTail(journal_path_, /*offset=*/0, /*expected_seq=*/0,
                      /*max_records=*/0, fs()));
  if (scan.format != 2) {
    return Status::Unavailable("journal " + journal_path_ +
                               " has no durable v2 header yet");
  }
  JournalHorizon horizon;
  horizon.epoch = scan.epoch;
  horizon.seq = UINT64_MAX;
  horizon.drained = true;
  return horizon;
}

Result<ReplicationBatch> ReplicationSource::Fetch(
    const ReplicationCursor& cursor, size_t max_records) {
  if (max_records == 0) max_records = 1;
  TCH_ASSIGN_OR_RETURN(JournalHorizon horizon, SampleHorizon());
  if (cursor.epoch > horizon.epoch) {
    return Status::FailedPrecondition(
        "follower cursor is at epoch " + std::to_string(cursor.epoch) +
        " but the primary's durable horizon is epoch " +
        std::to_string(horizon.epoch) +
        ": the follower holds state this primary never shipped "
        "(divergence — was a promotion not fenced?)");
  }
  const bool live = cursor.epoch == horizon.epoch;
  const uint64_t cap = live ? horizon.seq : UINT64_MAX;
  // next_seq - 1 (not cap + 1): cap is UINT64_MAX for an offline source.
  if (live && cursor.next_seq - 1 > cap) {
    return Status::FailedPrecondition(
        "follower cursor expects seq " + std::to_string(cursor.next_seq) +
        " of epoch " + std::to_string(cursor.epoch) +
        " but the primary's durable horizon is seq " + std::to_string(cap) +
        " (divergence — the follower is ahead of the primary)");
  }

  ReplicationBatch batch;
  batch.horizon = horizon;
  batch.next = cursor;
  batch.next.offset_hint = 0;

  const std::string file =
      live ? journal_path_ : Journal::RotatedPath(journal_path_, cursor.epoch);
  if (!fs()->FileExists(file)) {
    if (live) {
      // The live journal vanished mid-sample (a rotation race): the next
      // fetch re-resolves against the new horizon.
      return Status::Unavailable("live journal " + file +
                                 " disappeared (rotation in progress)");
    }
    // A checkpoint deleted this rotated epoch. If the horizon attests the
    // epoch's final seq and the cursor sits exactly past it, the follower
    // missed nothing: hand it the epoch boundary instead of forcing a
    // snapshot resync.
    if (cursor.epoch + 1 == horizon.epoch &&
        horizon.handoff_seq != JournalHorizon::kNoHandoff &&
        cursor.next_seq == horizon.handoff_seq + 1) {
      batch.epoch_complete = true;
      batch.next.epoch = cursor.epoch + 1;
      batch.next.next_seq = 1;
      batch.next.offset_hint = 0;
      return batch;
    }
    return Status::Unavailable(
        "journal epoch " + std::to_string(cursor.epoch) +
        " was checkpointed away on the primary; resync from the "
        "checkpoint snapshot");
  }

  // Scan loop. `offset`/`expect` track a position in the file; a stale
  // or damaged hinted position falls back to one full rescan from the
  // head (seqs in an epoch file start at 1, so records below
  // cursor.next_seq are skipped). The loop makes progress every
  // iteration (offset strictly advances) and stops at the horizon cap,
  // EOF, a partial tail, damage, or a full batch.
  uint64_t offset = cursor.offset_hint;
  bool hinted = offset != 0;
  uint64_t expect = hinted ? cursor.next_seq : 1;
  bool epoch_checked = false;
  bool capped = false;       // stopped at the durable horizon
  bool reached_eof = false;  // consumed every complete record in the file
  bool partial = false;      // stopped at an append in flight (live only)
  Status defect;  // damage at the stop point (complete-line corruption)

  while (batch.records.size() < max_records) {
    // Ask for exactly what this iteration can use: the records still to
    // be skipped plus the room left in the batch — so end_offset always
    // lands on the boundary of the last record we consumed.
    const uint64_t skip =
        cursor.next_seq > expect ? cursor.next_seq - expect : 0;
    const size_t want =
        static_cast<size_t>(skip) + (max_records - batch.records.size());
    Result<TailScan> scanned =
        ScanJournalTail(file, offset, offset == 0 ? 1 : expect, want, fs());
    Status failure =
        scanned.ok() ? scanned.value().error : scanned.status();
    if (failure.ok() && scanned.value().format == 2 && offset == 0 &&
        !epoch_checked) {
      epoch_checked = true;
      if (scanned.value().epoch != cursor.epoch) {
        failure = Status::Unavailable(
            "journal " + file + " carries epoch " +
            std::to_string(scanned.value().epoch) + ", cursor expects " +
            std::to_string(cursor.epoch) +
            " (the file was rotated underneath the stream)");
      }
    }
    if (!failure.ok()) {
      if (hinted) {
        // The hint may be stale (rotation swapped the file under it):
        // one authoritative rescan from the head before reporting.
        hinted = false;
        offset = 0;
        expect = 1;
        epoch_checked = false;
        batch.records.clear();
        continue;
      }
      if (failure.code() == StatusCode::kFailedPrecondition) {
        return failure;  // v1 journal: never tail-followable
      }
      defect = failure;
      break;
    }
    TailScan& scan = scanned.value();
    if (scan.format == 0) {
      partial = true;  // header not durable yet: nothing to ship, retry
      break;
    }
    for (TailRecord& rec : scan.records) {
      if (rec.seq < cursor.next_seq) continue;  // already applied
      if (rec.seq > cap) {
        // On disk beyond the durable horizon: unsynced bytes a crash
        // could still drop. Never shipped; revisit after the next sync.
        capped = true;
        break;
      }
      ReplicationRecord out;
      out.epoch = cursor.epoch;
      out.seq = rec.seq;
      out.crc = rec.crc;
      out.statement = std::move(rec.statement);
      batch.records.push_back(std::move(out));
    }
    if (capped) break;
    if (scan.partial_tail) {
      if (live) {
        partial = true;  // append in flight: retry later, NEVER salvage
      } else {
        // A rotated file never grows again, so its torn tail is damage
        // recovery has not adjudicated yet — retryable for us.
        defect = Status::Unavailable("rotated journal " + file +
                                     " has a torn tail; resync from the "
                                     "checkpoint snapshot");
      }
      break;
    }
    // The scan stopped short of `want` only at EOF (errors and partial
    // tails were handled above).
    if (scan.records.size() < want) {
      reached_eof = true;
      break;
    }
    expect = scan.records.back().seq + 1;
    offset = scan.end_offset;
  }

  if (!defect.ok() && batch.records.empty()) {
    // Damage (or a shrunk file) right at the cursor with nothing
    // shippable before it: retryable — the primary's own recovery (or
    // the next rotation) adjudicates the bytes; the follower backs off
    // and resyncs.
    if (defect.code() == StatusCode::kUnavailable) return defect;
    return Status::Unavailable(defect.message());
  }

  // Advance the cursor past what we shipped.
  if (!batch.records.empty()) {
    batch.next.next_seq = batch.records.back().seq + 1;
    // end_offset is a valid hint only when the scan consumed exactly the
    // shipped records (not when capped — the capped record was scanned
    // past it).
    if (!capped && defect.ok()) batch.next.offset_hint = offset;
  }

  if (live) {
    // Caught up = everything durable has been shipped: past the horizon
    // seq (capped counts — records beyond it are unsynced bytes), or, in
    // offline mode (no seq bound), at the end of what is on disk.
    batch.at_horizon =
        defect.ok() && (cap == UINT64_MAX ? (reached_eof || partial)
                                          : batch.next.next_seq > cap);
  } else if (reached_eof && defect.ok()) {
    // A rotated epoch consumed to EOF is complete: the primary rotated
    // it at exactly this record boundary, so the follower rolls too. (An
    // empty epoch_complete batch happens when a restarted follower had
    // already consumed the whole file, or the epoch rotated empty.)
    batch.epoch_complete = true;
    batch.next.epoch = cursor.epoch + 1;
    batch.next.next_seq = 1;
    batch.next.offset_hint = 0;
  }
  return batch;
}

Result<ReplicationSource::CheckpointImage>
ReplicationSource::FetchCheckpoint() const {
  if (options_.snapshot_path.empty()) {
    return Status::FailedPrecondition(
        "replication source has no snapshot path configured; followers "
        "cannot resync");
  }
  if (!fs()->FileExists(options_.snapshot_path)) {
    return Status::Unavailable("primary has no checkpoint snapshot yet at " +
                               options_.snapshot_path);
  }
  TCH_ASSIGN_OR_RETURN(std::string bytes,
                       fs()->ReadFileToString(options_.snapshot_path));
  TCH_ASSIGN_OR_RETURN(SnapshotInfo info, ProbeSnapshot(bytes));
  if (!info.integrity.ok()) {
    // Refuse to propagate damage; the primary's next checkpoint rewrites
    // the file atomically, so this heals on its own.
    return Status::Unavailable("primary checkpoint failed integrity: " +
                               info.integrity.message());
  }
  CheckpointImage image;
  image.bytes = std::move(bytes);
  image.epoch = info.epoch;
  return image;
}

// ---------------------------------------------------------------------------
// Replica

Replica::Replica(std::string dir, ReplicaOptions options)
    : dir_(std::move(dir)), options_(options) {}

FileSystem* Replica::fs() const {
  return options_.fs != nullptr ? options_.fs : FileSystem::Default();
}

Result<std::unique_ptr<Replica>> Replica::Open(std::string dir,
                                               ReplicaOptions options) {
  std::unique_ptr<Replica> replica(new Replica(std::move(dir), options));
  TCH_RETURN_IF_ERROR(replica->RecoverLocal());
  return replica;
}

Status Replica::RecoverLocal() {
  // Ordinary local recovery over the shipped copy: the replica's
  // directory is a normal snapshot+journal pair, so the crash story is
  // the primary's crash story.
  RecoveryOptions ropts;
  ropts.audit = options_.audit;
  ropts.fs = options_.fs;
  RecoveryManager manager(snapshot_path(), journal_path(), ropts);
  RecoveryStats stats;
  TCH_ASSIGN_OR_RETURN(engine_, manager.RecoverEngine(&stats));

  JournalOptions jopts;
  jopts.epoch = stats.next_epoch;
  jopts.fs = options_.fs;
  TCH_RETURN_IF_ERROR(journal_.Open(journal_path(), jopts));
  cursor_.epoch = journal_.epoch();
  cursor_.next_seq = journal_.last_seq() + 1;
  cursor_.offset_hint = 0;
  return Status::OK();
}

Status Replica::Apply(const ReplicationBatch& batch) {
  if (promoted_) {
    return Status::FailedPrecondition(
        "replica was promoted to primary; it no longer applies the "
        "stream");
  }
  for (const ReplicationRecord& record : batch.records) {
    // Follower-side validation: the source (or the pipe) may hand us
    // anything; every violation is a retryable stream fault, never a
    // crash and never a silent skip.
    if (record.epoch != cursor_.epoch) {
      return Status::Unavailable(
          "shipped record carries epoch " + std::to_string(record.epoch) +
          ", replica expects epoch " + std::to_string(cursor_.epoch) +
          " (epoch mismatch in the shipping stream)");
    }
    if (record.seq != cursor_.next_seq) {
      return Status::Unavailable(
          "shipped record carries seq " + std::to_string(record.seq) +
          ", replica expects seq " + std::to_string(cursor_.next_seq) +
          " (sequence gap in the shipping stream)");
    }
    if (JournalRecordCrc(record.seq, record.statement) != record.crc) {
      return Status::Unavailable(
          "shipped record " + std::to_string(record.seq) + " of epoch " +
          std::to_string(record.epoch) +
          " fails its checksum (corruption in the shipping stream)");
    }
    // Journal first (the local copy is the replica's WAL), then apply.
    // The local journal assigns exactly record.seq: cursor_.next_seq ==
    // journal_.last_seq() + 1 is a class invariant.
    TCH_RETURN_IF_ERROR(journal_.Append(record.statement));
    Status applied = engine_->WithExclusive(
        [&record](Database&, ActiveDatabase& active) {
          return active.Execute(record.statement).status();
        });
    if (!applied.ok()) {
      // The primary executed this statement successfully, so a replay
      // failure means the replica's state diverged. Not retryable as-is;
      // the shipper escalates to a checkpoint resync.
      return Status::Unavailable(
          "replica failed to replay shipped statement (seq " +
          std::to_string(record.seq) + "): " + applied.message() +
          " — state diverged; resync required");
    }
    ++cursor_.next_seq;
    ++statements_applied_;
  }
  // One sync per batch: a crash loses at most this batch's tail, which
  // was never acknowledged to the source (the cursor re-requests it).
  TCH_RETURN_IF_ERROR(journal_.Sync());

  if (batch.epoch_complete) {
    // Mirror the primary's rotation with a local checkpoint: rotate the
    // local journal to the incoming epoch, persist a snapshot covering
    // everything applied, prune covered epochs. Keeps the replica
    // directory bounded and its recovery cheap.
    TCH_RETURN_IF_ERROR(engine_->WithExclusive(
        [this](Database& live, ActiveDatabase& active) {
          return RecoveryManager::Checkpoint(live, &journal_,
                                             snapshot_path(), fs(),
                                             active.DefinitionStatements());
        }));
    cursor_.epoch += 1;
    cursor_.next_seq = 1;
    cursor_.offset_hint = 0;
    return Status::OK();
  }
  // Adopt the source's offset hint only when it describes exactly our
  // new position (it always does when this batch came from our cursor).
  if (batch.next.epoch == cursor_.epoch &&
      batch.next.next_seq == cursor_.next_seq) {
    cursor_.offset_hint = batch.next.offset_hint;
  } else {
    cursor_.offset_hint = 0;
  }
  return Status::OK();
}

Status Replica::RemoveLocalJournals() {
  TCH_ASSIGN_OR_RETURN(std::vector<std::string> names,
                       fs()->ListDirectory(dir_));
  const std::string live = journal_path();
  for (const std::string& name : names) {
    // The live journal, rotated epochs, and any salvage quarantine — all
    // superseded by the incoming checkpoint image.
    const std::string path = dir_ + "/" + name;
    if (path.starts_with(live)) TCH_RETURN_IF_ERROR(fs()->RemoveFile(path));
  }
  return Status::OK();
}

Status Replica::InstallCheckpoint(
    const ReplicationSource::CheckpointImage& image) {
  if (promoted_) {
    return Status::FailedPrecondition(
        "replica was promoted to primary; it no longer resyncs");
  }
  // Parse before destroying anything: a bad image must leave the replica
  // untouched.
  TCH_RETURN_IF_ERROR(LoadSnapshotFromString(image.bytes).status());
  journal_.Close();
  TCH_RETURN_IF_ERROR(RemoveLocalJournals());
  // Persist the image atomically (tmp + sync + durable rename), exactly
  // like a local checkpoint, so a crash mid-resync recovers to either
  // the old state (journals already gone => empty) or the new image.
  const std::string tmp = snapshot_path() + ".tmp";
  {
    TCH_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> out,
                         fs()->OpenWritable(tmp, /*truncate=*/true));
    TCH_RETURN_IF_ERROR(out->Append(image.bytes));
    TCH_RETURN_IF_ERROR(out->Sync());
    TCH_RETURN_IF_ERROR(out->Close());
  }
  TCH_RETURN_IF_ERROR(fs()->RenameFile(tmp, snapshot_path()));
  // The directory now holds exactly the image: recovering it rebuilds
  // the engine (definitions included) and restarts the cursor at
  // (image.epoch, 1).
  TCH_RETURN_IF_ERROR(RecoverLocal());
  ++checkpoints_installed_;
  return Status::OK();
}

Result<Replica::Promotion> Replica::Promote(EpochFence* fence) {
  if (fence == nullptr) {
    return Status::InvalidArgument("promotion requires the group's fence");
  }
  if (promoted_) {
    return Status::FailedPrecondition("replica is already promoted");
  }
  // Roll the local journal to an epoch the old primary can never have
  // written: every authority token it holds is <= the epochs it shipped
  // us, all <= cursor_.epoch. The checkpoint also persists everything
  // applied, so the new primary starts from a clean, covered state.
  TCH_RETURN_IF_ERROR(engine_->WithExclusive(
      [this](Database& live, ActiveDatabase& active) {
        return RecoveryManager::Checkpoint(live, &journal_, snapshot_path(),
                                           fs(),
                                           active.DefinitionStatements());
      }));
  Promotion promotion;
  promotion.epoch = journal_.epoch();  // cursor_.epoch + 1 after the rotate
  promotion.token = promotion.epoch;
  // Raise the barrier FIRST: from this instant the old primary's
  // enqueues and checkpoints are rejected; only then does the new
  // primary start accepting writes under its own token.
  fence->Fence(promotion.token);
  cursor_.epoch = promotion.epoch;
  cursor_.next_seq = 1;
  cursor_.offset_hint = 0;
  promoted_ = true;
  // Hand the journal file over: the new primary re-opens it through its
  // own GroupCommitJournal (and attaches the fence with this token).
  journal_.Close();
  return promotion;
}

// ---------------------------------------------------------------------------
// ReplicationShipper

ReplicationShipper::ReplicationShipper(ReplicationSource* source,
                                       Options options)
    : source_(source), options_(std::move(options)) {
  if (!options_.sleeper) {
    options_.sleeper = [](std::chrono::microseconds delay) {
      std::this_thread::sleep_for(delay);
    };
  }
  if (options_.max_records_per_fetch == 0) options_.max_records_per_fetch = 1;
}

void ReplicationShipper::AddReplica(Replica* replica,
                                    const std::string& name) {
  Follower follower;
  follower.replica = replica;
  // Per-replica seed: identically configured followers must not share a
  // jitter stream (see SeededFor) — after a primary restart they would
  // all retry in lockstep.
  follower.backoff =
      ExponentialBackoff(ExponentialBackoff::SeededFor(options_.backoff, name));
  followers_.push_back(std::move(follower));
}

Status ReplicationShipper::PumpOnce() {
  for (Follower& follower : followers_) {
    Result<ReplicationBatch> fetched = source_->Fetch(
        follower.replica->cursor(), options_.max_records_per_fetch);
    Status failure;
    if (fetched.ok()) {
      failure = follower.replica->Apply(fetched.value());
    } else {
      failure = fetched.status();
    }
    if (failure.ok()) {
      follower.backoff.Reset();
      const ReplicationBatch& batch = fetched.value();
      follower.caught_up = batch.at_horizon && batch.horizon.drained;
      continue;
    }
    follower.caught_up = false;
    if (failure.code() != StatusCode::kUnavailable) {
      return failure;  // divergence, local I/O death: not retryable
    }
    TCH_RETURN_IF_ERROR(HandleRetryable(&follower, failure));
  }
  return Status::OK();
}

Status ReplicationShipper::HandleRetryable(Follower* follower,
                                           const Status& /*cause*/) {
  ++retries_;
  options_.sleeper(follower->backoff.NextDelay());
  Result<ReplicationSource::CheckpointImage> image =
      source_->FetchCheckpoint();
  if (!image.ok()) {
    if (image.status().code() == StatusCode::kUnavailable) {
      // No (valid) checkpoint to resync from yet; keep backing off.
      return Status::OK();
    }
    return image.status();
  }
  TCH_RETURN_IF_ERROR(follower->replica->InstallCheckpoint(image.value()));
  ++resyncs_;
  follower->backoff.Reset();
  return Status::OK();
}

Status ReplicationShipper::DrainAll(size_t max_rounds) {
  for (size_t round = 0; round < max_rounds; ++round) {
    TCH_RETURN_IF_ERROR(PumpOnce());
    bool all_caught_up = true;
    for (const Follower& follower : followers_) {
      all_caught_up = all_caught_up && follower.caught_up;
    }
    if (all_caught_up) return Status::OK();
  }
  return Status::Internal(
      "replication drain did not converge within " +
      std::to_string(max_rounds) +
      " rounds (a follower keeps failing or the primary keeps moving)");
}

}  // namespace tchimera
