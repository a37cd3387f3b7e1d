#include "storage/group_commit.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "storage/replication.h"

namespace tchimera {

Status GroupCommitJournal::Open(const std::string& path,
                                const JournalOptions& journal_options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (journal_.is_open()) {
    return Status::FailedPrecondition("group-commit journal is open");
  }
  TCH_RETURN_IF_ERROR(journal_.Open(path, journal_options));
  pending_.clear();
  enqueued_ = taken_ = durable_ = batches_ = 0;
  leader_active_ = false;
  sticky_ = Status::OK();
  // Records already in the file (a reopened journal) were synced by their
  // original writer or survived salvage: durable, shippable. Whatever
  // ended the previous epoch happened before this sink existed.
  horizon_epoch_ = journal_.epoch();
  horizon_seq_ = journal_.last_seq();
  horizon_handoff_seq_ = JournalHorizon::kNoHandoff;
  return Status::OK();
}

bool GroupCommitJournal::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_.is_open();
}

void GroupCommitJournal::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  // Best effort: drain what we can (Close is a shutdown path; errors are
  // already sticky for anyone still awaiting).
  while (sticky_.ok() && durable_ < enqueued_) {
    if (leader_active_) {
      cv_.wait(lock);
    } else {
      LeadBatch(lock);
    }
  }
  if (durable_ < enqueued_ && sticky_.ok()) {
    // Unreachable today (the drain only stops on poison or empty), but
    // cheap insurance: a ticket enqueued before Close whose batch never
    // got a leader must observe a sticky failure, never block forever.
    sticky_ = Status::FailedPrecondition(
        "group-commit journal closed with unflushed backlog");
  }
  journal_.Close();
  // Wake every parked waiter so it re-checks against the closed journal
  // (and the sticky status, if the drain poisoned). Without this, a
  // waiter that last observed an in-flight leader could sleep until the
  // next enqueue — which, after Close, never comes.
  cv_.notify_all();
}

CommitSink::Ticket GroupCommitJournal::Enqueue(std::string_view statement) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fence_ != nullptr) {
    Status authority = fence_->Authorize(authority_token_);
    if (!authority.ok()) {
      // Fenced by a replica promotion: this node is no longer the
      // primary. Reject outright — nothing may be journaled (and so
      // nothing committed) under a revoked authority.
      Ticket rejected;
      rejected.status = authority;
      return rejected;
    }
  }
  // Fail fast instead of handing out a ticket whose Await would drive
  // LeadBatch into appends on a closed journal (or pointlessly queue
  // behind a write that is already known lost).
  if (!journal_.is_open()) {
    Ticket rejected;
    rejected.status = Status::FailedPrecondition(
        "group-commit journal is closed; statement not enqueued");
    return rejected;
  }
  if (!sticky_.ok()) {
    Ticket rejected;
    rejected.status = sticky_;
    return rejected;
  }
  pending_.emplace_back(statement);
  ++enqueued_;
  return Ticket{enqueued_};
}

Status GroupCommitJournal::Await(Ticket ticket) {
  if (ticket.seq == 0) return ticket.status;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (durable_ >= ticket.seq) return Status::OK();
    if (!sticky_.ok()) return sticky_;
    if (!journal_.is_open()) {
      // Closed with our statement still pending (Close drains what it
      // can; a poison during the drain is reported above).
      return Status::FailedPrecondition(
          "group-commit journal closed before the statement became "
          "durable");
    }
    if (!leader_active_ && taken_ < enqueued_) {
      // Elect ourselves leader for the next batch (it necessarily covers
      // the oldest pending statement; ours is pending, so repeating this
      // loop eventually flushes it or poisons the sink).
      LeadBatch(lock);
      continue;
    }
    cv_.wait(lock);
  }
}

void GroupCommitJournal::LeadBatch(std::unique_lock<std::mutex>& lock) {
  leader_active_ = true;
  std::vector<std::string> batch;
  batch.reserve(std::min(pending_.size(), kMaxBatch));
  while (!pending_.empty() && batch.size() < kMaxBatch) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  const uint64_t batch_high = taken_ + batch.size();
  taken_ = batch_high;

  lock.unlock();
  // The expensive part, off the lock: concurrent sessions keep enqueueing
  // (they hold the writer lock, not ours) and will ride the next batch.
  Status result;
  for (const std::string& statement : batch) {
    result = journal_.Append(statement);
    if (!result.ok()) break;
  }
  if (result.ok()) result = journal_.Sync();
  lock.lock();

  if (result.ok()) {
    durable_ = batch_high;
    ++batches_;
    // No concurrent appends exist (appends happen only under
    // leader_active_, which is ours), so the journal counters are stable
    // here: everything appended is now synced.
    horizon_epoch_ = journal_.epoch();
    horizon_seq_ = journal_.last_seq();
  } else if (sticky_.ok()) {
    // Poison: some prefix of this batch may or may not be on disk; no
    // later append may be acknowledged over that uncertainty.
    sticky_ = result;
  }
  leader_active_ = false;
  cv_.notify_all();
}

Status GroupCommitJournal::WithQuiesced(
    const std::function<Status(Journal&)>& fn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!journal_.is_open()) {
    return Status::FailedPrecondition("group-commit journal is not open");
  }
  while (durable_ < enqueued_) {
    if (!sticky_.ok()) return sticky_;
    if (leader_active_) {
      cv_.wait(lock);
    } else {
      LeadBatch(lock);
    }
  }
  if (fence_ != nullptr) {
    Status authority = fence_->Authorize(authority_token_);
    if (!authority.ok()) return authority;  // fenced: no checkpoints either
  }
  // Everything enqueued is durable and we hold the mutex, so no leader
  // can be flushing: the journal is exclusively ours for `fn`.
  const uint64_t epoch_before = journal_.epoch();
  const uint64_t seq_before = journal_.last_seq();
  Status result = fn(journal_);
  // `fn` may have rotated the journal (the checkpoint path): re-sample
  // the frontier. Rotation syncs before renaming, so everything on disk
  // is durable. A single rotation hands the old epoch's extent to the
  // horizon, so caught-up followers can roll without the rotated file.
  horizon_epoch_ = journal_.epoch();
  horizon_seq_ = journal_.last_seq();
  if (horizon_epoch_ == epoch_before + 1) {
    horizon_handoff_seq_ = seq_before;
  } else if (horizon_epoch_ != epoch_before) {
    horizon_handoff_seq_ = JournalHorizon::kNoHandoff;
  }
  return result;
}

JournalHorizon GroupCommitJournal::ReplicationHorizon() const {
  std::lock_guard<std::mutex> lock(mu_);
  JournalHorizon h;
  h.epoch = horizon_epoch_;
  h.seq = horizon_seq_;
  h.drained = durable_ == enqueued_ && sticky_.ok();
  h.handoff_seq = horizon_handoff_seq_;
  return h;
}

void GroupCommitJournal::AttachFence(const EpochFence* fence,
                                     uint64_t authority_token) {
  std::lock_guard<std::mutex> lock(mu_);
  fence_ = fence;
  authority_token_ = authority_token;
}

uint64_t GroupCommitJournal::enqueued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enqueued_;
}

uint64_t GroupCommitJournal::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_;
}

uint64_t GroupCommitJournal::batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_;
}

}  // namespace tchimera
