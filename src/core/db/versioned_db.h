// MVCC access to a Database: lock-free snapshots, optimistic writers.
//
// The model is inherently read-heavy: every Table 3 function (pi,
// h_state, s_state, snapshot, ref, ...) is a pure read over immutable
// history, and Database exposes them all as const members with no
// mutable caches. VersionedDatabase turns that property into a
// multi-version concurrency protocol:
//
//   - the committed state is an immutable, shared_ptr-published version
//     (the head), and nothing else: there is no mutable database.
//     OpenSnapshot() copies the head shared_ptr under a mutex held for
//     just that copy — no lock is held for the snapshot's lifetime, so a
//     snapshot may live arbitrarily long without ever blocking writers
//     (or anyone else);
//   - every writer runs on a private copy-on-write copy of a published
//     version (Database's copy constructor shares every untouched
//     class/object/shard — see database.h), and every commit publishes
//     a private copy as the new head, so its cost is proportional to
//     what the writer touched, not to database size. A writer that
//     fails or is abandoned drops its copy: nothing it did is visible
//     to anyone. Writers take one of two ways in. The exclusive one:
//     one writer at a time holds a WriteGuard (the writer mutex plus a
//     copy of the head) and publishes it with Commit(). The optimistic
//     one: any number of OptimisticTransactions mutate their copies
//     concurrently without holding any lock; CommitTransaction
//     serializes only the validate+publish(+journal-enqueue) critical
//     section, validating each transaction's write footprint against
//     everything committed since its base version (first committer
//     wins; losers abort with the retryable Status::Conflict).
//
// Version retirement is shared_ptr refcounting: when the last snapshot
// pinning a version drops (and a newer version has been published), that
// version's Database is freed — and COW sharing means only the record
// copies unique to it, not the shared bulk. Database::live_instance_count()
// makes this observable in tests.
//
// The version counter is monotone: two snapshots with equal versions see
// the identical Database instance, and a reader re-opening snapshots
// observes a non-decreasing sequence (readers never travel back in
// time). Commits are fully serialized even though optimistic execution
// is not — the commit-serialization guarantee the query Engine
// (query/session.h) builds group commit on: the order in which commits
// publish (WriteGuard or CommitTransaction) is the order statements
// reach the journal, and a statement that never reaches the journal
// never publishes.
//
// See docs/CONCURRENCY.md for the full protocol.
#ifndef TCHIMERA_CORE_DB_VERSIONED_DB_H_
#define TCHIMERA_CORE_DB_VERSIONED_DB_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "common/result.h"
#include "core/db/database.h"

namespace tchimera {

class VersionedDatabase;

// One immutable committed version: the database as of a commit, plus the
// commit number. Published as the mutex-guarded head; retired by
// refcount.
struct DbVersion {
  std::shared_ptr<const Database> db;
  uint64_t version = 0;
};

// A pinned, immutable view of the database. Movable, not copyable.
// Holding one costs a refcount — never a lock: long-lived snapshots do
// not delay writers, they only keep their own version's memory alive.
class ReadSnapshot {
 public:
  ReadSnapshot() = default;
  ReadSnapshot(ReadSnapshot&&) = default;
  ReadSnapshot& operator=(ReadSnapshot&&) = default;
  ReadSnapshot(const ReadSnapshot&) = delete;
  ReadSnapshot& operator=(const ReadSnapshot&) = delete;

  bool valid() const { return v_ != nullptr; }
  const Database& db() const { return *v_->db; }
  // The commit version this snapshot observes (0 if invalid).
  uint64_t version() const { return v_ == nullptr ? 0 : v_->version; }

 private:
  friend class VersionedDatabase;
  explicit ReadSnapshot(std::shared_ptr<const DbVersion> v)
      : v_(std::move(v)) {}

  std::shared_ptr<const DbVersion> v_;
};

// Exclusive write access: the writer lock plus a private copy of the
// head. Mutate through db(), then Commit() to publish the copy —
// Commit() also releases the writer lock (there is deliberately no
// separate Release(): publishing outside the lock was a
// version-ordering bug, so the two are fused). Calling Commit() twice,
// or on a moved-from guard, is a hard error (abort). Destruction
// without Commit() releases the lock and discards the copy: nothing the
// guard did is ever published.
class WriteGuard {
 public:
  WriteGuard(WriteGuard&&) = default;
  WriteGuard& operator=(WriteGuard&&) = default;
  WriteGuard(const WriteGuard&) = delete;
  WriteGuard& operator=(const WriteGuard&) = delete;

  Database& db() { return *db_; }
  // Publishes the copy as the new head and releases the writer lock.
  // Returns the new version number. `serialize` marks a commit that
  // also changed state kept outside the Database (the engine's trigger
  // and constraint definitions): like a schema change, it then
  // conflicts with every transaction whose base predates it. Call at
  // most once, only after the mutation succeeded.
  uint64_t Commit(bool serialize = false);

 private:
  friend class VersionedDatabase;
  WriteGuard(std::unique_lock<std::mutex> lock, std::unique_ptr<Database> db,
             VersionedDatabase* owner)
      : db_(std::move(db)), lock_(std::move(lock)), owner_(owner) {}

  // Declared before lock_, so an abandoned copy is torn down after the
  // writer lock is released.
  std::unique_ptr<Database> db_;
  std::unique_lock<std::mutex> lock_;
  VersionedDatabase* owner_ = nullptr;
};

// An optimistic writer: a private COW copy of the database pinned at a
// base version. Mutate through db() from any one thread — no lock is
// held, so any number of transactions run concurrently — then hand the
// transaction to VersionedDatabase::CommitTransaction, which validates
// the accumulated write footprint against every version committed since
// the base (first committer wins) and either publishes or aborts with
// Status::Conflict. Dropping an uncommitted transaction abandons it at
// zero cost. Movable, not copyable.
class OptimisticTransaction {
 public:
  OptimisticTransaction() = default;
  OptimisticTransaction(OptimisticTransaction&&) = default;
  OptimisticTransaction& operator=(OptimisticTransaction&&) = default;
  OptimisticTransaction(const OptimisticTransaction&) = delete;
  OptimisticTransaction& operator=(const OptimisticTransaction&) = delete;

  bool valid() const { return db_ != nullptr; }
  Database& db() { return *db_; }
  const Database& db() const { return *db_; }
  // The version this transaction is reading from (its snapshot).
  uint64_t base_version() const { return base_ == nullptr ? 0 : base_->version; }

 private:
  friend class VersionedDatabase;
  OptimisticTransaction(std::shared_ptr<const DbVersion> base,
                        std::unique_ptr<Database> db)
      : base_(std::move(base)), db_(std::move(db)) {}

  std::shared_ptr<const DbVersion> base_;
  std::unique_ptr<Database> db_;
};

class VersionedDatabase {
 public:
  VersionedDatabase();
  // Wraps an existing database (e.g. one recovery just rebuilt); its
  // state is published immediately as version 0.
  explicit VersionedDatabase(std::unique_ptr<Database> db);

  VersionedDatabase(const VersionedDatabase&) = delete;
  VersionedDatabase& operator=(const VersionedDatabase&) = delete;

  // A shared_ptr copy under a briefly-held mutex. Never blocks on
  // writer execution (publication swaps a pointer), and holding the
  // returned snapshot holds no lock.
  ReadSnapshot OpenSnapshot() const;
  // Blocks until no other writer is active (never on readers), then
  // copies the head for the guard to mutate.
  WriteGuard BeginWrite();

  // Starts an optimistic transaction pinned at the currently published
  // version: a COW copy of it that the caller mutates privately. Takes
  // no lock — any number of transactions may be open at once; conflicts
  // are detected at CommitTransaction time, not here.
  OptimisticTransaction BeginTransaction() const;

  // First-committer-wins validation + publication. Takes the writer
  // mutex (the only serialized span of an optimistic writer's life) and
  //   1. validates the transaction's write footprint against the
  //      footprint of every version committed after its base — slot
  //      overlap, schema or clock movement, duplicate OID allocation,
  //      or a referential-integrity hazard (paper Def. 5.6: one side
  //      deleted an object the other side's touched objects reference)
  //      aborts with Status::Conflict, leaving the published chain and
  //      the transaction itself untouched so the caller can retry;
  //   2. runs `prepare` (if any) still under the mutex — the journal
  //      enqueue hook, so journal order equals commit order. A non-OK
  //      prepare aborts the commit without publishing;
  //   3. publishes: the transaction's own copy when its base is still
  //      the head, otherwise a copy of the head that adopts the
  //      transaction's touched slots (Database::AdoptChanges); and
  //      records the footprint for later validators.
  // On success the transaction is consumed (valid() becomes false) and
  // the new version number is returned. A base that has aged out of the
  // retained footprint window also aborts with Conflict.
  Result<uint64_t> CommitTransaction(OptimisticTransaction* txn,
                                     const std::function<Status()>& prepare =
                                         nullptr);

  // How many optimistic commits have aborted in validation since
  // construction. Exposed for tests and bench reporting.
  uint64_t conflict_count() const {
    return conflicts_.load(std::memory_order_relaxed);
  }

  // The latest committed version (0 for a freshly wrapped database).
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_->version;
  }

 private:
  friend class WriteGuard;

  // One committed version's write footprint, kept so later optimistic
  // validators can test overlap against it.
  struct CommittedFootprint {
    uint64_t version = 0;
    WriteFootprint fp;
  };

  // Publishes `db` as the new head with footprint `fp`; requires
  // writer_mu_ held. When `retired` is non-null it receives the previous
  // head, so the caller can drop the (possibly last) reference after
  // releasing the mutex.
  uint64_t PublishLocked(std::unique_ptr<Database> db, WriteFootprint fp,
                         std::shared_ptr<const DbVersion>* retired);
  // Appends to recent_, collapsing oversized footprints to `all` and
  // trimming the window. Requires writer_mu_ held.
  void RecordFootprintLocked(uint64_t version, WriteFootprint fp);
  // The validation half of CommitTransaction. Requires writer_mu_ held.
  Status ValidateLocked(const OptimisticTransaction& txn,
                        const WriteFootprint& fp) const;

  // Swaps in a new head and returns the previous one. The caller (a
  // publisher holding writer_mu_, or the constructor) drops the returned
  // reference outside published_mu_.
  std::shared_ptr<const DbVersion> ExchangeHead(
      std::shared_ptr<const DbVersion> next);
  // The current head. The only code allowed to touch published_.
  std::shared_ptr<const DbVersion> Head() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  mutable std::mutex writer_mu_;
  // The committed-version chain head; retirement is plain refcounting.
  // Guarded by its own mutex, held only long enough to copy or swap the
  // shared_ptr, rather than std::atomic<shared_ptr>: libstdc++'s
  // _Sp_atomic::load reads the pointer under an internal spin lock but
  // releases that lock with a relaxed RMW, so a subsequent store's plain
  // pointer write formally races the reader's plain pointer read (TSan
  // reports it, and the serving front end's worker pool hits it
  // constantly). The implementation was never lock-free anyway — this
  // buys the same cost with actual happens-before edges.
  mutable std::mutex published_mu_;
  std::shared_ptr<const DbVersion> published_;
  // Footprints of the most recent commits, contiguous up to the
  // published version, oldest first. Bounded: a transaction whose base
  // predates the window can no longer be validated and must abort.
  std::deque<CommittedFootprint> recent_;
  std::atomic<uint64_t> conflicts_{0};
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_DB_VERSIONED_DB_H_
