#include "core/db/versioned_db.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/object/object.h"

namespace tchimera {
namespace {

// How many committed footprints are retained for validation. A
// transaction whose base version fell out of this window aborts with
// Conflict (indistinguishable from a real overlap — the caller retries
// against a fresh base either way).
constexpr size_t kMaxRecentFootprints = 256;
// A footprint touching more slots than this collapses to `all`:
// validation stays O(small) and memory stays bounded no matter how
// large a bulk statement was.
constexpr size_t kMaxFootprintSlots = 4096;

template <typename T>
bool SetsIntersect(const std::set<T>& a, const std::set<T>& b) {
  // Walk the smaller set, probe the larger: O(min log max).
  const std::set<T>& small = a.size() <= b.size() ? a : b;
  const std::set<T>& large = a.size() <= b.size() ? b : a;
  for (const T& x : small) {
    if (large.count(x) > 0) return true;
  }
  return false;
}

bool OidSetsIntersect(const WriteFootprint& a, const WriteFootprint& b) {
  // deleted_oids is a subset of oids (DeleteObject touches the slot
  // first), so testing the oids sets covers delete-vs-anything overlap.
  return SetsIntersect(a.oids, b.oids);
}

// The slot-overlap half of validation: does the already-committed
// footprint `c` conflict with the validating transaction's footprint
// `t`? Symmetric except for clock movement: a committed clock advance
// invalidates every later validator (its mutations were computed
// against a stale `now`), while a validating clock advance replays
// cleanly after any committed plain update.
bool FootprintsConflict(const WriteFootprint& c, const WriteFootprint& t) {
  if (c.all || t.all) return true;
  // Schema changes rewire refinement/ISA state that every statement
  // reads; serialize them against everything (they are rare).
  if (c.schema_changed || t.schema_changed) return true;
  if (c.clock_advanced) return true;
  // Two transactions that both allocated OIDs from the same base would
  // collide on the counter; journal replay must also re-derive the same
  // OIDs in commit order, so serialize allocators.
  if (c.oid_allocated && t.oid_allocated) return true;
  if (OidSetsIntersect(c, t)) return true;
  if (SetsIntersect(c.classes, t.classes)) return true;
  return false;
}

}  // namespace

uint64_t WriteGuard::Commit(bool serialize) {
  if (owner_ == nullptr || !lock_.owns_lock()) {
    // Publishing without the writer lock is exactly the out-of-order
    // publish bug this guard exists to prevent — fail loudly instead of
    // corrupting the version order.
    std::fprintf(stderr,
                 "fatal: WriteGuard::Commit() on a guard that no longer "
                 "holds the writer lock (double commit or moved-from "
                 "guard)\n");
    std::abort();
  }
  WriteFootprint fp = db_->TakeFootprint();
  fp.schema_changed |= serialize;
  // `retired` outlives the unlock below: dropping the last reference to
  // the previous version (when no snapshot pins it) tears down a whole
  // Database — cleanup the next writer need not wait behind.
  std::shared_ptr<const DbVersion> retired;
  const uint64_t v = owner_->PublishLocked(std::move(db_), std::move(fp),
                                           &retired);
  owner_ = nullptr;
  lock_.unlock();
  return v;
}

VersionedDatabase::VersionedDatabase()
    : VersionedDatabase(std::make_unique<Database>()) {}

VersionedDatabase::VersionedDatabase(std::unique_ptr<Database> db) {
  if (db == nullptr) db = std::make_unique<Database>();
  // Whatever built this database (recovery replay, test wiring) is
  // published wholesale as version 0 — its accumulated footprint is not
  // a commit anyone can race against, so discard it.
  db->TakeFootprint();
  ExchangeHead(std::make_shared<const DbVersion>(
      DbVersion{std::shared_ptr<const Database>(std::move(db)), 0}));
}

std::shared_ptr<const DbVersion> VersionedDatabase::ExchangeHead(
    std::shared_ptr<const DbVersion> next) {
  std::lock_guard<std::mutex> lock(published_mu_);
  std::shared_ptr<const DbVersion> prev = std::move(published_);
  published_ = std::move(next);
  return prev;
}

ReadSnapshot VersionedDatabase::OpenSnapshot() const {
  // The mutex pairs the reader with ExchangeHead: a snapshot that
  // observes version N observes every write commit N published.
  return ReadSnapshot(Head());
}

WriteGuard VersionedDatabase::BeginWrite() {
  std::unique_lock<std::mutex> lock(writer_mu_);
  // Only writer-lock holders publish, so the head copied here stays the
  // head until this guard commits or drops.
  return WriteGuard(std::move(lock), std::make_unique<Database>(*Head()->db),
                    this);
}

OptimisticTransaction VersionedDatabase::BeginTransaction() const {
  std::shared_ptr<const DbVersion> base = Head();
  // The COW copy of a published (immutable) Database is safe without a
  // lock: concurrent copiers only race on the epoch counter stores,
  // which are atomic and where any fresh value is correct.
  return OptimisticTransaction(base, std::make_unique<Database>(*base->db));
}

Result<uint64_t> VersionedDatabase::CommitTransaction(
    OptimisticTransaction* txn, const std::function<Status()>& prepare) {
  if (txn == nullptr || !txn->valid()) {
    return Status::FailedPrecondition(
        "CommitTransaction on an invalid (already committed or moved-from) "
        "transaction");
  }
  // Declared before the lock so their destructors run after it releases:
  // tearing down the consumed private copy (spine-proportional) and —
  // when no snapshot pins it — the entire retired previous version are
  // pure cleanup no later committer needs to wait behind.
  std::shared_ptr<const DbVersion> released_base;
  std::unique_ptr<Database> consumed;
  std::shared_ptr<const DbVersion> retired;
  std::lock_guard<std::mutex> lock(writer_mu_);
  const WriteFootprint& fp = txn->db_->footprint();
  if (fp.empty()) {
    // Read-only transaction: nothing to validate or publish. (Prepare is
    // skipped too — there is no commit to journal.)
    const uint64_t v = Head()->version;
    released_base = std::move(txn->base_);
    consumed = std::move(txn->db_);
    return v;
  }
  Status validated = ValidateLocked(*txn, fp);
  if (!validated.ok()) {
    conflicts_.fetch_add(1, std::memory_order_relaxed);
    // The transaction stays valid: the caller may inspect it, but a
    // retry should start from a fresh BeginTransaction (the base is
    // stale by definition of the conflict).
    return validated;
  }
  if (prepare != nullptr) {
    // Journal-enqueue hook, still under the writer mutex so journal
    // order equals commit order. Failure aborts without publishing.
    TCH_RETURN_IF_ERROR(prepare());
  }
  WriteFootprint taken = txn->db_->TakeFootprint();
  std::unique_ptr<Database> next;
  if (txn->base_ == Head()) {
    // Nothing committed since the base: the private copy is exactly the
    // next version.
    next = std::move(txn->db_);
  } else {
    // Validation passed over intervening commits, so the footprint is
    // slot-level (schema and `all` footprints conflict with every one):
    // the next version is the head with the transaction's slots adopted.
    next = std::make_unique<Database>(*Head()->db);
    next->AdoptChanges(*txn->db_, taken);
    consumed = std::move(txn->db_);
  }
  const uint64_t v = PublishLocked(std::move(next), std::move(taken), &retired);
  released_base = std::move(txn->base_);
  return v;
}

Status VersionedDatabase::ValidateLocked(const OptimisticTransaction& txn,
                                         const WriteFootprint& fp) const {
  const uint64_t base = txn.base_->version;
  const std::shared_ptr<const DbVersion> head_version = Head();
  if (head_version->version == base) return Status::OK();  // nothing since
  const Database& head = *head_version->db;
  if (recent_.empty() || recent_.front().version > base + 1) {
    return Status::Conflict(
        "base version " + std::to_string(base) +
        " predates the retained validation window; retry against a fresh "
        "snapshot");
  }
  for (const CommittedFootprint& committed : recent_) {
    if (committed.version <= base) continue;
    if (FootprintsConflict(committed.fp, fp)) {
      return Status::Conflict(
          "write footprint overlaps version " +
          std::to_string(committed.version) +
          " committed after base version " + std::to_string(base));
    }
    // Referential-integrity re-check (paper Definition 5.6). Slot
    // overlap above already serializes same-object races; what remains
    // is the cross-object hazard where one side deleted an object the
    // other side's touched objects currently reference.
    if (!fp.deleted_oids.empty() && !committed.fp.oids.empty()) {
      // We deleted D; a committed writer touched Y. If Y (as committed)
      // still references D now, publishing the delete would dangle it.
      for (uint64_t id : committed.fp.oids) {
        const Object* obj = head.GetObject(Oid{id});
        if (obj == nullptr || !obj->alive()) continue;
        for (Oid ref : obj->ReferencedOids(head.now())) {
          if (fp.deleted_oids.count(ref.id) > 0) {
            return Status::Conflict(
                "deleting object " + ref.ToString() +
                " would dangle a reference from " + Oid{id}.ToString() +
                " established by version " +
                std::to_string(committed.version) +
                " (referential integrity, Definition 5.6)");
          }
        }
      }
    }
    if (!committed.fp.deleted_oids.empty() && !fp.oids.empty()) {
      // A committed writer deleted D; we touched Y. If our Y references
      // D now, our assertion was validated against a base where D was
      // alive and no longer holds.
      for (uint64_t id : fp.oids) {
        const Object* obj = txn.db_->GetObject(Oid{id});
        if (obj == nullptr || !obj->alive()) continue;
        for (Oid ref : obj->ReferencedOids(txn.db_->now())) {
          if (committed.fp.deleted_oids.count(ref.id) > 0) {
            return Status::Conflict(
                "object " + Oid{id}.ToString() + " references " +
                ref.ToString() + ", deleted by version " +
                std::to_string(committed.version) +
                " (referential integrity, Definition 5.6)");
          }
        }
      }
    }
  }
  return Status::OK();
}

uint64_t VersionedDatabase::PublishLocked(
    std::unique_ptr<Database> db, WriteFootprint fp,
    std::shared_ptr<const DbVersion>* retired) {
  // Only the writer lock holder publishes, so reading the previous head
  // here cannot race another publication.
  const uint64_t next = Head()->version + 1;
  // ExchangeHead hands the previous head to the caller: if no snapshot
  // pins it, the caller drops the last reference after releasing the
  // writer mutex rather than destroying a whole Database inside it.
  *retired = ExchangeHead(std::make_shared<const DbVersion>(
      DbVersion{std::shared_ptr<const Database>(std::move(db)), next}));
  RecordFootprintLocked(next, std::move(fp));
  return next;
}

void VersionedDatabase::RecordFootprintLocked(uint64_t version,
                                              WriteFootprint fp) {
  if (fp.oids.size() + fp.deleted_oids.size() + fp.classes.size() >
      kMaxFootprintSlots) {
    WriteFootprint collapsed;
    collapsed.all = true;
    fp = std::move(collapsed);
  }
  recent_.push_back(CommittedFootprint{version, std::move(fp)});
  while (recent_.size() > kMaxRecentFootprints) recent_.pop_front();
}

}  // namespace tchimera
