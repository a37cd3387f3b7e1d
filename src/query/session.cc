#include "query/session.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "query/interpreter.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "query/vm.h"

namespace tchimera {

// --- plan cache --------------------------------------------------------------

std::string NormalizePlanKey(std::string_view statement) {
  // The token spellings in order, one space wherever the text had a gap
  // (whitespace or a comment). The lexer cuts with the same SkipGap and
  // TokenEnd, so the key lexes to the text's own tokens: equal keys mean
  // equal token streams, and a bad text's key is just as bad.
  std::string out;
  out.reserve(statement.size());
  size_t pos = SkipGap(statement, 0);
  while (pos < statement.size()) {
    const size_t end = TokenEnd(statement, pos);
    out.append(statement.substr(pos, end - pos));
    pos = SkipGap(statement, end);
    if (pos > end && pos < statement.size()) out += ' ';
  }
  return out;
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& key, uint64_t schema_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  if (it->second.schema_version != schema_version) {
    // Compiled under a different schema: a DDL committed since. Evict.
    map_.erase(it);
    ++stats_.invalidations;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.plan;
}

void PlanCache::CountMiss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.misses;
}

void PlanCache::Insert(const std::string& key, uint64_t schema_version,
                       std::shared_ptr<const CachedPlan> plan) {
  std::lock_guard<std::mutex> lock(mu_);
  if (map_.size() >= kMaxEntries && map_.count(key) == 0) {
    // Evict entries compiled under other schema versions first (they can
    // never hit again once every reader sees the current schema).
    for (auto it = map_.begin(); it != map_.end();) {
      if (it->second.schema_version != schema_version) {
        it = map_.erase(it);
        ++stats_.invalidations;
      } else {
        ++it;
      }
    }
    // Still full: drop everything rather than grow without bound. A
    // workload with >kMaxEntries distinct hot statements re-compiles;
    // correctness is unaffected.
    if (map_.size() >= kMaxEntries) map_.clear();
  }
  map_[key] = Entry{schema_version, std::move(plan)};
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

Engine::Engine(std::unique_ptr<Database> db)
    : vdb_(std::move(db)), definitions_(nullptr) {}

Session Engine::OpenSession() { return Session(this); }

Status Engine::WithExclusive(
    const std::function<Status(Database&, ActiveDatabase&)>& fn) {
  WriteGuard guard = vdb_.BeginWrite();
  // A per-write facade over the guard's private copy, like the
  // optimistic path's: `fn` may define triggers or constraints
  // (statements, recovery replay), and those reach definitions_ only
  // if `fn` succeeds. Lock order: writer lock (taken by BeginWrite
  // above) before defs_mu_.
  ActiveDatabase facade(&guard.db());
  {
    std::lock_guard<std::mutex> defs_lock(defs_mu_);
    facade.CopyDefinitionsFrom(definitions_);
  }
  const std::vector<std::string> before = facade.DefinitionStatements();
  // On failure the guard drops its copy: nothing `fn` did is published.
  TCH_RETURN_IF_ERROR(fn(guard.db(), facade));
  const bool redefined = facade.DefinitionStatements() != before;
  if (redefined) {
    // Copied back before the publish, so every writer whose base is the
    // new version also runs with the new definitions; writers based
    // earlier conflict with it (Commit's `serialize`).
    std::lock_guard<std::mutex> defs_lock(defs_mu_);
    definitions_.CopyDefinitionsFrom(facade);
  }
  guard.Commit(redefined);
  return Status::OK();
}

Status Engine::EnqueueLocked(const Statement& stmt, std::string_view text,
                             CommitSink::Ticket* ticket) {
  if (sink_ == nullptr || !TraitsOf(stmt.kind).durable) return Status::OK();
  *ticket = sink_->Enqueue(text);
  return ticket->seq == 0 ? ticket->status : Status::OK();
}

Status Engine::AwaitDurable(const CommitSink::Ticket& ticket) {
  return ticket.seq == 0 ? Status::OK() : sink_->Await(ticket);
}

Result<std::string> Engine::ExecuteWrite(Statement* stmt,
                                         std::string_view text,
                                         const WriteRetryPolicy& policy) {
  const StatementTraits traits = TraitsOf(stmt->kind);
  if (sink_ != nullptr && traits.durable &&
      text.find('\n') != std::string_view::npos) {
    // The journal frames one statement per line. The sink would accept
    // this statement and then fail its batch, which poisons the sink for
    // every later writer, so refuse it before it runs.
    return Status::InvalidArgument(
        "a durable statement cannot contain a raw newline");
  }
  if (traits.needs_exclusive) {
    return ExecuteWriteExclusive(stmt, text);
  }
  const int attempts = std::max(policy.max_optimistic_attempts, 1);
  Result<std::string> result = Status::Internal("write never attempted");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    result = TryOptimisticWrite(stmt, text);
    if (result.ok() || result.status().code() != StatusCode::kConflict) {
      return result;
    }
    // Lost the validation race — retry against a fresh base. Statement
    // re-execution is correct here: nothing was published or journaled.
  }
  if (!policy.exclusive_fallback) {
    // The budget is spent and the caller owns what happens next: a
    // server surfaces this kConflict as a retryable wire error instead
    // of convoying every hot-slot writer onto the exclusive lock.
    return result;
  }
  // Contention this persistent means the writers genuinely serialize;
  // stop burning copies and take the lock. This also guarantees progress
  // for worst-case workloads (every writer on the same slot).
  return ExecuteWriteExclusive(stmt, text);
}

Result<std::string> Engine::TryOptimisticWrite(Statement* stmt,
                                               std::string_view text) {
  OptimisticTransaction txn = vdb_.BeginTransaction();
  // A per-transaction facade over the private copy: triggers fire and
  // constraints check against the transaction's own state, and their
  // mutations land in its write footprint like any others. Definitions
  // never change here: they are needs_exclusive kinds, and a trigger
  // action cannot be one (ActiveDatabase::DefineTrigger).
  ActiveDatabase facade(&txn.db());
  {
    std::lock_guard<std::mutex> defs_lock(defs_mu_);
    facade.CopyDefinitionsFrom(definitions_);
  }
  TCH_ASSIGN_OR_RETURN(std::string out, facade.ExecuteStatement(stmt));
  CommitSink::Ticket ticket;
  // The prepare hook runs under the writer mutex, after validation
  // succeeded: enqueue order is commit order, and a refused enqueue
  // aborts the commit before anything publishes.
  TCH_RETURN_IF_ERROR(
      vdb_.CommitTransaction(&txn, [this, stmt, text, &ticket]() {
            return EnqueueLocked(*stmt, text, &ticket);
          })
          .status());
  TCH_RETURN_IF_ERROR(AwaitDurable(ticket));
  return out;
}

Result<std::string> Engine::ExecuteWriteExclusive(Statement* stmt,
                                                  std::string_view text) {
  std::string out;
  CommitSink::Ticket ticket;
  // The enqueue is the last step inside the writer lock, so the sink
  // receives statements in exactly commit order and a refused enqueue
  // publishes nothing. Await happens after the lock is released, where
  // commits from concurrent sessions batch into one fdatasync. On a
  // durability failure there the statement *is* published but was never
  // acknowledged: the caller must treat the error as "not committed"
  // (the sink is closed or poisoned and every later write fails too, so
  // no acknowledged statement can ever depend on a lost one).
  TCH_RETURN_IF_ERROR(
      WithExclusive([&](Database&, ActiveDatabase& facade) -> Status {
        TCH_ASSIGN_OR_RETURN(out, facade.ExecuteStatement(stmt));
        return EnqueueLocked(*stmt, text, &ticket);
      }));
  TCH_RETURN_IF_ERROR(AwaitDurable(ticket));
  return out;
}

namespace {

// True when the first token is `select` or `when` (any case): only
// those statements are ever cached, so every other text skips the key,
// the snapshot pin and the lookup.
bool MayHitPlanCache(std::string_view statement) {
  const size_t pos = SkipGap(statement, 0);
  if (pos == statement.size()) return false;
  std::string word(statement.substr(pos, TokenEnd(statement, pos) - pos));
  for (char& c : word) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return word == "select" || word == "when";
}

// Runs a cached plan on the batch VM and formats its result.
Result<std::string> RunPlan(const LoweredPlan& plan, const Database& db) {
  if (plan.kind == LoweredPlan::Kind::kSelect) {
    TCH_ASSIGN_OR_RETURN(std::vector<SelectRow> rows,
                         RunSelect(plan.program, db));
    return FormatSelectRows(rows);
  }
  TCH_ASSIGN_OR_RETURN(IntervalSet held, RunWhen(plan.program, db));
  return held.ToString();
}

}  // namespace

Result<std::string> Session::Execute(std::string_view statement) {
  // With compilation on, a select or when consults the plan cache before
  // parsing: a cached plan runs with no AST at all (its key is sound for
  // that, see NormalizePlanKey). The snapshot pinned for the lookup is the
  // one the statement reads, so the plan runs under the schema it was
  // checked against.
  std::string key;
  ReadSnapshot snap;
  std::shared_ptr<const CachedPlan> cached;
  PlanCache& cache = engine_->plan_cache();
  const bool cacheable = compile_enabled_ && MayHitPlanCache(statement);
  if (cacheable) {
    key = NormalizePlanKey(statement);
    snap = engine_->OpenSnapshot();
    cached = cache.Lookup(key, snap.db().schema_version());
    if (cached != nullptr && cached->plan.has_value()) {
      return RunPlan(*cached->plan, snap.db());
    }
  }
  // A miss, a negative entry, or a text that is no select/when.
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  if (!TraitsOf(stmt.kind).read) {
    snap = ReadSnapshot();  // writes run on the head, not on this pin
    return engine_->ExecuteWrite(&stmt, statement, write_retry_policy_);
  }
  // Read path: evaluate on a pinned snapshot on this thread, concurrently
  // with other readers. The snapshot is const; the read executor takes
  // it as such.
  if (!snap.valid()) snap = engine_->OpenSnapshot();
  if (cacheable && cached == nullptr &&
      (stmt.kind == Statement::Kind::kSelect ||
       stmt.kind == Statement::Kind::kWhen)) {
    // Only here is a miss a miss: the text compiles or is remembered as
    // a fallback. Type errors surface unchanged (the tree-walker would
    // report the identical error) and are not cached.
    cache.CountMiss();
    TCH_ASSIGN_OR_RETURN(LowerOutcome outcome,
                         LowerStatement(&stmt, snap.db()));
    auto fresh = std::make_shared<CachedPlan>();
    if (outcome.compiled()) {
      fresh->plan = std::move(outcome.plan);
    } else {
      fresh->fallback_reason = std::move(outcome.fallback_reason);
    }
    cache.Insert(key, snap.db().schema_version(), fresh);
    if (fresh->plan.has_value()) return RunPlan(*fresh->plan, snap.db());
  }
  // A fallback (negative entry) or a read kind the compiler never takes.
  return ExecuteReadStatement(&stmt, snap.db());
}

}  // namespace tchimera
