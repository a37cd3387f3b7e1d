#include "query/session.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "query/interpreter.h"
#include "query/parser.h"
#include "query/vm.h"

namespace tchimera {

// --- plan cache --------------------------------------------------------------

std::string NormalizePlanKey(std::string_view statement) {
  std::string out;
  out.reserve(statement.size());
  bool in_space = true;  // swallow leading whitespace
  // Set when the scan ends inside a quoted literal that never closed
  // (including one whose closing quote was escaped away by a trailing
  // backslash). Every byte after the opening quote is then literal
  // content, and the final trailing-space trim must not touch it: with
  // the trim, `select 'ab` and `select 'ab ` — lexically different
  // texts — would collapse onto one cache key.
  bool unterminated_quote = false;
  for (size_t i = 0; i < statement.size(); ++i) {
    char c = statement[i];
    if (c == '\'') {
      // Quoted literal: copied byte-for-byte (including escapes — the
      // lexer's escape rules must not interact with normalization).
      out += c;
      ++i;
      bool terminated = false;
      while (i < statement.size()) {
        out += statement[i];
        if (statement[i] == '\\' && i + 1 < statement.size()) {
          out += statement[++i];
        } else if (statement[i] == '\'') {
          terminated = true;
          break;
        }
        ++i;
      }
      unterminated_quote = !terminated;
      in_space = false;
      continue;
    }
    if (c == '-' && i + 1 < statement.size() && statement[i + 1] == '-') {
      // `--` line comment: skip to end of line.
      while (i < statement.size() && statement[i] != '\n') ++i;
      --i;  // the newline (or end) is handled as whitespace next round
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out += ' ';
      in_space = true;
      continue;
    }
    out += c;
    in_space = false;
  }
  // Trim only separator whitespace. Bytes inside an unterminated literal
  // are content: trimming them makes lexically different statements
  // (differing exactly in that trailing literal whitespace, or in a
  // trailing backslash that escaped a final space) share a key.
  if (!unterminated_quote) {
    while (!out.empty() && out.back() == ' ') out.pop_back();
  }
  return out;
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    const std::string& key, uint64_t schema_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.schema_version != schema_version) {
    // Compiled under a different schema: a DDL committed since. Evict.
    map_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.plan;
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

Result<std::string> Session::Execute(std::string_view statement) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  if (!TraitsOf(stmt.kind).read) {
    return engine_->ExecuteWrite(&stmt, statement, write_retry_policy_);
  }
  // Read path: pin a snapshot and evaluate on this thread, concurrently
  // with other readers. The snapshot is const; the read executor takes
  // it as such.
  ReadSnapshot snap = engine_->OpenSnapshot();
  if (compile_enabled_ && (stmt.kind == Statement::Kind::kSelect ||
                           stmt.kind == Statement::Kind::kWhen)) {
    TCH_ASSIGN_OR_RETURN(
        std::optional<std::string> compiled,
        TryCompiledRead(&stmt, snap.db(), NormalizePlanKey(statement)));
    if (compiled.has_value()) return *std::move(compiled);
    // Negative cache entry: fall through to the tree-walker below.
  }
  return ExecuteReadStatement(&stmt, snap.db());
}

Result<std::optional<std::string>> Session::TryCompiledRead(
    Statement* stmt, const Database& db, const std::string& key) {
  PlanCache& cache = engine_->plan_cache();
  // The snapshot's own schema version: consistent with the class table
  // the plan compiles against, so a DDL committing concurrently can
  // never cache a plan under the wrong version.
  const uint64_t schema_version = db.schema_version();
  std::shared_ptr<const CachedPlan> cached =
      cache.Lookup(key, schema_version);
  if (cached == nullptr) {
    // Miss: lower now (type errors surface unchanged — the tree-walker
    // would report the identical error) and publish the outcome,
    // negative outcomes included.
    TCH_ASSIGN_OR_RETURN(LowerOutcome outcome, LowerStatement(stmt, db));
    auto fresh = std::make_shared<CachedPlan>();
    if (outcome.compiled()) {
      fresh->plan = std::move(outcome.plan);
    } else {
      fresh->fallback_reason = std::move(outcome.fallback_reason);
    }
    cache.Insert(key, schema_version, fresh);
    cached = std::move(fresh);
  }
  if (!cached->plan.has_value()) return std::optional<std::string>();
  const LoweredPlan& plan = *cached->plan;
  if (plan.kind == LoweredPlan::Kind::kSelect) {
    TCH_ASSIGN_OR_RETURN(std::vector<SelectRow> rows,
                         RunSelect(plan.program, db));
    return std::optional<std::string>(FormatSelectRows(rows));
  }
  TCH_ASSIGN_OR_RETURN(IntervalSet held, RunWhen(plan.program, db));
  return std::optional<std::string>(held.ToString());
}

}  // namespace tchimera
