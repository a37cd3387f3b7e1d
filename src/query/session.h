// The concurrent execution engine: Sessions over a shared Engine.
//
// Layering (top to bottom):
//
//   Session   — one per client (thread). Looks a statement up in the
//               plan cache before parsing it (compiled reads on): a
//               cached select/when plan runs on a ReadSnapshot with no
//               parse at all. Anything else is parsed once and routed on
//               TraitsOf(kind) (query/ast.h), the one statement
//               classification: read kinds (select / snapshot / history
//               / when / show / explain) run on a ReadSnapshot through
//               the const read executor, concurrently with every other
//               reader; everything else goes to the Engine's write path
//               with the parsed statement.
//   Engine    — wraps the database in a VersionedDatabase (MVCC: reads
//               are lock-free loads of the published version) and holds
//               the committed trigger and constraint definitions. Every
//               write runs on a private copy of a published version,
//               through a per-write ActiveDatabase facade (triggers,
//               constraints, `check`) equipped with those definitions.
//               Writes run optimistically by default: the statement
//               executes against an OptimisticTransaction copy with no
//               lock held, then CommitTransaction validates its write
//               footprint against concurrently committed versions and —
//               inside the only serialized span — enqueues the statement
//               with the CommitSink (so journal order == commit order)
//               and publishes. A validation loss (Status::Conflict) is
//               retried a bounded number of times against a fresh base;
//               persistent losers fall back to the exclusive path
//               (WithExclusive: the writer lock held across execute,
//               enqueue and publish), which also serves the kinds
//               TraitsOf marks needs_exclusive (define / drop / create
//               index / trigger / constraint) outright. On either path
//               a statement that fails, or whose enqueue the sink
//               refuses, publishes nothing. A durable statement with a
//               raw newline is refused before it executes: the journal
//               cannot frame it. Durability is awaited after the lock
//               is released — the group-commit window: many sessions
//               can be between enqueue and durable at once, and one
//               fdatasync acknowledges them all.
//   CommitSink — the durability boundary. storage/group_commit.h is the
//               real implementation (cross-session group commit); a null
//               sink (in-memory engines) acknowledges immediately.
//
// A Session is NOT thread-safe — it is the per-client handle. The Engine
// is: any number of sessions on any threads may execute concurrently.
//
// See docs/CONCURRENCY.md for the full protocol.
#ifndef TCHIMERA_QUERY_SESSION_H_
#define TCHIMERA_QUERY_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "core/db/versioned_db.h"
#include "query/lower.h"
#include "triggers/trigger.h"

namespace tchimera {

// --- plan cache --------------------------------------------------------------

// One cached compilation: either a lowered plan or a remembered fallback
// reason (negative entry — re-lowering a statement the compiler cannot
// handle would waste the type-check every call). Immutable once
// published; shared by every session that executes the same text.
struct CachedPlan {
  std::optional<LoweredPlan> plan;
  std::string fallback_reason;  // set iff !plan
};

// Canonical cache key for a statement: its token spellings, with one
// space wherever the text has whitespace or a `--` comment between two
// tokens (none at either end). Quoted literals keep their bytes; `--`
// inside a token (`k--a` is one identifier) is no comment. Deliberately
// NOT case-folded — identifiers are case-sensitive.
//
// Soundness: the lexer splits with the same functions (query/lexer.h),
// so the key lexes to the statement's own token stream. Two statements
// with one key therefore parse identically — which lets Session::Execute
// run a cached plan without parsing — and a text that fails to lex has a
// key that fails the same way, so it can never hit a valid text's plan.
std::string NormalizePlanKey(std::string_view statement);

// The engine-wide compiled-statement cache, keyed on normalized text and
// guarded by the schema version the plan was compiled under: a lookup
// with a newer schema version evicts the stale entry (DDL invalidation).
// Thread-safe; bounded (kMaxEntries, stale-first eviction).
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;  // entries evicted for a stale schema
  };

  static constexpr size_t kMaxEntries = 256;

  // The cached plan compiled under exactly `schema_version` (counted as
  // a hit), or nullptr. An entry compiled under a different version is
  // dropped (an invalidation). A nullptr is not yet a miss: the caller
  // looks up before it knows whether the text is a select/when at all,
  // and calls CountMiss once it does.
  std::shared_ptr<const CachedPlan> Lookup(const std::string& key,
                                           uint64_t schema_version);
  void CountMiss();
  void Insert(const std::string& key, uint64_t schema_version,
              std::shared_ptr<const CachedPlan> plan);

  Stats stats() const;
  size_t size() const;

 private:
  struct Entry {
    uint64_t schema_version = 0;
    std::shared_ptr<const CachedPlan> plan;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> map_;
  Stats stats_;
};

// Where committed statements go to become durable (the statements whose
// TraitsOf(kind).durable is set). Enqueue is called by
// the engine while it still holds the writer lock (cheap: buffer the
// statement, assign a ticket); Await is called after the lock is
// released and may block (this is where group commit batches form).
// Implementations must be thread-safe.
class CommitSink {
 public:
  struct Ticket {
    uint64_t seq = 0;  // 0 = nothing enqueued (Await returns OK)
    // An Enqueue that fails fast (closed or poisoned sink) reports it
    // here with seq == 0: the statement never entered a batch, so there
    // is nothing to await — the engine surfaces this status instead.
    Status status = Status::OK();
  };

  virtual ~CommitSink() = default;
  virtual Ticket Enqueue(std::string_view statement) = 0;
  virtual Status Await(Ticket ticket) = 0;
};

// How a write that loses optimistic validation (StatusCode::kConflict)
// is retried. The policy belongs to the caller, not the engine: an
// embedded session wants guaranteed progress (bounded retry, then take
// the writer lock), while a network front end wants a per-request retry
// budget after which the *client* is told to retry — backpressure, not
// a lock convoy (see src/server/server.h).
struct WriteRetryPolicy {
  // Optimistic attempts before the policy gives up (clamped to >= 1).
  int max_optimistic_attempts = 3;
  // What "giving up" means: true = fall back to the exclusive writer
  // lock (progress is guaranteed even when every writer touches the same
  // slot); false = surface the final kConflict to the caller, who owns
  // the retry. Statements that *require* the exclusive path
  // (TraitsOf(kind).needs_exclusive) always take it, whatever this says.
  bool exclusive_fallback = true;
};

class Session;

class Engine {
 public:
  // Wraps `db` (nullptr = a fresh database). Trigger cascades are
  // bounded by ActiveDatabase::kMaxCascadeDepth.
  explicit Engine(std::unique_ptr<Database> db = nullptr);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Installs the durability sink (nullptr = in-memory: commits are
  // acknowledged immediately). Call during single-threaded setup, before
  // concurrent sessions run — typically after recovery replay, so the
  // replay itself is not re-journaled.
  void set_commit_sink(CommitSink* sink) { sink_ = sink; }

  // A new session bound to this engine. Sessions are movable, cheap, and
  // single-threaded; the engine must outlive them.
  Session OpenSession();

  // A pinned read view (see core/db/versioned_db.h). Safe from any
  // thread; never blocks (one atomic load), and holding it never blocks
  // writers.
  ReadSnapshot OpenSnapshot() const { return vdb_.OpenSnapshot(); }

  // The latest committed version.
  uint64_t version() const { return vdb_.version(); }

  // The exclusive write: runs `fn` with the writer lock held (no
  // concurrent writer; readers keep their pinned versions) on a private
  // copy of the head, through a facade carrying the committed
  // definitions. If `fn` succeeds the copy, and any definition `fn`
  // made, is published as one commit; if it fails nothing is. A
  // checkpoint runs here too: the copy equals the last committed state.
  Status WithExclusive(
      const std::function<Status(Database&, ActiveDatabase&)>& fn);

  // The committed trigger and constraint definitions (its
  // DefinitionStatements() is what a checkpoint persists). A registry
  // only: it has no database and never executes. Read it only while no
  // writer runs (setup, teardown, or from inside WithExclusive through
  // the facade `fn` receives).
  const ActiveDatabase& active() const { return definitions_; }

  // Optimistic commits that lost validation and were retried (includes
  // attempts that later succeeded). Tests and bench read this.
  uint64_t conflict_count() const { return vdb_.conflict_count(); }

  // The engine-wide compiled-statement cache (see PlanCache). Sessions
  // consult it before parsing; DDL invalidates through the schema
  // version each pinned snapshot carries (Database::schema_version).
  PlanCache& plan_cache() { return plan_cache_; }

 private:
  friend class Session;

  // The write path for a parsed, non-read statement; `text` is its
  // source, which is what the CommitSink journals. Optimistic with retry
  // per `policy`, then exclusive fallback or a surfaced kConflict (see
  // WriteRetryPolicy). Retries re-execute the same parsed statement.
  Result<std::string> ExecuteWrite(Statement* stmt, std::string_view text,
                                   const WriteRetryPolicy& policy);
  // One optimistic attempt: execute on a private transaction copy, then
  // validate+publish. Status::Conflict means "lost the race, retry".
  Result<std::string> TryOptimisticWrite(Statement* stmt,
                                         std::string_view text);
  // The serialized fallback: one statement through WithExclusive. Also
  // the only path for needs_exclusive kinds.
  Result<std::string> ExecuteWriteExclusive(Statement* stmt,
                                            std::string_view text);
  // Hands `stmt` to the sink when it is durable. Called under the writer
  // lock, right before the publish, so journal order is commit order;
  // a refused enqueue returns its status and the caller publishes
  // nothing.
  Status EnqueueLocked(const Statement& stmt, std::string_view text,
                       CommitSink::Ticket* ticket);
  // Waits for an enqueued ticket to become durable (OK for no ticket).
  // Called after the writer lock is released.
  Status AwaitDurable(const CommitSink::Ticket& ticket);

  VersionedDatabase vdb_;
  // The committed definitions (see active()). Only writer-lock holders
  // change them; optimistic writers copy them into their facades without
  // the writer lock, so both sides hold defs_mu_. Lock order: writer_mu_
  // (inside vdb_) before defs_mu_.
  ActiveDatabase definitions_;
  std::mutex defs_mu_;
  CommitSink* sink_ = nullptr;
  PlanCache plan_cache_;
};

// One client's handle. Execute() is the single entry point: reads run
// concurrently on a snapshot, writes serialize through the engine and
// return only once durable (per the engine's sink).
class Session {
 public:
  Session(Session&&) = default;
  Session& operator=(Session&&) = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Result<std::string> Execute(std::string_view statement);

  // Compiled execution of select/when (on by default): every statement
  // is first looked up in the engine's plan cache by its key; a hit runs
  // the cached ExecProgram on the batch VM without parsing, a select/
  // when miss is lowered and cached. Non-lowerable statements and every
  // other verb tree-walk. Off (`--no-compile`) forces the tree-walking
  // evaluator for everything and never touches the cache.
  void set_compile_enabled(bool enabled) { compile_enabled_ = enabled; }
  bool compile_enabled() const { return compile_enabled_; }

  // The conflict-retry policy for this session's writes (default: 3
  // optimistic attempts, then the exclusive lock). A server front end
  // sets {budget, false} so an exhausted budget surfaces kConflict as a
  // retryable wire error instead of convoying on the writer lock.
  void set_write_retry_policy(const WriteRetryPolicy& policy) {
    write_retry_policy_ = policy;
  }
  const WriteRetryPolicy& write_retry_policy() const {
    return write_retry_policy_;
  }

  // A pinned read view for direct (C++ API) reads.
  ReadSnapshot snapshot() const { return engine_->OpenSnapshot(); }

 private:
  friend class Engine;
  explicit Session(Engine* engine) : engine_(engine) {}

  Engine* engine_;
  bool compile_enabled_ = true;
  WriteRetryPolicy write_retry_policy_;
};

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_SESSION_H_
