// Temporal triggers — the Section 7 future-work item ("we plan to extend
// Chimera triggers ... with time; issues such as termination and
// confluence will need to be re-visited") made concrete at the TQL
// surface.
//
// An ECA rule:
//
//   trigger NAME on EVENT [of CLASS[.ATTR]] do <tql-statement>
//
//   EVENT := create | update | migrate | delete
//   CLASS filters by the subject's most specific class (subclasses
//         match: a trigger `of person` fires for employees too);
//   ATTR  further filters update events by the touched attribute;
//   the action is any TQL statement; `$self` inside it is replaced by the
//   subject's oid before execution.
//
// ActiveDatabase is the execution facade: statements go through it,
// matching triggers fire after a successful mutation, and trigger actions
// may recursively fire further triggers. Termination — the issue the
// paper flags — is handled by a cascade depth limit: exceeding it aborts
// the statement with FailedPrecondition and reports the trigger chain.
#ifndef TCHIMERA_TRIGGERS_TRIGGER_H_
#define TCHIMERA_TRIGGERS_TRIGGER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "constraints/constraint.h"
#include "core/db/database.h"
#include "query/interpreter.h"

namespace tchimera {

enum class TriggerEvent { kCreate, kUpdate, kMigrate, kDelete };

const char* TriggerEventName(TriggerEvent event);

struct Trigger {
  std::string name;
  TriggerEvent event = TriggerEvent::kUpdate;
  std::string class_filter;  // empty = any class
  std::string attr_filter;   // update events only; empty = any attribute
  std::string action;        // TQL with $self placeholder

  // Parses the textual form above.
  static Result<Trigger> Parse(std::string_view text);
  std::string ToString() const;
};

class ActiveDatabase {
 public:
  // How deep trigger actions may cascade before the statement aborts.
  static constexpr size_t kMaxCascadeDepth = 16;

  // Does not take ownership; `db` must outlive this facade.
  explicit ActiveDatabase(Database* db) : db_(db), interp_(db) {}

  Database& db() { return *db_; }
  const Database& db() const { return *db_; }

  Status DefineTrigger(std::string_view text);
  Status DropTrigger(std::string_view name);
  std::vector<std::string> TriggerNames() const;

  // The attached temporal integrity constraints; `check` statements run
  // them after the model's own consistency check.
  ConstraintRegistry& constraints() { return constraints_; }
  const ConstraintRegistry& constraints() const { return constraints_; }

  // Copies `other`'s trigger and constraint definitions into this
  // facade, replacing any it already had. Used to equip a per-transaction
  // facade (optimistic writers execute against a private database copy)
  // with the engine's registered definitions; both are cheap, copyable
  // value types.
  void CopyDefinitionsFrom(const ActiveDatabase& other) {
    triggers_ = other.triggers_;
    constraints_ = other.constraints_;
  }

  // The textual definition of every registered trigger, then every
  // constraint, each in the exact re-parseable form Execute accepts.
  // This is what a checkpoint persists (snapshot v3 DEFINE records, see
  // docs/PERSISTENCE.md) so definitions survive the journal being folded
  // into a snapshot.
  std::vector<std::string> DefinitionStatements() const;

  // Executes a statement; on a successful mutation, fires matching
  // triggers (and their cascades). Returns the statement's own output.
  //
  // Beyond plain TQL this facade also accepts the two Section 7
  // definition forms directly:
  //   trigger NAME on EVENT [of CLASS[.ATTR]] do <stmt>
  //   constraint NAME on CLASS (always|sometime) <expr>
  //   constraint NAME on CLASS (nondecreasing|immutable) ATTR
  // and extends `check` to also evaluate every registered constraint.
  Result<std::string> Execute(std::string_view statement);

  // Executes an already-parsed statement (the engine's write path parses
  // once and hands the statement here). Same semantics as Execute.
  Result<std::string> ExecuteStatement(Statement* stmt);

  // Trigger firings since construction (diagnostics / benchmarks).
  size_t fired_count() const { return fired_; }

 private:
  struct Event {
    TriggerEvent kind;
    Oid subject;
    std::string attr;  // update events
  };

  // True if `trigger` matches `event` under the current schema.
  bool Matches(const Trigger& trigger, const Event& event) const;
  // Runs all matching triggers for `event`; `chain` carries the firing
  // path for the termination diagnostic.
  Status Fire(const Event& event, std::vector<std::string>* chain);
  Result<std::string> ExecuteInternal(Statement* stmt,
                                      std::vector<std::string>* chain);

  Database* db_;
  Interpreter interp_;
  std::vector<Trigger> triggers_;
  ConstraintRegistry constraints_;
  size_t fired_ = 0;
};

}  // namespace tchimera

#endif  // TCHIMERA_TRIGGERS_TRIGGER_H_
