#include "analysis/query_analyzer.h"

#include <optional>
#include <set>
#include <string>

#include "query/evaluator.h"
#include "query/type_checker.h"

namespace tchimera {
namespace {

// What kind of statement a predicate belongs to, for message wording.
enum class PredicateContext { kSelectWhere, kWhenCondition };

const char* NeverHoldsText(PredicateContext ctx) {
  return ctx == PredicateContext::kSelectWhere
             ? "the query returns no rows"
             : "the condition never holds (empty interval set)";
}

// True if evaluating `v` is instant- and database-independent: no oids
// (their state lives in the database) and no temporal functions.
bool IsPureValue(const Value& v) {
  switch (v.kind()) {
    case ValueKind::kOid:
    case ValueKind::kTemporal:
      return false;
    case ValueKind::kSet:
    case ValueKind::kList:
      for (const Value& e : v.Elements()) {
        if (!IsPureValue(e)) return false;
      }
      return true;
    case ValueKind::kRecord:
      for (const Value::Field& f : v.Fields()) {
        if (!IsPureValue(f.second)) return false;
      }
      return true;
    default:
      return true;
  }
}

// True if `e` always evaluates to the same value: built from pure
// literals and operators only (no binders, attribute accesses, oids, or
// database-dependent builtins; `size` over a pure collection is allowed).
bool IsPureExpr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return IsPureValue(e.literal);
    case ExprKind::kNot:
    case ExprKind::kNegate:
      return IsPureExpr(*e.base);
    case ExprKind::kBinary:
      return IsPureExpr(*e.base) && IsPureExpr(*e.rhs);
    case ExprKind::kSetCtor:
    case ExprKind::kListCtor:
      for (const ExprPtr& a : e.args) {
        if (!IsPureExpr(*a)) return false;
      }
      return true;
    case ExprKind::kRecCtor:
      for (const auto& [name, fe] : e.rec_fields) {
        if (!IsPureExpr(*fe)) return false;
      }
      return true;
    case ExprKind::kCall:
      if (e.name != "size") return false;
      for (const ExprPtr& a : e.args) {
        if (!IsPureExpr(*a)) return false;
      }
      return true;
    case ExprKind::kVar:
    case ExprKind::kAttrAccess:
      return false;
  }
  return false;
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kIn:
      return true;
    default:
      return false;
  }
}

bool IsNullLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && e.literal.is_null();
}

bool IsEmptyCollectionCtor(const Expr& e) {
  return (e.kind == ExprKind::kSetCtor || e.kind == ExprKind::kListCtor) &&
         e.args.empty();
}

// A folded boolean constant plus the reason it is constant (for the
// diagnostic message).
struct Folded {
  bool value = false;
  std::string reason;
};

// Tries to decide `e` statically. Handles three families:
//   - comparisons against the null literal (null absorbs: never true),
//   - membership in a statically empty collection,
//   - pure constant expressions, folded by the real evaluator.
std::optional<Folded> FoldBool(const Expr& e, const Database& db) {
  if (e.kind == ExprKind::kBinary && IsComparison(e.op)) {
    if (IsNullLiteral(*e.base) || IsNullLiteral(*e.rhs)) {
      return Folded{false,
                    "a comparison with the null literal is never satisfied "
                    "(null absorbs; use defined(e) to test for null)"};
    }
    if (e.op == BinaryOp::kIn && IsEmptyCollectionCtor(*e.rhs)) {
      return Folded{false, "membership in an empty collection"};
    }
  }
  if (!IsPureExpr(e) || e.inferred == nullptr ||
      e.inferred->kind() != TypeKind::kBool) {
    return std::nullopt;
  }
  // Pure expressions do not touch the database or the clock, so the
  // instant is irrelevant; evaluation errors (e.g. division by zero) make
  // the expression non-constant as far as lint is concerned.
  Result<Value> v = EvaluateExpr(e, db, ValueEnv{}, db.now());
  if (!v.ok()) return std::nullopt;
  if (v->is_null()) {
    return Folded{false, "the constant condition evaluates to null, which "
                         "filters every row"};
  }
  if (v->kind() != ValueKind::kBool) return std::nullopt;
  return Folded{v->AsBool(), "the condition is a constant expression"};
}

// A deletion fix-it for `span`, or no fix-its when the parser recorded
// none (programmatic AST, or the construct may not be removed).
std::vector<FixIt> DeleteSpan(const SourceSpan& span) {
  if (!span.valid()) return {};
  return {FixIt{span.begin, span.length(), ""}};
}

// Swap the two endpoint literals of an inverted window. The replacement
// spells the instants in canonical decimal, which the grammar accepts
// wherever a t-literal is (instant := t<digits> | tnow | <digits>).
std::vector<FixIt> SwapEndpoints(const SourceSpan& start_span,
                                 const SourceSpan& end_span,
                                 const Interval& window) {
  if (!start_span.valid() || !end_span.valid()) return {};
  return {FixIt{start_span.begin, start_span.length(),
                InstantToString(window.end())},
          FixIt{end_span.begin, end_span.length(),
                InstantToString(window.start())}};
}

class QueryLint {
 public:
  QueryLint(const Database& db, DiagnosticEngine* diags)
      : db_(db), diags_(diags) {}

  // --- TC101 ---------------------------------------------------------------

  void CheckUnusedBinders(const SelectStmt& stmt) {
    std::set<std::string> used;
    for (const ExprPtr& p : stmt.projections) CollectVars(*p, &used);
    if (stmt.where != nullptr) CollectVars(*stmt.where, &used);
    for (const SelectBinder& b : stmt.binders) {
      if (used.count(b.var) > 0) continue;
      std::string msg = "binder '" + b.var + "' (over class '" +
                        b.class_name + "') is never used";
      std::string note =
          stmt.binders.size() > 1
              ? "the unused binder still multiplies the cartesian product: "
                "each row is repeated once per member of '" +
                    b.class_name + "'"
              : "did you mean to project or filter on '" + b.var + "'?";
      diags_->Report("TC101", b.position, std::move(msg), std::move(note),
                     DeleteSpan(b.remove_span));
    }
  }

  // --- TC102 / TC103 (attribute projections) -------------------------------

  // `eval_at`: the query's resolved evaluation instant, or nullopt when
  // there is no single one (WHEN quantifies over all instants).
  void CheckProjections(const Expr& e, std::optional<TimePoint> eval_at) {
    if (e.kind == ExprKind::kAttrAccess && e.at.has_value()) {
      CheckOneProjection(e, eval_at);
    }
    if (e.base != nullptr) CheckProjections(*e.base, eval_at);
    if (e.rhs != nullptr) CheckProjections(*e.rhs, eval_at);
    for (const ExprPtr& a : e.args) CheckProjections(*a, eval_at);
    for (const auto& [name, fe] : e.rec_fields) {
      CheckProjections(*fe, eval_at);
    }
  }

  // --- TC104 / TC105 (predicates) ------------------------------------------

  // `remove_span`: the byte range that deletes the whole predicate clause
  // (the `where` keyword through the condition); invalid when the clause
  // is mandatory (WHEN) or the AST was built programmatically.
  void CheckPredicate(const Expr& where, PredicateContext ctx,
                      const SourceSpan& remove_span = SourceSpan{}) {
    if (std::optional<Folded> f = FoldBool(where, db_)) {
      if (f->value) {
        diags_->Report("TC105", where.position,
                       "condition is statically true: " + f->reason,
                       "the filter is redundant and can be removed",
                       DeleteSpan(remove_span));
      } else {
        diags_->Report("TC104", where.position,
                       "condition is statically false: " + f->reason,
                       NeverHoldsText(ctx));
      }
      return;
    }
    DescendPredicate(where, ctx);
  }

 private:
  void CollectVars(const Expr& e, std::set<std::string>* out) {
    if (e.kind == ExprKind::kVar) out->insert(e.name);
    if (e.base != nullptr) CollectVars(*e.base, out);
    if (e.rhs != nullptr) CollectVars(*e.rhs, out);
    for (const ExprPtr& a : e.args) CollectVars(*a, out);
    for (const auto& [name, fe] : e.rec_fields) CollectVars(*fe, out);
  }

  void CheckOneProjection(const Expr& e, std::optional<TimePoint> eval_at) {
    const Type* base_t = e.base != nullptr ? e.base->inferred : nullptr;
    if (base_t == nullptr || base_t->kind() != TypeKind::kObject) return;
    const ClassDef* cls = db_.GetClass(base_t->class_name());
    if (cls == nullptr) return;
    const AttributeDef* attr = cls->FindAttribute(e.name);
    if (attr == nullptr) return;
    TimePoint t = *e.at;
    if (!attr->is_temporal()) {
      // The type checker already restricts a non-temporal attribute to
      // `@ now`; a static attribute has only a current value, so the
      // explicit instant never changes the result.
      diags_->Report("TC103", e.position,
                     "'@' projection on non-temporal attribute '" + e.name +
                         "' is a no-op",
                     "a non-temporal attribute has no recorded history "
                     "(Section 5.2); drop the '@'",
                     DeleteSpan(e.at_span));
      return;
    }
    if (!IsNow(t)) {
      const Interval& lifespan = cls->lifespan();
      bool before = t < lifespan.start();
      bool after = !lifespan.is_ongoing() && t > lifespan.end();
      if (before || after) {
        diags_->Report(
            "TC102", e.position,
            "projection of '" + e.name + "' at instant " +
                InstantToString(t) + " is statically null: class '" +
                cls->name() + "' " +
                (before ? "does not exist until " +
                              InstantToString(lifespan.start())
                        : "was dropped at " +
                              InstantToString(lifespan.end())),
            "attribute histories lie within the member's lifespan, which "
            "lies within the class lifespan (Invariant 5.1 / Section 5.2)");
        return;
      }
    }
    if (eval_at.has_value() &&
        ResolveInstant(t, db_.now()) == *eval_at) {
      diags_->Report(
          "TC103", e.position,
          "'@ " + InstantToString(t) + "' on '" + e.name +
              "' is redundant: it equals the query's evaluation instant",
          "a temporal attribute access without '@' is already coerced to "
          "its value at the evaluation instant (Section 6.1)",
          DeleteSpan(e.at_span));
    }
  }

  void DescendPredicate(const Expr& e, PredicateContext ctx) {
    if (e.kind == ExprKind::kNot) {
      DescendPredicate(*e.base, ctx);
      return;
    }
    if (e.kind != ExprKind::kBinary ||
        (e.op != BinaryOp::kAnd && e.op != BinaryOp::kOr)) {
      return;
    }
    for (const Expr* side : {e.base.get(), e.rhs.get()}) {
      std::optional<Folded> f = FoldBool(*side, db_);
      if (!f.has_value()) {
        DescendPredicate(*side, ctx);
        continue;
      }
      // Deleting one side of `A and B` / `A or B` takes the connective
      // with it: the left operand extends forward to the right one's
      // start, the right operand back from the left one's end. Operand
      // spans include any parentheses, so the remainder stays balanced.
      SourceSpan side_removal;
      if (e.base->span.valid() && e.rhs->span.valid()) {
        side_removal = side == e.base.get()
                           ? SourceSpan{e.base->span.begin, e.rhs->span.begin}
                           : SourceSpan{e.base->span.end, e.rhs->span.end};
      }
      if (e.op == BinaryOp::kAnd) {
        if (f->value) {
          diags_->Report("TC105", side->position,
                         "conjunct is statically true: " + f->reason,
                         "the conjunct is redundant and can be removed",
                         DeleteSpan(side_removal));
        } else {
          diags_->Report("TC104", side->position,
                         "conjunct is statically false: " + f->reason,
                         NeverHoldsText(ctx));
        }
      } else {
        if (f->value) {
          diags_->Report("TC105", side->position,
                         "disjunct is statically true: " + f->reason,
                         "the whole disjunction is trivially true");
        } else {
          diags_->Report("TC105", side->position,
                         "disjunct is statically false: " + f->reason,
                         "the disjunct is redundant and can be removed",
                         DeleteSpan(side_removal));
        }
      }
    }
  }

  const Database& db_;
  DiagnosticEngine* diags_;
};

// TC109: a statically empty (inverted) `during` window on a read
// statement — the query is restricted to no instants at all. Mirrors
// TC106, which covers the same literal on `update`.
void CheckQueryWindow(const std::optional<Interval>& during, size_t position,
                      const char* verb, DiagnosticEngine* diags,
                      const SourceSpan& start_span = SourceSpan{},
                      const SourceSpan& end_span = SourceSpan{}) {
  if (!during.has_value()) return;
  const Interval& window = *during;
  // A symbolic `now` endpoint depends on the clock at execution time;
  // only a fully concrete inverted literal is statically empty.
  if (IsNow(window.start()) || IsNow(window.end())) return;
  if (window.end() >= window.start()) return;
  diags->Report(
      "TC109", position,
      std::string(verb) + " window [" + InstantToString(window.start()) +
          "," + InstantToString(window.end()) +
          "] is statically empty: " + InstantToString(window.end()) +
          " precedes " + InstantToString(window.start()),
      "an interval [a,b] with b < a denotes the null interval "
      "(Section 3.2); the result is unconditionally empty — swap the "
      "endpoints or drop the 'during' clause",
      SwapEndpoints(start_span, end_span, window));
}

}  // namespace

void AnalyzeSelect(SelectStmt* stmt, const Database& db,
                   DiagnosticEngine* diags) {
  if (Result<std::vector<const Type*>> r = TypeCheckSelect(stmt, db);
      !r.ok()) {
    size_t pos = stmt->binders.empty() ? SourceLocation::kNoOffset
                                       : stmt->binders.front().position;
    diags->Report("TC110", pos, r.status().message(),
                  "the statement would be rejected before evaluation "
                  "(Definition 3.6 typing rules)");
    return;
  }
  QueryLint lint(db, diags);
  lint.CheckUnusedBinders(*stmt);
  TimePoint eval_at = stmt->at.has_value()
                          ? ResolveInstant(*stmt->at, db.now())
                          : db.now();
  for (const ExprPtr& p : stmt->projections) {
    lint.CheckProjections(*p, eval_at);
  }
  if (stmt->where != nullptr) {
    lint.CheckProjections(*stmt->where, eval_at);
    lint.CheckPredicate(*stmt->where, PredicateContext::kSelectWhere,
                        stmt->where_span);
  }
}

void AnalyzeUpdate(const UpdateStmt& stmt, size_t position,
                   const Database& db, DiagnosticEngine* diags) {
  (void)db;
  if (!stmt.during.has_value()) return;
  const Interval& window = *stmt.during;
  // A symbolic `now` endpoint depends on the clock at execution time;
  // only a fully concrete inverted literal is statically empty.
  if (IsNow(window.start()) || IsNow(window.end())) return;
  if (window.end() < window.start()) {
    // ToString() renders every empty interval as "[]"; echo the literal
    // endpoints so the finding points at what was written.
    diags->Report(
        "TC106", position,
        "update window [" + InstantToString(window.start()) + "," +
            InstantToString(window.end()) +
            "] is statically empty: " + InstantToString(window.end()) +
            " precedes " + InstantToString(window.start()),
        "an interval [a,b] with b < a denotes the null interval "
        "(Section 3.2); the update asserts a value over no instants — "
        "swap the endpoints or drop the 'during' clause",
        SwapEndpoints(stmt.during_start_span, stmt.during_end_span, window));
  }
}

void AnalyzeCreateIndex(const CreateIndexStmt& stmt, size_t position,
                        const Database& db, DiagnosticEngine* diags) {
  if (db.GetIndexDef(stmt.name) != nullptr) {
    diags->Report("TC112", position,
                  "index '" + stmt.name + "' already exists",
                  "the statement would fail at execution; drop the "
                  "existing index first or pick another name");
    return;
  }
  Result<const ClassDef*> cls = db.FindClass(stmt.class_name);
  if (!cls.ok()) {
    diags->Report("TC112", position,
                  "index '" + stmt.name + "' names unknown class '" +
                      stmt.class_name + "'",
                  "an index is declared against a class so the planner "
                  "can estimate extent cardinality; define the class "
                  "first");
    return;
  }
  if (!stmt.lifespan && (*cls)->FindAttribute(stmt.attr) == nullptr) {
    diags->Report("TC112", position,
                  "class '" + stmt.class_name +
                      "' declares no attribute '" + stmt.attr + "'",
                  "a value index covers one declared attribute; check "
                  "the spelling or use `lifespan` for a lifespan index");
  }
}

void AnalyzeDropIndex(const DropIndexStmt& stmt, size_t position,
                      const Database& db, DiagnosticEngine* diags) {
  if (db.GetIndexDef(stmt.name) != nullptr) return;
  diags->Report("TC112", position,
                "index '" + stmt.name + "' does not exist",
                "the statement would fail at execution with NotFound");
}

void AnalyzeSnapshot(const SnapshotStmt& stmt, size_t position,
                     const Database& db, DiagnosticEngine* diags) {
  if (!stmt.at.has_value() || IsNow(*stmt.at)) return;
  const Object* obj = db.GetObject(stmt.oid);
  if (obj == nullptr) return;  // the runtime reports the missing object
  const Interval& lifespan = obj->lifespan();
  if (lifespan.empty()) return;
  TimePoint t = *stmt.at;
  bool before = t < lifespan.start();
  bool after = !lifespan.is_ongoing() && t > lifespan.end();
  if (!before && !after) return;
  diags->Report(
      "TC107", position,
      "snapshot of " + stmt.oid.ToString() + " at instant " +
          InstantToString(t) + " is statically null: the object's "
          "lifespan is " + lifespan.ToString() +
          (before ? " (instant precedes it)" : " (instant follows it)"),
      "an object's state is defined only within its lifespan "
      "(Definition 5.3 / Section 5.2)");
}

void AnalyzeHistory(const HistoryStmt& stmt, size_t position,
                    const Database& db, DiagnosticEngine* diags) {
  CheckQueryWindow(stmt.during, position, "history", diags,
                   stmt.during_start_span, stmt.during_end_span);
  const Object* obj = db.GetObject(stmt.oid);
  if (obj == nullptr) return;  // the runtime reports the missing object
  const Value* v = obj->Attribute(stmt.attr);
  if (v == nullptr) return;  // the runtime reports the missing attribute
  if (v->kind() == ValueKind::kTemporal) return;
  diags->Report(
      "TC108", position,
      "'" + stmt.attr + "' on " + stmt.oid.ToString() +
          " is a non-temporal attribute: there is no history to show",
      "only temporal attributes record per-instant values (Section 5.2); "
      "the statement prints the single current value");
}

void AnalyzeWhen(WhenStmt* stmt, const Database& db,
                 DiagnosticEngine* diags) {
  CheckQueryWindow(stmt->during, stmt->condition->position, "when", diags,
                   stmt->during_start_span, stmt->during_end_span);
  Result<const Type*> r = TypeCheckExpr(stmt->condition.get(), db, TypeEnv{});
  if (!r.ok()) {
    diags->Report("TC110", stmt->condition->position, r.status().message(),
                  "the statement would be rejected before evaluation "
                  "(Definition 3.6 typing rules)");
    return;
  }
  if ((*r)->kind() != TypeKind::kBool) {
    diags->Report("TC110", stmt->condition->position,
                  "WHEN condition must be bool, got " + (*r)->ToString());
    return;
  }
  QueryLint lint(db, diags);
  // WHEN ranges over every instant, so there is no single evaluation
  // instant to compare '@' projections against (no TC103 here).
  lint.CheckProjections(*stmt->condition, std::nullopt);
  lint.CheckPredicate(*stmt->condition, PredicateContext::kWhenCondition);
}

}  // namespace tchimera
