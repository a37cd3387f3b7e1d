// Evaluation of type-checked TQL expressions and SELECT statements.
//
// Expressions are evaluated at an instant `at` (the query's AT time,
// default now). Temporal attribute access projects the attribute's
// function at that instant (or at the explicit `@ t`); a projection
// outside the function's domain yields null. Null propagates through
// operators; a null predicate counts as false (two-valued semantics with
// null absorption — documented in DESIGN.md).
//
// This header also exposes the *scalar kernels* — the single-value
// semantics of every operator and builtin call. The tree-walking
// evaluator below and the batch VM (query/vm.h) both execute through
// these kernels, so the compiled and interpreted paths cannot drift:
// the VM differs only in iteration order, never in per-value semantics.
#ifndef TCHIMERA_QUERY_EVALUATOR_H_
#define TCHIMERA_QUERY_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/temporal/interval_set.h"
#include "core/db/database.h"
#include "query/ast.h"

namespace tchimera {

// The runtime environment: binder name -> bound oid.
using ValueEnv = std::map<std::string, Oid, std::less<>>;

// --- scalar kernels ----------------------------------------------------------

// The builtin calls of the expression language, resolved once (at lowering
// or at the first evaluation) so batch execution dispatches on an enum,
// not a string.
enum class CallKind : uint8_t {
  kSize,
  kDefined,
  kSnapshot,
  kLifespan,
  kVIdentical,
  kVEqual,
  kVInstant,
  kVWeak,
  kVDeep,
};

// The CallKind for a function name; nullopt for unknown functions.
std::optional<CallKind> CallKindOf(std::string_view fn);
const char* CallKindName(CallKind kind);

// `not v`: null propagates.
Value ApplyNot(const Value& v);
// Unary minus: null propagates; real/integer dispatch on the value kind.
Value ApplyNegate(const Value& v);
// Every binary operator EXCEPT the short-circuiting connectives and/or
// (those are control flow, handled by each executor). Null semantics per
// operator match DESIGN.md: =/<> compare structurally (null = null holds),
// orderings and arithmetic propagate null, `in` propagates a null
// collection.
Result<Value> ApplyBinaryOp(BinaryOp op, const Value& l, const Value& r);
// A builtin call over already-evaluated argument values. `at` is the
// evaluation instant (snapshot()'s default projection instant); the
// equality predicates vinstant/vweak compare at the clock's now, exactly
// like the tree-walker.
Result<Value> ApplyCall(CallKind kind, const std::vector<Value>& args,
                        const Database& db, TimePoint at);
// Projects a stored attribute value at instant `t`: a temporal value is
// sampled (null outside its domain), a static value passes through.
Value ProjectStoredAttribute(const Value& stored, TimePoint t);

// Evaluates a (type-checked) expression at instant `at`.
Result<Value> EvaluateExpr(const Expr& expr, const Database& db,
                           const ValueEnv& env, TimePoint at);

// One result row of a SELECT.
struct SelectRow {
  Oid oid;                     // the bound object
  std::vector<Value> columns;  // one value per projection
};

// Runs a SELECT: iterates pi(class, at), filters with WHERE, evaluates
// the projections. The statement must have been type-checked first.
Result<std::vector<SelectRow>> EvaluateSelect(const SelectStmt& stmt,
                                              const Database& db);

// --- WHEN boundary analysis --------------------------------------------------

// What one mentioned object contributes to the boundary set of a WHEN
// condition. The condition's truth value can only change at the lifespan
// edges of the objects it mentions and at the segment boundaries of the
// attribute histories it actually reads — scanning the other attributes
// would only add redundant split points (the answer is coalesced anyway),
// so the requirements name exactly the attributes the condition touches.
// `all_attrs` is the conservative case: the whole object state feeds the
// condition (snapshot(), the v* equality predicates).
struct WhenBoundaryReq {
  Oid oid;
  bool all_attrs = false;
  std::vector<std::string> attrs;  // sorted, unique; used when !all_attrs
};

// Static analysis of a closed condition: one requirement per mentioned
// oid. Computed once per statement (at lowering for the VM, at entry for
// the tree-walker) — never per boundary.
std::vector<WhenBoundaryReq> CollectWhenBoundaryReqs(const Expr& condition);

// The sorted, deduplicated evaluation boundaries for the given
// requirements against the current database state. Without a window the
// boundaries cover [0, now] and always contain 0; with a (resolved)
// `during` window they cover [max(window.start, 0), min(window.end, now)]
// instead: the carry-in instant `lo` plus every boundary inside the
// range. An empty range yields no boundaries at all — the condition is
// then never evaluated (so a data-dependent error outside the window
// does not fire on either execution path). Each history is sliced to the
// range by binary search over its segments instead of walked whole.
//
// The boundary list is sorted but NOT always unique before the final
// dedup: the carry-in `lo` can coincide with the first in-range segment
// edge (and two attributes can share an edge), so the dedup pass is
// unconditional even when the is_sorted fast path skips the sort.
std::vector<TimePoint> CollectWhenBoundaries(
    const std::vector<WhenBoundaryReq>& reqs, const Database& db,
    const Interval* window = nullptr);

// Evaluates a WHEN statement: the coalesced set of instants in [0, now]
// at which the closed boolean condition held. Piecewise-exact: the
// condition is constant between the value-change boundaries of every
// attribute history it reads, so it is decided once per piece. `window`
// (a resolved `during` interval, or null) restricts which pieces are
// evaluated; the caller still intersects the answer with the window —
// the last piece extends to `now` regardless.
Result<IntervalSet> EvaluateWhen(const Expr& condition, const Database& db,
                                 const Interval* window = nullptr);

}  // namespace tchimera

#endif  // TCHIMERA_QUERY_EVALUATOR_H_
