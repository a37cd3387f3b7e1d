// Temporal integrity constraints — the Section 7 future-work item
// ("define a temporal integrity constraint language ... to express
// constraints based on past histories of objects") made concrete.
//
// A constraint quantifies a TQL condition over the *history* of every
// member of a class:
//
//   constraint NAME on CLASS always <expr>
//       — expr holds at every instant of each member's membership
//         lifespan (evaluated piecewise: temporal attributes are
//         projected at each instant, exactly like an AT-query);
//   constraint NAME on CLASS sometime <expr>
//       — expr holds at at least one instant;
//   constraint NAME on CLASS nondecreasing ATTR
//       — the temporal attribute's projected values never decrease along
//         time (the classic salary constraint);
//   constraint NAME on CLASS immutable ATTR
//       — once defined, the attribute's value never changes (the paper's
//         immutable kind, Section 1.1, enforced rather than assumed).
//
// In `always` / `sometime` expressions the binder `x` denotes the member
// object and `x.attr` projects at the quantified instant.
//
// Evaluation is exact over dense time: temporal values are piecewise
// constant, so the quantifiers are decided at value-change boundaries.
#ifndef TCHIMERA_CONSTRAINTS_CONSTRAINT_H_
#define TCHIMERA_CONSTRAINTS_CONSTRAINT_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/db/database.h"
#include "query/ast.h"

namespace tchimera {

class TemporalConstraint {
 public:
  enum class Mode { kAlways, kSometime, kNondecreasing, kImmutable };

  static const char* ModeName(Mode mode);

  // Parses the textual form shown above.
  static Result<TemporalConstraint> Parse(std::string_view text);

  const std::string& name() const { return name_; }
  const std::string& class_name() const { return class_name_; }
  Mode mode() const { return mode_; }
  // The quantified condition (kAlways / kSometime), else null.
  const Expr* condition() const { return expr_.get(); }
  // The constrained attribute (kNondecreasing / kImmutable), else empty.
  const std::string& attribute() const { return attr_; }

  // Checks the constraint against every object that has ever been a
  // member of the class. OK when satisfied; ConsistencyViolation naming
  // the first offending object and instant otherwise.
  Status Check(const Database& db) const;

  // Checks a single object (used by incremental enforcement).
  Status CheckObject(const Database& db, Oid oid) const;

  std::string ToString() const;

 private:
  TemporalConstraint() = default;

  // CheckObject with the condition in `typed`: the caller's private,
  // type-checked copy of expr_, made on the first member that needs it,
  // so one Check call type-checks once.
  Status CheckMember(const Database& db, Oid oid, ExprPtr* typed) const;

  // A copy of expr_, type-checked against `db`'s schema (types may change
  // as classes evolve). expr_ itself is never checked: it is shared by
  // every copy of this constraint, including the facades of concurrent
  // optimistic writers, and the checker annotates the tree it checks.
  Result<ExprPtr> TypedCondition(const Database& db) const;

  std::string name_;
  std::string class_name_;
  Mode mode_ = Mode::kAlways;
  std::shared_ptr<const Expr> expr_;  // shared: constraints are copyable
  std::string attr_;
};

// A named collection of constraints with bulk checking.
class ConstraintRegistry {
 public:
  // Parses and registers; fails on duplicate names or parse errors.
  Status Define(std::string_view text);
  Status Add(TemporalConstraint constraint);
  Status Drop(std::string_view name);

  const TemporalConstraint* Find(std::string_view name) const;
  std::vector<std::string> Names() const;
  size_t size() const { return constraints_.size(); }

  // Checks every constraint; collects all violations (one Status line
  // each) rather than stopping at the first.
  Status CheckAll(const Database& db) const;
  // Checks every constraint whose class covers `oid`'s current class
  // (called after a mutation touching `oid`).
  Status CheckObject(const Database& db, Oid oid) const;

 private:
  std::vector<TemporalConstraint> constraints_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CONSTRAINTS_CONSTRAINT_H_
