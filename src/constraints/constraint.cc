#include "constraints/constraint.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/string_util.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/type_checker.h"

namespace tchimera {
namespace {

// The candidate instants at which a piecewise-constant condition over
// `obj` can change truth value within its membership of a class: the
// starts of the membership intervals plus every temporal-attribute
// segment boundary, clipped to [0, now].
//
// Note: conditions that dereference *other* objects (x.boss.salary) are
// sampled at the subject's boundaries only — exact for self-referential
// constraints, conservative otherwise (documented in DESIGN.md).
std::vector<TimePoint> CandidateInstants(const Object& obj,
                                         const IntervalSet& membership,
                                         TimePoint now) {
  std::vector<TimePoint> out;
  for (const Interval& iv : membership.intervals()) {
    out.push_back(iv.start());
  }
  for (const std::string& name : obj.AttributeNames()) {
    const Value* v = obj.Attribute(name);
    if (v->kind() != ValueKind::kTemporal) continue;
    for (const auto& seg : v->AsTemporal().segments()) {
      out.push_back(seg.interval.start());
      if (!seg.interval.is_ongoing()) out.push_back(seg.interval.end() + 1);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::vector<TimePoint> kept;
  for (TimePoint t : out) {
    if (t <= now && membership.Contains(t)) kept.push_back(t);
  }
  return kept;
}

}  // namespace

const char* TemporalConstraint::ModeName(Mode mode) {
  switch (mode) {
    case Mode::kAlways:
      return "always";
    case Mode::kSometime:
      return "sometime";
    case Mode::kNondecreasing:
      return "nondecreasing";
    case Mode::kImmutable:
      return "immutable";
  }
  return "?";
}

Result<TemporalConstraint> TemporalConstraint::Parse(std::string_view text) {
  // constraint NAME on CLASS MODE <attr | expr>
  std::string_view rest = StripWhitespace(text);
  auto take_word = [&rest]() -> std::string {
    rest = StripWhitespace(rest);
    size_t end = 0;
    while (end < rest.size() &&
           !std::isspace(static_cast<unsigned char>(rest[end]))) {
      ++end;
    }
    std::string word(rest.substr(0, end));
    rest = rest.substr(end);
    return word;
  };
  if (take_word() != "constraint") {
    return Status::InvalidArgument(
        "expected 'constraint NAME on CLASS MODE ...'");
  }
  TemporalConstraint c;
  c.name_ = take_word();
  if (!IsIdentifier(c.name_)) {
    return Status::InvalidArgument("bad constraint name '" + c.name_ + "'");
  }
  if (take_word() != "on") {
    return Status::InvalidArgument("expected 'on' after the constraint name");
  }
  c.class_name_ = take_word();
  if (!IsIdentifier(c.class_name_)) {
    return Status::InvalidArgument("bad class name '" + c.class_name_ + "'");
  }
  std::string mode = take_word();
  rest = StripWhitespace(rest);
  if (mode == "always" || mode == "sometime") {
    c.mode_ = mode == "always" ? Mode::kAlways : Mode::kSometime;
    TCH_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpression(rest));
    c.expr_ = std::move(expr);
    return c;
  }
  if (mode == "nondecreasing" || mode == "immutable") {
    c.mode_ =
        mode == "nondecreasing" ? Mode::kNondecreasing : Mode::kImmutable;
    c.attr_ = std::string(rest);
    if (!IsIdentifier(c.attr_)) {
      return Status::InvalidArgument("expected an attribute name after '" +
                                     mode + "'");
    }
    return c;
  }
  return Status::InvalidArgument(
      "unknown constraint mode '" + mode +
      "' (expected always | sometime | nondecreasing | immutable)");
}

Result<ExprPtr> TemporalConstraint::TypedCondition(const Database& db) const {
  ExprPtr typed = CloneExpr(*expr_);
  TypeEnv tenv;
  tenv.emplace("x", class_name_);
  TCH_ASSIGN_OR_RETURN(const Type* t, TypeCheckExpr(typed.get(), db, tenv));
  if (t->kind() != TypeKind::kBool) {
    return Status::TypeError("constraint '" + name_ +
                             "' condition must be bool, got " +
                             t->ToString());
  }
  return typed;
}

Status TemporalConstraint::CheckObject(const Database& db, Oid oid) const {
  ExprPtr typed;
  return CheckMember(db, oid, &typed);
}

Status TemporalConstraint::CheckMember(const Database& db, Oid oid,
                                       ExprPtr* typed) const {
  const Object* obj = db.GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("object " + oid.ToString() + " does not exist");
  }
  TCH_ASSIGN_OR_RETURN(IntervalSet membership,
                       db.MLifespan(oid, class_name_));
  if (membership.empty()) return Status::OK();  // never a member

  switch (mode_) {
    case Mode::kAlways:
    case Mode::kSometime: {
      if (*typed == nullptr) {
        TCH_ASSIGN_OR_RETURN(*typed, TypedCondition(db));
      }
      ValueEnv venv;
      venv.emplace("x", oid);
      bool any_true = false;
      for (TimePoint t_at : CandidateInstants(*obj, membership, db.now())) {
        TCH_ASSIGN_OR_RETURN(Value v, EvaluateExpr(**typed, db, venv, t_at));
        bool truth = !v.is_null() && v.AsBool();
        if (mode_ == Mode::kAlways && !truth) {
          return Status::ConsistencyViolation(
              "constraint '" + name_ + "' violated by " + oid.ToString() +
              " at instant " + InstantToString(t_at));
        }
        any_true = any_true || truth;
      }
      if (mode_ == Mode::kSometime && !any_true) {
        return Status::ConsistencyViolation(
            "constraint '" + name_ + "' violated by " + oid.ToString() +
            ": the condition never held");
      }
      return Status::OK();
    }
    case Mode::kNondecreasing:
    case Mode::kImmutable: {
      const Value* stored = obj->Attribute(attr_);
      if (stored == nullptr) return Status::OK();  // attribute absent
      if (stored->kind() != ValueKind::kTemporal) {
        return Status::TypeError(
            "constraint '" + name_ + "': attribute '" + attr_ +
            "' is non-temporal — its history is not recorded, so the "
            "constraint cannot be decided");
      }
      const Value* prev = nullptr;
      for (const auto& seg : stored->AsTemporal().segments()) {
        if (seg.value.is_null()) continue;
        if (prev != nullptr) {
          int cmp = Value::Compare(*prev, seg.value);
          if (mode_ == Mode::kImmutable && cmp != 0) {
            return Status::ConsistencyViolation(
                "constraint '" + name_ + "': attribute '" + attr_ +
                "' of " + oid.ToString() + " changed at " +
                InstantToString(seg.interval.start()) +
                " although declared immutable");
          }
          if (mode_ == Mode::kNondecreasing && cmp > 0) {
            return Status::ConsistencyViolation(
                "constraint '" + name_ + "': attribute '" + attr_ +
                "' of " + oid.ToString() + " decreased at " +
                InstantToString(seg.interval.start()) + " (" +
                prev->ToString() + " -> " + seg.value.ToString() + ")");
          }
        }
        prev = &seg.value;
      }
      return Status::OK();
    }
  }
  return Status::Internal("unhandled constraint mode");
}

Status TemporalConstraint::Check(const Database& db) const {
  TCH_RETURN_IF_ERROR(db.FindClass(class_name_).status());
  ExprPtr typed;
  for (Oid oid : db.AllOids()) {
    TCH_RETURN_IF_ERROR(CheckMember(db, oid, &typed));
  }
  return Status::OK();
}

std::string TemporalConstraint::ToString() const {
  std::string out =
      "constraint " + name_ + " on " + class_name_ + " " + ModeName(mode_);
  if (expr_ != nullptr) {
    out += " " + expr_->ToString();
  } else {
    out += " " + attr_;
  }
  return out;
}

Status ConstraintRegistry::Define(std::string_view text) {
  TCH_ASSIGN_OR_RETURN(TemporalConstraint c, TemporalConstraint::Parse(text));
  return Add(std::move(c));
}

Status ConstraintRegistry::Add(TemporalConstraint constraint) {
  if (Find(constraint.name()) != nullptr) {
    return Status::AlreadyExists("constraint '" + constraint.name() +
                                 "' already defined");
  }
  constraints_.push_back(std::move(constraint));
  return Status::OK();
}

Status ConstraintRegistry::Drop(std::string_view name) {
  for (auto it = constraints_.begin(); it != constraints_.end(); ++it) {
    if (it->name() == name) {
      constraints_.erase(it);
      return Status::OK();
    }
  }
  return Status::NotFound("no constraint named '" + std::string(name) + "'");
}

const TemporalConstraint* ConstraintRegistry::Find(
    std::string_view name) const {
  for (const TemporalConstraint& c : constraints_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

std::vector<std::string> ConstraintRegistry::Names() const {
  std::vector<std::string> out;
  out.reserve(constraints_.size());
  for (const TemporalConstraint& c : constraints_) out.push_back(c.name());
  return out;
}

Status ConstraintRegistry::CheckAll(const Database& db) const {
  std::string violations;
  for (const TemporalConstraint& c : constraints_) {
    Status s = c.Check(db);
    if (!s.ok()) {
      if (!violations.empty()) violations += "; ";
      violations += s.message();
    }
  }
  if (violations.empty()) return Status::OK();
  return Status::ConsistencyViolation(violations);
}

Status ConstraintRegistry::CheckObject(const Database& db, Oid oid) const {
  for (const TemporalConstraint& c : constraints_) {
    TCH_RETURN_IF_ERROR(c.CheckObject(db, oid));
  }
  return Status::OK();
}

}  // namespace tchimera
