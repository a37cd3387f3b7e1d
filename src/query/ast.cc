#include "query/ast.h"

namespace tchimera {

StatementTraits TraitsOf(Statement::Kind kind) {
  using Kind = Statement::Kind;
  switch (kind) {
    // Read-only verbs: they touch only const Database members. `explain`
    // lowers its inner statement but never executes it.
    case Kind::kSelect:
    case Kind::kSnapshot:
    case Kind::kHistory:
    case Kind::kWhen:
    case Kind::kShow:
    case Kind::kExplain:
      return {.read = true};
    // Schema changes conflict with every concurrent commit, so an
    // optimistic attempt would only burn a doomed copy; `create index`
    // scans every object shard, a schema-wide footprint; trigger and
    // constraint definitions mutate engine-level registries, not the
    // database copy a transaction owns.
    case Kind::kDefineClass:
    case Kind::kDropClass:
    case Kind::kCreateIndex:
    case Kind::kDropIndex:
    case Kind::kDefineTrigger:
    case Kind::kDefineConstraint:
      return {.durable = true, .needs_exclusive = true};
    case Kind::kCreate:
    case Kind::kUpdate:
    case Kind::kMigrate:
    case Kind::kDelete:
    case Kind::kTick:
    case Kind::kAdvance:
      return {.durable = true};
    // `check` changes nothing, but it evaluates the registered temporal
    // constraints, which live in the write-side ActiveDatabase facade.
    case Kind::kCheck:
      return {};
  }
  return {};
}

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNeq:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
    case BinaryOp::kIn:
      return "in";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
  }
  return "?";
}

ExprPtr CloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->position = e.position;
  out->span = e.span;
  out->at_span = e.at_span;
  out->literal = e.literal;
  out->name = e.name;
  if (e.base != nullptr) out->base = CloneExpr(*e.base);
  if (e.rhs != nullptr) out->rhs = CloneExpr(*e.rhs);
  out->op = e.op;
  out->at = e.at;
  for (const ExprPtr& arg : e.args) out->args.push_back(CloneExpr(*arg));
  for (const auto& [field, value] : e.rec_fields) {
    out->rec_fields.emplace_back(field, CloneExpr(*value));
  }
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kVar:
      return name;
    case ExprKind::kAttrAccess: {
      std::string out = base->ToString() + "." + name;
      if (at.has_value()) out += "@t" + InstantToString(*at);
      return out;
    }
    case ExprKind::kNot:
      return "not " + base->ToString();
    case ExprKind::kNegate:
      return "-" + base->ToString();
    case ExprKind::kBinary:
      return "(" + base->ToString() + " " + BinaryOpName(op) + " " +
             rhs->ToString() + ")";
    case ExprKind::kCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kSetCtor:
    case ExprKind::kListCtor: {
      std::string out(1, kind == ExprKind::kSetCtor ? '{' : '[');
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      out += kind == ExprKind::kSetCtor ? '}' : ']';
      return out;
    }
    case ExprKind::kRecCtor: {
      std::string out = "rec(";
      for (size_t i = 0; i < rec_fields.size(); ++i) {
        if (i > 0) out += ", ";
        out += rec_fields[i].first + ": " + rec_fields[i].second->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

}  // namespace tchimera
