#include "query/interpreter.h"

#include "core/db/consistency.h"
#include "core/values/temporal_function.h"
#include "query/evaluator.h"
#include "query/lower.h"
#include "query/parser.h"
#include "query/type_checker.h"

namespace tchimera {
namespace {

// Evaluates a constant (binder-free) expression, e.g. a CREATE initializer
// or an UPDATE right-hand side.
Result<Value> EvalConst(Expr* e, const Database& db) {
  // Type checking with an empty environment also rejects stray variables.
  TCH_RETURN_IF_ERROR(TypeCheckExpr(e, db, TypeEnv{}).status());
  return EvaluateExpr(*e, db, ValueEnv{}, db.now());
}

}  // namespace

std::string FormatSelectRows(const std::vector<SelectRow>& rows) {
  std::string out;
  for (const SelectRow& row : rows) {
    if (!out.empty()) out += "\n";
    if (row.columns.empty()) {
      out += row.oid.ToString();
    } else {
      for (size_t i = 0; i < row.columns.size(); ++i) {
        if (i > 0) out += " | ";
        out += row.columns[i].ToString();
      }
    }
  }
  if (out.empty()) return "(no results)";
  return out;
}

Result<std::string> Interpreter::Execute(std::string_view statement) {
  TCH_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(statement));
  return ExecuteStatement(&stmt);
}

Result<std::string> Interpreter::ExecuteScript(std::string_view script) {
  TCH_ASSIGN_OR_RETURN(std::vector<Statement> stmts, ParseScript(script));
  std::string out;
  for (Statement& stmt : stmts) {
    TCH_ASSIGN_OR_RETURN(std::string line, ExecuteStatement(&stmt));
    if (!out.empty()) out += "\n";
    out += line;
  }
  return out;
}

Result<std::string> ExecuteReadStatement(Statement* stmt, const Database& db) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect: {
      SelectStmt& s = *stmt->select;
      TCH_RETURN_IF_ERROR(TypeCheckSelect(&s, db).status());
      TCH_ASSIGN_OR_RETURN(std::vector<SelectRow> rows,
                           EvaluateSelect(s, db));
      return FormatSelectRows(rows);
    }
    case Statement::Kind::kSnapshot: {
      TimePoint t = stmt->snapshot->at.value_or(db.now());
      TCH_ASSIGN_OR_RETURN(Value v, db.SnapshotOf(stmt->snapshot->oid, t));
      return v.ToString();
    }
    case Statement::Kind::kHistory: {
      TCH_ASSIGN_OR_RETURN(const Object* obj,
                           db.FindObject(stmt->history->oid));
      const Value* v = obj->Attribute(stmt->history->attr);
      if (v == nullptr) {
        return Status::NotFound("object " + stmt->history->oid.ToString() +
                                " has no attribute '" + stmt->history->attr +
                                "'");
      }
      if (stmt->history->during.has_value() &&
          v->kind() == ValueKind::kTemporal) {
        // Clip the reported function to the window: keep each segment's
        // intersection with `during [a,b]`. (Non-temporal attributes are
        // constant functions over the lifespan; the window does not
        // change what there is to report.)
        const Interval window = stmt->history->during->Resolve(db.now());
        std::vector<TemporalFunction::Segment> clipped;
        for (const TemporalFunction::Segment& seg :
             v->AsTemporal().segments()) {
          Interval cut = seg.interval.Intersect(window, db.now());
          if (!cut.empty()) {
            clipped.push_back(TemporalFunction::Segment{cut, seg.value});
          }
        }
        TCH_ASSIGN_OR_RETURN(TemporalFunction clipped_fn,
                             TemporalFunction::Make(std::move(clipped)));
        return Value::Temporal(std::move(clipped_fn)).ToString();
      }
      return v->ToString();
    }
    case Statement::Kind::kWhen: {
      WhenStmt& w = *stmt->when;
      TCH_ASSIGN_OR_RETURN(const Type* t,
                           TypeCheckExpr(w.condition.get(), db, TypeEnv{}));
      if (t->kind() != TypeKind::kBool) {
        return Status::TypeError("WHEN condition must be bool, got " +
                                 t->ToString());
      }
      // Temporal selection restricted to the window: evaluate only the
      // pieces inside `during [a,b]` (resolved against the clock), then
      // intersect the answer with it. Passing the window down also means
      // a data-dependent error outside it never fires — matching the
      // compiled path, which clips its boundary set the same way.
      std::optional<Interval> window;
      if (w.during.has_value()) window = w.during->Resolve(db.now());
      TCH_ASSIGN_OR_RETURN(
          IntervalSet held,
          EvaluateWhen(*w.condition, db,
                       window.has_value() ? &*window : nullptr));
      if (window.has_value()) {
        held = held.Intersect(IntervalSet::Of(*window));
      }
      return held.ToString();
    }
    case Statement::Kind::kExplain: {
      // `explain <stmt>` lowers the inner statement and prints the
      // compiled program, or the reason it falls back to tree-walking.
      // Type errors in the inner statement surface unchanged.
      TCH_ASSIGN_OR_RETURN(LowerOutcome outcome,
                           LowerStatement(stmt->explain_inner.get(), db));
      if (!outcome.compiled()) {
        return "fallback: " + outcome.fallback_reason;
      }
      return outcome.plan->ToString();
    }
    case Statement::Kind::kShow: {
      ShowStmt& sh = *stmt->show;
      switch (sh.what) {
        case ShowStmt::What::kNow:
          return "now = " + InstantToString(db.now());
        case ShowStmt::What::kClasses: {
          std::string out;
          for (const std::string& name : db.ClassNames()) {
            if (!out.empty()) out += "\n";
            out += name;
          }
          return out.empty() ? std::string("(no classes)") : out;
        }
        case ShowStmt::What::kClass: {
          TCH_ASSIGN_OR_RETURN(const ClassDef* cls, db.FindClass(sh.name));
          std::string out = "class " + cls->name() + " (" +
                            ClassKindName(cls->kind()) + ", lifespan " +
                            cls->lifespan().ToString() + ")";
          for (const AttributeDef& a : cls->attributes()) {
            out += "\n  " + a.name + ": " + a.type->ToString();
          }
          for (const MethodDef& m : cls->methods()) {
            out += "\n  method " + m.ToString();
          }
          out += "\n  history: " + cls->History().ToString();
          return out;
        }
        case ShowStmt::What::kObject: {
          TCH_ASSIGN_OR_RETURN(const Object* obj, db.FindObject(sh.oid));
          std::string out = obj->id().ToString() + " (lifespan " +
                            obj->lifespan().ToString() + ", class-history " +
                            obj->NormalizedClassHistory(db.now())
                                .ToString() +
                            ")";
          out += "\n  v = " + obj->AttributeRecord().ToString();
          return out;
        }
      }
      return Status::Internal("unhandled SHOW");
    }
    default:
      return Status::InvalidArgument(
          "not a read statement; it needs a writable database");
  }
}

Result<std::string> Interpreter::ExecuteStatement(Statement* stmt) {
  if (TraitsOf(stmt->kind).read) {
    return ExecuteReadStatement(stmt, *db_);
  }
  switch (stmt->kind) {
    case Statement::Kind::kDefineClass: {
      TCH_RETURN_IF_ERROR(db_->DefineClass(stmt->define_class->spec));
      return "class " + stmt->define_class->spec.name + " defined";
    }
    case Statement::Kind::kDropClass: {
      TCH_RETURN_IF_ERROR(db_->DropClass(stmt->drop_class->name));
      return "class " + stmt->drop_class->name + " dropped";
    }
    case Statement::Kind::kCreateIndex: {
      CreateIndexStmt& ci = *stmt->create_index;
      IndexDef def;
      def.name = ci.name;
      def.kind = ci.lifespan ? IndexKind::kLifespan : IndexKind::kValue;
      def.class_name = ci.class_name;
      def.attr = ci.attr;
      TCH_RETURN_IF_ERROR(db_->CreateIndex(def));
      return "index " + ci.name + " created";
    }
    case Statement::Kind::kDropIndex: {
      TCH_RETURN_IF_ERROR(db_->DropIndex(stmt->drop_index->name));
      return "index " + stmt->drop_index->name + " dropped";
    }
    case Statement::Kind::kCreate: {
      CreateStmt& c = *stmt->create;
      Database::FieldInits inits;
      for (auto& [name, expr] : c.inits) {
        TCH_ASSIGN_OR_RETURN(Value v, EvalConst(expr.get(), *db_));
        inits.emplace_back(name, std::move(v));
      }
      TimePoint start = c.at.has_value()
                            ? ResolveInstant(*c.at, db_->now())
                            : db_->now();
      TCH_ASSIGN_OR_RETURN(
          Oid oid, db_->CreateObjectAt(c.class_name, start,
                                       std::move(inits)));
      return oid.ToString();
    }
    case Statement::Kind::kUpdate: {
      UpdateStmt& u = *stmt->update;
      TCH_ASSIGN_OR_RETURN(Value v, EvalConst(u.value.get(), *db_));
      if (u.during.has_value()) {
        TCH_RETURN_IF_ERROR(
            db_->UpdateAttributeAt(u.oid, u.attr, *u.during, std::move(v)));
      } else {
        TCH_RETURN_IF_ERROR(db_->UpdateAttribute(u.oid, u.attr,
                                                 std::move(v)));
      }
      return std::string("ok");
    }
    case Statement::Kind::kMigrate: {
      MigrateStmt& m = *stmt->migrate;
      Database::FieldInits sets;
      for (auto& [name, expr] : m.sets) {
        TCH_ASSIGN_OR_RETURN(Value v, EvalConst(expr.get(), *db_));
        sets.emplace_back(name, std::move(v));
      }
      TCH_RETURN_IF_ERROR(db_->Migrate(m.oid, m.to_class, std::move(sets)));
      return std::string("ok");
    }
    case Statement::Kind::kDelete: {
      TCH_RETURN_IF_ERROR(db_->DeleteObject(stmt->del->oid));
      return std::string("ok");
    }
    case Statement::Kind::kTick: {
      db_->Tick(stmt->tick->steps);
      return "now = " + InstantToString(db_->now());
    }
    case Statement::Kind::kAdvance: {
      TCH_RETURN_IF_ERROR(db_->AdvanceTo(stmt->advance->to));
      return "now = " + InstantToString(db_->now());
    }
    case Statement::Kind::kCheck: {
      Status s = CheckDatabaseConsistency(*db_);
      if (!s.ok()) return s;
      return std::string("consistent");
    }
    case Statement::Kind::kDefineTrigger:
    case Statement::Kind::kDefineConstraint:
      return Status::InvalidArgument(
          "trigger and constraint definitions run through the "
          "ActiveDatabase facade (triggers/trigger.h)");
    default:
      break;  // the read kinds, dispatched above
  }
  return Status::Internal("unhandled statement kind");
}

}  // namespace tchimera
