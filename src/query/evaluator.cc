#include "query/evaluator.h"

#include <algorithm>
#include <utility>

#include "core/db/equality.h"
#include "core/values/temporal_function.h"

namespace tchimera {

// --- scalar kernels ----------------------------------------------------------

std::optional<CallKind> CallKindOf(std::string_view fn) {
  if (fn == "size") return CallKind::kSize;
  if (fn == "defined") return CallKind::kDefined;
  if (fn == "snapshot") return CallKind::kSnapshot;
  if (fn == "lifespan") return CallKind::kLifespan;
  if (fn == "videntical") return CallKind::kVIdentical;
  if (fn == "vequal") return CallKind::kVEqual;
  if (fn == "vinstant") return CallKind::kVInstant;
  if (fn == "vweak") return CallKind::kVWeak;
  if (fn == "vdeep") return CallKind::kVDeep;
  return std::nullopt;
}

const char* CallKindName(CallKind kind) {
  switch (kind) {
    case CallKind::kSize:
      return "size";
    case CallKind::kDefined:
      return "defined";
    case CallKind::kSnapshot:
      return "snapshot";
    case CallKind::kLifespan:
      return "lifespan";
    case CallKind::kVIdentical:
      return "videntical";
    case CallKind::kVEqual:
      return "vequal";
    case CallKind::kVInstant:
      return "vinstant";
    case CallKind::kVWeak:
      return "vweak";
    case CallKind::kVDeep:
      return "vdeep";
  }
  return "call";
}

Value ApplyNot(const Value& v) {
  if (v.is_null()) return Value::Null();
  return Value::Bool(!v.AsBool());
}

Value ApplyNegate(const Value& v) {
  if (v.is_null()) return Value::Null();
  if (v.kind() == ValueKind::kReal) return Value::Real(-v.AsReal());
  return Value::Integer(-v.AsInteger());
}

Result<Value> ApplyBinaryOp(BinaryOp op, const Value& l, const Value& r) {
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(l == r);
    case BinaryOp::kNeq:
      return Value::Bool(l != r);
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      if (l.is_null() || r.is_null()) return Value::Null();
      int c = Value::Compare(l, r);
      switch (op) {
        case BinaryOp::kLt:
          return Value::Bool(c < 0);
        case BinaryOp::kLe:
          return Value::Bool(c <= 0);
        case BinaryOp::kGt:
          return Value::Bool(c > 0);
        default:
          return Value::Bool(c >= 0);
      }
    }
    case BinaryOp::kIn:
      if (r.is_null()) return Value::Null();
      return Value::Bool(r.Contains(l));
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (l.is_null() || r.is_null()) return Value::Null();
      if (l.kind() == ValueKind::kReal) {
        double a = l.AsReal(), b = r.AsReal();
        switch (op) {
          case BinaryOp::kAdd:
            return Value::Real(a + b);
          case BinaryOp::kSub:
            return Value::Real(a - b);
          case BinaryOp::kMul:
            return Value::Real(a * b);
          default:
            return Value::Real(a / b);
        }
      }
      int64_t a = l.AsInteger(), b = r.AsInteger();
      if (op == BinaryOp::kDiv && b == 0) {
        return Status::InvalidArgument("integer division by zero");
      }
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Integer(a + b);
        case BinaryOp::kSub:
          return Value::Integer(a - b);
        case BinaryOp::kMul:
          return Value::Integer(a * b);
        default:
          return Value::Integer(a / b);
      }
    }
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<Value> ApplyCall(CallKind kind, const std::vector<Value>& args,
                        const Database& db, TimePoint at) {
  switch (kind) {
    case CallKind::kSize: {
      const Value& v = args[0];
      if (v.is_null()) return Value::Null();
      return Value::Integer(static_cast<int64_t>(v.Elements().size()));
    }
    case CallKind::kDefined:
      return Value::Bool(!args[0].is_null());
    case CallKind::kSnapshot: {
      const Value& v = args[0];
      if (v.is_null()) return Value::Null();
      TimePoint t = at;
      if (args.size() == 2) {
        if (args[1].is_null()) return Value::Null();
        t = ResolveInstant(args[1].AsTime(), db.now());
      }
      Result<Value> snap = db.SnapshotOf(v.AsOid(), t);
      // An undefined snapshot (Section 5.3) evaluates to null rather than
      // failing the whole query.
      if (!snap.ok()) return Value::Null();
      return std::move(snap).value();
    }
    case CallKind::kLifespan: {
      const Value& v = args[0];
      if (v.is_null()) return Value::Null();
      TCH_ASSIGN_OR_RETURN(Interval ls, db.OLifespan(v.AsOid()));
      return Value::List({Value::Time(ls.start()), Value::Time(ls.end())});
    }
    case CallKind::kVIdentical:
    case CallKind::kVEqual:
    case CallKind::kVInstant:
    case CallKind::kVWeak:
    case CallKind::kVDeep: {
      const Value& a = args[0];
      const Value& b = args[1];
      if (a.is_null() || b.is_null()) return Value::Null();
      TCH_ASSIGN_OR_RETURN(const Object* oa, db.FindObject(a.AsOid()));
      TCH_ASSIGN_OR_RETURN(const Object* ob, db.FindObject(b.AsOid()));
      switch (kind) {
        case CallKind::kVIdentical:
          return Value::Bool(EqualByIdentity(*oa, *ob));
        case CallKind::kVEqual:
          return Value::Bool(EqualByValue(*oa, *ob));
        case CallKind::kVDeep:
          return Value::Bool(DeepValueEqual(db, *oa, *ob));
        case CallKind::kVInstant:
          return Value::Bool(InstantaneousValueEqual(*oa, *ob, db.now()));
        default:
          return Value::Bool(WeakValueEqual(*oa, *ob, db.now()));
      }
    }
  }
  return Status::Internal("unhandled call kind");
}

Value ProjectStoredAttribute(const Value& stored, TimePoint t) {
  if (stored.kind() != ValueKind::kTemporal) return stored;
  const Value* projected = stored.AsTemporal().At(t);
  return projected == nullptr ? Value::Null() : *projected;
}

namespace {

class Evaluator {
 public:
  Evaluator(const Database& db, const ValueEnv& env, TimePoint at)
      : db_(db), env_(env), at_(ResolveInstant(at, db.now())) {}

  Result<Value> Eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return e.literal;
      case ExprKind::kVar: {
        auto it = env_.find(e.name);
        if (it == env_.end()) {
          return Status::Internal("unbound variable '" + e.name +
                                  "' at evaluation time");
        }
        return Value::OfOid(it->second);
      }
      case ExprKind::kAttrAccess:
        return EvalAttrAccess(e);
      case ExprKind::kNot: {
        TCH_ASSIGN_OR_RETURN(Value v, Eval(*e.base));
        return ApplyNot(v);
      }
      case ExprKind::kNegate: {
        TCH_ASSIGN_OR_RETURN(Value v, Eval(*e.base));
        return ApplyNegate(v);
      }
      case ExprKind::kBinary:
        return EvalBinary(e);
      case ExprKind::kCall:
        return EvalCall(e);
      case ExprKind::kSetCtor:
      case ExprKind::kListCtor: {
        std::vector<Value> elems;
        elems.reserve(e.args.size());
        for (const ExprPtr& a : e.args) {
          TCH_ASSIGN_OR_RETURN(Value v, Eval(*a));
          elems.push_back(std::move(v));
        }
        return e.kind == ExprKind::kSetCtor ? Value::Set(std::move(elems))
                                            : Value::List(std::move(elems));
      }
      case ExprKind::kRecCtor: {
        std::vector<Value::Field> fields;
        for (const auto& [name, fe] : e.rec_fields) {
          TCH_ASSIGN_OR_RETURN(Value v, Eval(*fe));
          fields.emplace_back(name, std::move(v));
        }
        return Value::Record(std::move(fields));
      }
    }
    return Status::Internal("unhandled expression kind");
  }

 private:
  Result<Value> EvalAttrAccess(const Expr& e) {
    TCH_ASSIGN_OR_RETURN(Value base, Eval(*e.base));
    if (base.is_null()) return Value::Null();
    const Object* obj = db_.GetObject(base.AsOid());
    if (obj == nullptr) {
      return Status::NotFound("dangling reference " +
                              base.AsOid().ToString());
    }
    const Value* stored = obj->Attribute(e.name);
    if (stored == nullptr) return Value::Null();
    TimePoint t = e.at.has_value() ? ResolveInstant(*e.at, db_.now()) : at_;
    return ProjectStoredAttribute(*stored, t);
  }

  Result<Value> EvalBinary(const Expr& e) {
    // Short-circuit connectives first.
    if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
      TCH_ASSIGN_OR_RETURN(Value l, Eval(*e.base));
      bool lb = !l.is_null() && l.AsBool();
      if (e.op == BinaryOp::kAnd && !lb) return Value::Bool(false);
      if (e.op == BinaryOp::kOr && lb) return Value::Bool(true);
      TCH_ASSIGN_OR_RETURN(Value r, Eval(*e.rhs));
      return Value::Bool(!r.is_null() && r.AsBool());
    }
    TCH_ASSIGN_OR_RETURN(Value l, Eval(*e.base));
    TCH_ASSIGN_OR_RETURN(Value r, Eval(*e.rhs));
    return ApplyBinaryOp(e.op, l, r);
  }

  Result<Value> EvalCall(const Expr& e) {
    std::optional<CallKind> kind = CallKindOf(e.name);
    if (!kind.has_value()) {
      return Status::Internal("unknown function '" + e.name + "'");
    }
    // snapshot(x, t) evaluates the instant argument only when the object
    // argument is non-null (null short-circuits the whole call).
    std::vector<Value> args;
    args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) {
      if (*kind == CallKind::kSnapshot && args.size() == 1 &&
          args[0].is_null()) {
        return Value::Null();
      }
      TCH_ASSIGN_OR_RETURN(Value v, Eval(*a));
      args.push_back(std::move(v));
    }
    return ApplyCall(*kind, args, db_, at_);
  }

  const Database& db_;
  const ValueEnv& env_;
  TimePoint at_;
};

}  // namespace

Result<Value> EvaluateExpr(const Expr& expr, const Database& db,
                           const ValueEnv& env, TimePoint at) {
  return Evaluator(db, env, at).Eval(expr);
}

namespace {

// Recursively extends `env` with one binder at a time (the cartesian
// product of the binders' extents) and emits rows at the leaves.
Status EnumerateBindings(const SelectStmt& stmt, const Database& db,
                         TimePoint at, size_t binder_index, ValueEnv* env,
                         std::vector<SelectRow>* rows) {
  if (binder_index == stmt.binders.size()) {
    if (stmt.where != nullptr) {
      TCH_ASSIGN_OR_RETURN(Value keep,
                           EvaluateExpr(*stmt.where, db, *env, at));
      if (keep.is_null() || !keep.AsBool()) return Status::OK();
    }
    SelectRow row;
    row.oid = env->find(stmt.binders.front().var)->second;
    for (const ExprPtr& p : stmt.projections) {
      TCH_ASSIGN_OR_RETURN(Value v, EvaluateExpr(*p, db, *env, at));
      row.columns.push_back(std::move(v));
    }
    rows->push_back(std::move(row));
    return Status::OK();
  }
  const SelectBinder& binder = stmt.binders[binder_index];
  for (Oid oid : db.Pi(binder.class_name, at)) {
    auto [it, inserted] = env->insert_or_assign(binder.var, oid);
    (void)it;
    (void)inserted;
    TCH_RETURN_IF_ERROR(
        EnumerateBindings(stmt, db, at, binder_index + 1, env, rows));
  }
  env->erase(binder.var);
  return Status::OK();
}

}  // namespace

namespace {

// One requirement accumulator per oid (all_attrs wins over any list).
using ReqMap = std::map<Oid, WhenBoundaryReq>;

WhenBoundaryReq& ReqFor(Oid oid, ReqMap* reqs) {
  auto [it, inserted] = reqs->try_emplace(oid);
  if (inserted) it->second.oid = oid;
  return it->second;
}

void MentionLiteralOids(const Value& literal, ReqMap* reqs) {
  std::vector<Oid> oids;
  literal.CollectOids(&oids);
  for (Oid oid : oids) ReqFor(oid, reqs);
}

// True when the call reads the whole object state of its oid arguments,
// so any attribute change can flip the condition.
bool CallReadsWholeState(CallKind kind) {
  switch (kind) {
    case CallKind::kSnapshot:
    case CallKind::kVIdentical:
    case CallKind::kVEqual:
    case CallKind::kVInstant:
    case CallKind::kVWeak:
    case CallKind::kVDeep:
      return true;
    default:
      return false;
  }
}

void WalkForReqs(const Expr& e, ReqMap* reqs) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      // A bare oid mention: the oid value itself is constant over time, so
      // only the object's lifespan edges matter (always contributed).
      MentionLiteralOids(e.literal, reqs);
      return;
    case ExprKind::kAttrAccess:
      if (e.base->kind == ExprKind::kLiteral &&
          e.base->literal.kind() == ValueKind::kOid) {
        // The condition reads exactly this attribute of this object.
        WhenBoundaryReq& req = ReqFor(e.base->literal.AsOid(), reqs);
        if (!req.all_attrs) req.attrs.push_back(e.name);
        return;
      }
      WalkForReqs(*e.base, reqs);
      return;
    case ExprKind::kCall: {
      std::optional<CallKind> kind = CallKindOf(e.name);
      const bool whole_state = kind.has_value() && CallReadsWholeState(*kind);
      for (const ExprPtr& a : e.args) {
        if (whole_state && a->kind == ExprKind::kLiteral &&
            a->literal.kind() == ValueKind::kOid) {
          ReqFor(a->literal.AsOid(), reqs).all_attrs = true;
          continue;
        }
        WalkForReqs(*a, reqs);
      }
      return;
    }
    default:
      break;
  }
  if (e.base != nullptr) WalkForReqs(*e.base, reqs);
  if (e.rhs != nullptr) WalkForReqs(*e.rhs, reqs);
  for (const ExprPtr& a : e.args) WalkForReqs(*a, reqs);
  for (const auto& [unused, fe] : e.rec_fields) WalkForReqs(*fe, reqs);
}

}  // namespace

std::vector<WhenBoundaryReq> CollectWhenBoundaryReqs(const Expr& condition) {
  ReqMap reqs;
  WalkForReqs(condition, &reqs);
  std::vector<WhenBoundaryReq> out;
  out.reserve(reqs.size());
  for (auto& [oid, req] : reqs) {
    std::sort(req.attrs.begin(), req.attrs.end());
    req.attrs.erase(std::unique(req.attrs.begin(), req.attrs.end()),
                    req.attrs.end());
    if (req.all_attrs) req.attrs.clear();
    out.push_back(std::move(req));
  }
  return out;
}

std::vector<TimePoint> CollectWhenBoundaries(
    const std::vector<WhenBoundaryReq>& reqs, const Database& db,
    const Interval* window) {
  const TimePoint now = db.now();
  // The evaluated range [lo, hi]: all of [0, now], or its intersection
  // with the (resolved) `during` window. An empty range means the
  // condition is never evaluated at all — identical on the VM and
  // tree-walker paths, so window-excluded errors fire on neither.
  TimePoint lo = 0;
  TimePoint hi = now;
  if (window != nullptr) {
    if (window->empty()) return {};
    lo = std::max<TimePoint>(window->start(), 0);
    hi = std::min(window->end(), now);
    if (lo > hi) return {};
  }
  std::vector<TimePoint> boundaries = {lo};
  auto add = [&boundaries, lo, hi](TimePoint t) {
    if (t >= lo && t <= hi) boundaries.push_back(t);
  };
  // A segment contributes its start and, when closed, end + 1. The later
  // of those never decreases along the history (disjoint segments in time
  // order: a closed segment's end + 1 is at most the next start), so a
  // binary search finds the first segment reaching `lo`, and the walk
  // stops at the first start past `hi` — O(log H + k), not O(H).
  auto add_segments = [&add, lo, hi](const Value& stored) {
    if (stored.kind() != ValueKind::kTemporal) return;
    const auto& segments = stored.AsTemporal().segments();
    auto it = std::partition_point(
        segments.begin(), segments.end(), [lo](const auto& seg) {
          return (seg.interval.is_ongoing() ? seg.interval.start()
                                            : seg.interval.end() + 1) < lo;
        });
    for (; it != segments.end() && it->interval.start() <= hi; ++it) {
      add(it->interval.start());
      if (!it->interval.is_ongoing()) add(it->interval.end() + 1);
    }
  };
  for (const WhenBoundaryReq& req : reqs) {
    const Object* obj = db.GetObject(req.oid);
    if (obj == nullptr) continue;
    add(obj->lifespan().start());
    if (!obj->lifespan().is_ongoing()) add(obj->lifespan().end() + 1);
    if (req.all_attrs) {
      for (const std::string& name : obj->AttributeNames()) {
        add_segments(*obj->Attribute(name));
      }
      continue;
    }
    for (const std::string& name : req.attrs) {
      const Value* stored = obj->Attribute(name);
      if (stored != nullptr) add_segments(*stored);
    }
  }
  // The dominant shape (one object, one attribute) emits boundaries in
  // ascending order already — temporal segments are stored sorted and
  // each segment contributes start <= end+1 <= next start. Sorting an
  // already-sorted vector still pays the full comparison bill, and this
  // runs once per WHEN execution, so skip it when possible.
  if (!std::is_sorted(boundaries.begin(), boundaries.end())) {
    std::sort(boundaries.begin(), boundaries.end());
  }
  // Sorted does NOT imply unique here: the carry-in `lo` duplicates the
  // first boundary whenever a segment edge lands exactly on the window
  // start (and distinct attributes can share edges). A duplicate
  // boundary would emit a degenerate [b, b-1] piece, so the dedup must
  // run even when the fast path above skipped the sort.
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  return boundaries;
}

Result<IntervalSet> EvaluateWhen(const Expr& condition, const Database& db,
                                 const Interval* window) {
  // Boundaries at which the condition can change truth value — computed
  // once, sorted and deduplicated, restricted to the attribute histories
  // the condition actually reads (see CollectWhenBoundaryReqs) and to
  // the `during` window when one is present.
  std::vector<TimePoint> boundaries = CollectWhenBoundaries(
      CollectWhenBoundaryReqs(condition), db, window);
  const TimePoint now = db.now();
  const ValueEnv empty;  // the condition is closed; hoisted out of the loop
  IntervalSet held;
  for (size_t i = 0; i < boundaries.size(); ++i) {
    TimePoint from = boundaries[i];
    TimePoint to = i + 1 < boundaries.size() ? boundaries[i + 1] - 1 : now;
    TCH_ASSIGN_OR_RETURN(Value v,
                         EvaluateExpr(condition, db, empty, from));
    if (!v.is_null() && v.AsBool()) held.Add(Interval(from, to));
  }
  return held;
}

Result<std::vector<SelectRow>> EvaluateSelect(const SelectStmt& stmt,
                                              const Database& db) {
  if (stmt.binders.empty()) {
    return Status::InvalidArgument("SELECT has no FROM binder");
  }
  TimePoint at =
      stmt.at.has_value() ? ResolveInstant(*stmt.at, db.now()) : db.now();
  std::vector<SelectRow> rows;
  ValueEnv env;
  TCH_RETURN_IF_ERROR(EnumerateBindings(stmt, db, at, 0, &env, &rows));
  return rows;
}

}  // namespace tchimera
