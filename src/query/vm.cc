#include "query/vm.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/values/temporal_function.h"

namespace tchimera {
namespace {

bool Truthy(const Value& v) { return !v.is_null() && v.AsBool(); }

// One virtual register: a column of per-row values, or a pointer to a
// single value shared by every row (kLoadConst — constants are
// row-independent, so a batch never materializes or even copies them).
// Column storage lives in the Vm's shared arena (one allocation for all
// registers), not per Col.
struct Col {
  bool uniform = false;
  const Value* uval = nullptr;  // into ExecProgram::constants
  Value* vals = nullptr;        // batch_cap slots in the column arena
};

class Vm {
 public:
  // `batch_cap` is the largest batch this run will see (<= kVmBatchSize):
  // small queries should not pay for columns they never fill.
  Vm(const ExecProgram& prog, const Database& db, size_t batch_cap)
      : prog_(prog),
        db_(db),
        now_(db.now()),
        batch_cap_(batch_cap),
        cols_(prog.num_regs),
        arena_(prog.num_regs * batch_cap) {
    for (size_t r = 0; r < cols_.size(); ++r) {
      cols_[r].vals = arena_.data() + r * batch_cap;
    }
    instants_.resize(batch_cap);
    // Sized once so the pool never grows mid-fragment: `cur` references
    // a pool entry while a mask instruction fills the next one, and a
    // reallocation would invalidate it.
    size_t mask_ops = 0;
    for (const Instr& in : prog.code) {
      if (in.op == OpCode::kMaskIfTrue || in.op == OpCode::kMaskIfNotTrue ||
          in.op == OpCode::kMaskIfNotNull) {
        ++mask_ops;
      }
    }
    mask_pool_.resize(mask_ops);
  }

  // Lazily sized: only RunSelect uses the binder column, so WHEN
  // programs never pay for it.
  std::vector<Value>& self() {
    if (self_.size() < batch_cap_) self_.resize(batch_cap_);
    return self_;
  }
  std::vector<TimePoint>& instants() { return instants_; }

  const Value& Get(uint16_t r, uint32_t row) const {
    const Col& c = cols_[r];
    return c.uniform ? *c.uval : c.vals[row];
  }

  // Executes a fragment over the rows in `sel` (ascending). Afterwards
  // Get(frag.result, row) holds the per-row value for every row in sel.
  Status RunFragment(const Fragment& frag, const std::vector<uint32_t>& sel) {
    mask_depth_ = 0;
    for (uint32_t pc = frag.begin; pc < frag.end; ++pc) {
      const Instr& in = prog_.code[pc];
      const std::vector<uint32_t>& cur =
          mask_depth_ == 0 ? sel : mask_pool_[mask_depth_ - 1];
      TCH_RETURN_IF_ERROR(Step(in, cur));
    }
    return Status::OK();
  }

 private:
  Value* Dst(const Instr& in) {
    Col& c = cols_[in.dst];
    c.uniform = false;
    return c.vals;
  }

  Status Step(const Instr& in, const std::vector<uint32_t>& cur) {
    switch (in.op) {
      case OpCode::kLoadConst: {
        Col& c = cols_[in.dst];
        c.uniform = true;
        c.uval = &prog_.constants[in.idx];
        return Status::OK();
      }
      case OpCode::kLoadSelf: {
        Value* out = Dst(in);
        for (uint32_t row : cur) out[row] = self_[row];
        return Status::OK();
      }
      case OpCode::kLoadAttr:
        return StepLoadAttr(in, cur);
      case OpCode::kNot: {
        Value* out = Dst(in);
        for (uint32_t row : cur) out[row] = ApplyNot(Get(in.a, row));
        return Status::OK();
      }
      case OpCode::kNegate: {
        Value* out = Dst(in);
        for (uint32_t row : cur) out[row] = ApplyNegate(Get(in.a, row));
        return Status::OK();
      }
      case OpCode::kBinary: {
        Value* out = Dst(in);
        // Operand columns resolved once per batch: the compiler cannot
        // hoist the cols_ indexing itself (stores through `out` may
        // alias the Col metadata as far as it can prove).
        const Value* const au = cols_[in.a].uniform ? cols_[in.a].uval
                                                    : nullptr;
        const Value* const av = cols_[in.a].vals;
        const Value* const bu = cols_[in.b].uniform ? cols_[in.b].uval
                                                    : nullptr;
        const Value* const bv = cols_[in.b].vals;
        for (uint32_t row : cur) {
          const Value& l = au != nullptr ? *au : av[row];
          const Value& r = bu != nullptr ? *bu : bv[row];
          // Integer/integer is the dominant predicate shape; inline it
          // to skip the kernel's dispatch and Result wrapping per row.
          // Results are identical to ApplyBinaryOp: structural equality
          // on two integers is numeric, Compare on two integers is
          // numeric, and the kernel's arithmetic is the same plain
          // int64 arithmetic. Division stays on the kernel (zero check).
          if (l.kind() == ValueKind::kInteger &&
              r.kind() == ValueKind::kInteger) {
            const int64_t a = l.AsInteger(), b = r.AsInteger();
            switch (in.bop) {
              case BinaryOp::kEq: out[row] = Value::Bool(a == b); continue;
              case BinaryOp::kNeq: out[row] = Value::Bool(a != b); continue;
              case BinaryOp::kLt: out[row] = Value::Bool(a < b); continue;
              case BinaryOp::kLe: out[row] = Value::Bool(a <= b); continue;
              case BinaryOp::kGt: out[row] = Value::Bool(a > b); continue;
              case BinaryOp::kGe: out[row] = Value::Bool(a >= b); continue;
              case BinaryOp::kAdd:
                out[row] = Value::Integer(a + b);
                continue;
              case BinaryOp::kSub:
                out[row] = Value::Integer(a - b);
                continue;
              case BinaryOp::kMul:
                out[row] = Value::Integer(a * b);
                continue;
              default:
                break;
            }
          }
          TCH_ASSIGN_OR_RETURN(out[row], ApplyBinaryOp(in.bop, l, r));
        }
        return Status::OK();
      }
      case OpCode::kCall: {
        Value* out = Dst(in);
        std::vector<Value> argv(in.args.size());
        for (uint32_t row : cur) {
          for (size_t k = 0; k < in.args.size(); ++k) {
            argv[k] = Get(in.args[k], row);
          }
          TCH_ASSIGN_OR_RETURN(
              out[row], ApplyCall(in.call, argv, db_, instants_[row]));
        }
        return Status::OK();
      }
      case OpCode::kMakeSet:
      case OpCode::kMakeList: {
        Value* out = Dst(in);
        for (uint32_t row : cur) {
          std::vector<Value> elems;
          elems.reserve(in.args.size());
          for (uint16_t r : in.args) elems.push_back(Get(r, row));
          out[row] = in.op == OpCode::kMakeSet ? Value::Set(std::move(elems))
                                               : Value::List(std::move(elems));
        }
        return Status::OK();
      }
      case OpCode::kMakeRec: {
        Value* out = Dst(in);
        for (uint32_t row : cur) {
          std::vector<Value::Field> fields;
          fields.reserve(in.args.size());
          for (size_t k = 0; k < in.args.size(); ++k) {
            fields.emplace_back(in.names[k], Get(in.args[k], row));
          }
          TCH_ASSIGN_OR_RETURN(out[row], Value::Record(std::move(fields)));
        }
        return Status::OK();
      }
      case OpCode::kMaskIfTrue:
      case OpCode::kMaskIfNotTrue:
      case OpCode::kMaskIfNotNull: {
        // Selection vectors are pooled by depth and reused across
        // batches and fragments — no allocation on the steady path.
        std::vector<uint32_t>& next = mask_pool_[mask_depth_];
        next.clear();
        next.reserve(cur.size());
        for (uint32_t row : cur) {
          const Value& v = Get(in.a, row);
          bool keep = in.op == OpCode::kMaskIfTrue     ? Truthy(v)
                      : in.op == OpCode::kMaskIfNotTrue ? !Truthy(v)
                                                        : !v.is_null();
          if (keep) next.push_back(row);
        }
        ++mask_depth_;
        return Status::OK();
      }
      case OpCode::kPopMask:
        --mask_depth_;
        return Status::OK();
      case OpCode::kAndMerge: {
        Value* out = Dst(in);
        const Value* const au = cols_[in.a].uniform ? cols_[in.a].uval
                                                    : nullptr;
        const Value* const av = cols_[in.a].vals;
        const Value* const bu = cols_[in.b].uniform ? cols_[in.b].uval
                                                    : nullptr;
        const Value* const bv = cols_[in.b].vals;
        for (uint32_t row : cur) {
          // Reads the rhs only where the lhs was truthy — exactly the
          // rows the mask window evaluated it on.
          out[row] =
              Value::Bool(Truthy(au != nullptr ? *au : av[row]) &&
                          Truthy(bu != nullptr ? *bu : bv[row]));
        }
        return Status::OK();
      }
      case OpCode::kOrMerge: {
        Value* out = Dst(in);
        const Value* const au = cols_[in.a].uniform ? cols_[in.a].uval
                                                    : nullptr;
        const Value* const av = cols_[in.a].vals;
        const Value* const bu = cols_[in.b].uniform ? cols_[in.b].uval
                                                    : nullptr;
        const Value* const bv = cols_[in.b].vals;
        for (uint32_t row : cur) {
          out[row] =
              Value::Bool(Truthy(au != nullptr ? *au : av[row]) ||
                          Truthy(bu != nullptr ? *bu : bv[row]));
        }
        return Status::OK();
      }
      case OpCode::kIndexProbe:
        // An access path (ExecProgram::access), never emitted into code.
        break;
    }
    return Status::Internal("unhandled opcode");
  }

  Status StepLoadAttr(const Instr& in, const std::vector<uint32_t>& cur) {
    const Col& base = cols_[in.a];
    Value* out = Dst(in);
    if (base.uniform) {
      // Constant base object (a literal oid, the WHEN shape): resolve the
      // object and attribute ONCE for the batch, then walk the temporal
      // segments linearly alongside the ascending row instants — a
      // merge-walk instead of a binary search per row.
      if (base.uval->is_null()) {
        for (uint32_t row : cur) out[row] = Value::Null();
        return Status::OK();
      }
      const Object* obj = db_.GetObject(base.uval->AsOid());
      if (obj == nullptr) {
        return Status::NotFound("dangling reference " +
                                base.uval->AsOid().ToString());
      }
      const Value* stored = obj->Attribute(in.attr);
      if (stored == nullptr) {
        for (uint32_t row : cur) out[row] = Value::Null();
        return Status::OK();
      }
      if (stored->kind() != ValueKind::kTemporal) {
        for (uint32_t row : cur) out[row] = *stored;
        return Status::OK();
      }
      if (in.at.has_value()) {
        // Explicit `@ t`: one projection serves the whole batch.
        Value projected = ProjectStoredAttribute(
            *stored, ResolveInstant(*in.at, now_));
        for (uint32_t row : cur) out[row] = projected;
        return Status::OK();
      }
      // Segments are sorted, disjoint, with kNow as +infinity — and the
      // row instants are ascending (boundaries, or one fixed instant), so
      // the segment cursor only ever moves forward. Seed it at the first
      // instant by binary search: a windowed WHEN evaluates a handful of
      // boundaries deep inside a long history, and walking the cursor
      // there linearly would cost O(history) per batch.
      const std::vector<TemporalFunction::Segment>& segs =
          stored->AsTemporal().segments();
      size_t si = 0;
      if (!cur.empty()) {
        const TimePoint t0 = instants_[cur.front()];
        si = static_cast<size_t>(
            std::lower_bound(segs.begin(), segs.end(), t0,
                             [](const TemporalFunction::Segment& seg,
                                TimePoint t) {
                               return seg.interval.end() < t;
                             }) -
            segs.begin());
      }
      for (uint32_t row : cur) {
        TimePoint t = instants_[row];
        while (si < segs.size() && segs[si].interval.end() < t) ++si;
        if (si < segs.size() && segs[si].interval.start() <= t) {
          out[row] = segs[si].value;
        } else {
          out[row] = Value::Null();
        }
      }
      return Status::OK();
    }
    const bool fixed_at = in.at.has_value();
    const TimePoint at_t = fixed_at ? ResolveInstant(*in.at, now_) : 0;
    for (uint32_t row : cur) {
      const Value& b = base.vals[row];
      if (b.is_null()) {
        out[row] = Value::Null();
        continue;
      }
      const Object* obj = db_.GetObject(b.AsOid());
      if (obj == nullptr) {
        return Status::NotFound("dangling reference " + b.AsOid().ToString());
      }
      const Value* stored = obj->Attribute(in.attr);
      if (stored == nullptr) {
        out[row] = Value::Null();
        continue;
      }
      out[row] = ProjectStoredAttribute(*stored,
                                        fixed_at ? at_t : instants_[row]);
    }
    return Status::OK();
  }

  const ExecProgram& prog_;
  const Database& db_;
  const TimePoint now_;
  const size_t batch_cap_;
  std::vector<Col> cols_;
  std::vector<Value> arena_;         // column storage, num_regs x batch_cap
  std::vector<Value> self_;          // select: the row's binder oid (lazy)
  std::vector<TimePoint> instants_;  // per-row evaluation instant (resolved)
  // Selection-vector stack: mask_pool_[0..mask_depth_) are the open mask
  // windows; entries are reused, never reallocated mid-fragment.
  std::vector<std::vector<uint32_t>> mask_pool_;
  size_t mask_depth_ = 0;
};

}  // namespace

Result<std::vector<SelectRow>> RunSelect(const ExecProgram& prog,
                                         const Database& db) {
  const TimePoint now = db.now();
  const TimePoint at =
      prog.at.has_value() ? ResolveInstant(*prog.at, now) : now;
  std::vector<Oid> oids;
  if (prog.access.has_value()) {
    // Index access path: probe the value index for the oids whose
    // indexed attribute satisfies the planned comparison at `at`, then
    // keep only extent members. The probe covers every object with the
    // attribute regardless of class, and ExtentAt lists an extent in
    // ascending oid order — so the filtered, ascending probe output visits
    // exactly the extent rows a scan would keep after its first
    // conjunct, in the same order. The full WHERE still runs below:
    // identical rows, projections, and error behavior by construction.
    const Instr& probe = *prog.access;
    std::vector<Oid> cand =
        db.IndexProbe(probe.names[0], ProbeOpOf(probe.bop),
                      prog.constants[probe.idx], at);
    TCH_ASSIGN_OR_RETURN(const ClassDef* cls, db.FindClass(prog.class_name));
    oids.reserve(cand.size());
    for (Oid oid : cand) {
      if (cls->InExtentAt(oid, at)) oids.push_back(oid);
    }
  } else {
    oids = db.Pi(prog.class_name, at);
  }
  std::vector<SelectRow> out;
  Vm vm(prog, db, std::min(kVmBatchSize, oids.size()));
  std::vector<uint32_t> sel;
  for (size_t batch = 0; batch < oids.size(); batch += kVmBatchSize) {
    const size_t n = std::min(kVmBatchSize, oids.size() - batch);
    for (size_t i = 0; i < n; ++i) {
      vm.self()[i] = Value::OfOid(oids[batch + i]);
      vm.instants()[i] = at;
    }
    sel.resize(n);
    std::iota(sel.begin(), sel.end(), 0);
    if (prog.where.has_value()) {
      TCH_RETURN_IF_ERROR(vm.RunFragment(*prog.where, sel));
      // Compact to the surviving rows: a null predicate counts as false,
      // same as the tree-walker.
      size_t kept = 0;
      for (uint32_t row : sel) {
        if (Truthy(vm.Get(prog.where->result, row))) sel[kept++] = row;
      }
      sel.resize(kept);
    }
    for (const Fragment& frag : prog.projections) {
      TCH_RETURN_IF_ERROR(vm.RunFragment(frag, sel));
    }
    for (uint32_t row : sel) {
      SelectRow r;
      r.oid = oids[batch + row];
      r.columns.reserve(prog.projections.size());
      for (const Fragment& frag : prog.projections) {
        r.columns.push_back(vm.Get(frag.result, row));
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

Result<IntervalSet> RunWhen(const ExecProgram& prog, const Database& db) {
  const TimePoint now = db.now();
  // A `during` window restricts which pieces are evaluated at all (the
  // tree-walker clips identically — see CollectWhenBoundaries); the
  // final intersection below still trims the last piece, which runs to
  // `now` regardless.
  std::optional<Interval> window;
  if (prog.during.has_value()) {
    window = prog.during_normalized ? *prog.during
                                    : prog.during->Resolve(now);
  }
  const std::vector<TimePoint> boundaries = CollectWhenBoundaries(
      prog.when_reqs, db, window.has_value() ? &*window : nullptr);
  IntervalSet held;
  Vm vm(prog, db, std::min(kVmBatchSize, boundaries.size()));
  std::vector<uint32_t> sel;
  for (size_t batch = 0; batch < boundaries.size(); batch += kVmBatchSize) {
    const size_t n = std::min(kVmBatchSize, boundaries.size() - batch);
    for (size_t i = 0; i < n; ++i) vm.instants()[i] = boundaries[batch + i];
    sel.resize(n);
    std::iota(sel.begin(), sel.end(), 0);
    TCH_RETURN_IF_ERROR(vm.RunFragment(prog.condition, sel));
    for (size_t i = 0; i < n; ++i) {
      if (!Truthy(vm.Get(prog.condition.result, static_cast<uint32_t>(i)))) {
        continue;
      }
      const size_t g = batch + i;  // global boundary index
      const TimePoint from = boundaries[g];
      const TimePoint to =
          g + 1 < boundaries.size() ? boundaries[g + 1] - 1 : now;
      held.Add(Interval(from, to));
    }
  }
  if (window.has_value()) {
    held = held.Intersect(IntervalSet::Of(*window));
  }
  return held;
}

}  // namespace tchimera
