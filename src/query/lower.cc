#include "query/lower.h"

#include <limits>
#include <utility>

#include "core/temporal/instant.h"
#include "core/types/type.h"
#include "query/type_checker.h"

namespace tchimera {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst:
      return "const";
    case OpCode::kLoadSelf:
      return "self";
    case OpCode::kLoadAttr:
      return "attr";
    case OpCode::kNot:
      return "not";
    case OpCode::kNegate:
      return "neg";
    case OpCode::kBinary:
      return "binary";
    case OpCode::kCall:
      return "call";
    case OpCode::kMakeSet:
      return "make-set";
    case OpCode::kMakeList:
      return "make-list";
    case OpCode::kMakeRec:
      return "make-rec";
    case OpCode::kMaskIfTrue:
      return "mask-if-true";
    case OpCode::kMaskIfNotTrue:
      return "mask-if-not-true";
    case OpCode::kMaskIfNotNull:
      return "mask-if-not-null";
    case OpCode::kPopMask:
      return "pop-mask";
    case OpCode::kAndMerge:
      return "and-merge";
    case OpCode::kOrMerge:
      return "or-merge";
    case OpCode::kIndexProbe:
      return "index-probe";
  }
  return "?";
}

ProbeOp ProbeOpOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return ProbeOp::kLt;
    case BinaryOp::kLe:
      return ProbeOp::kLe;
    case BinaryOp::kGt:
      return ProbeOp::kGt;
    case BinaryOp::kGe:
      return ProbeOp::kGe;
    default:
      return ProbeOp::kEq;
  }
}

namespace {

bool Truthy(const Value& v) { return !v.is_null() && v.AsBool(); }

// A lowering failure that means "use the tree-walker", as opposed to a
// genuine statement error (type errors propagate unchanged). Never
// escapes this file: LowerSelect/LowerWhen convert it into a
// LowerOutcome fallback reason.
Status Fallback(std::string reason) {
  return Status::FailedPrecondition(std::move(reason));
}

// The value of a lowered subexpression: either a compile-time constant
// (folded) or a register holding the per-row value.
struct Operand {
  bool is_const = false;
  Value cv;          // is_const
  uint16_t reg = 0;  // !is_const

  static Operand Const(Value v) {
    Operand o;
    o.is_const = true;
    o.cv = std::move(v);
    return o;
  }
  static Operand Reg(uint16_t r) {
    Operand o;
    o.reg = r;
    return o;
  }
};

class Lowerer {
 public:
  Lowerer(ExecProgram* prog, const Database& db, std::string binder)
      : prog_(prog), db_(db), binder_(std::move(binder)) {}

  // Lowers `e` into a fragment whose per-row value lands in the returned
  // fragment's `result` register.
  // `self_reg_` and `attr_cse_` deliberately persist across fragments:
  // a projection reuses the self column and depth-0 attribute loads the
  // WHERE fragment already computed — later fragments run over a subset
  // of the rows earlier fragments wrote (WHERE compacts the selection).
  Result<Fragment> LowerFragment(const Expr& e) {
    Fragment frag;
    frag.begin = static_cast<uint32_t>(prog_->code.size());
    TCH_ASSIGN_OR_RETURN(Operand op, LowerExpr(e));
    TCH_ASSIGN_OR_RETURN(frag.result, Materialize(op));
    frag.end = static_cast<uint32_t>(prog_->code.size());
    return frag;
  }

 private:
  Result<uint16_t> NewReg() {
    if (prog_->num_regs == std::numeric_limits<uint16_t>::max()) {
      return Fallback("expression too large to compile (register overflow)");
    }
    return prog_->num_regs++;
  }

  uint32_t AddConst(Value v) {
    prog_->constants.push_back(std::move(v));
    return static_cast<uint32_t>(prog_->constants.size() - 1);
  }

  Instr& Emit(OpCode op) {
    prog_->code.emplace_back();
    prog_->code.back().op = op;
    return prog_->code.back();
  }

  Result<uint16_t> Materialize(const Operand& o) {
    if (!o.is_const) return o.reg;
    TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    Instr& i = Emit(OpCode::kLoadConst);
    i.dst = dst;
    i.idx = AddConst(o.cv);
    return dst;
  }

  Result<Operand> LowerExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return Operand::Const(e.literal);
      case ExprKind::kVar: {
        if (binder_.empty() || e.name != binder_) {
          return Fallback("free variable '" + e.name +
                          "' (only the single FROM binder compiles)");
        }
        if (!self_reg_.has_value()) {
          TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
          Emit(OpCode::kLoadSelf).dst = dst;
          self_reg_ = dst;
        }
        return Operand::Reg(*self_reg_);
      }
      case ExprKind::kAttrAccess: {
        TCH_ASSIGN_OR_RETURN(Operand base, LowerExpr(*e.base));
        // Common subexpression elimination for attribute loads: the big
        // repeated term in real predicates (`x.salary > a and x.salary <
        // b`) is the attribute access, and each load is a per-row
        // temporal lookup. A load emitted at mask depth 0 was computed
        // for every row any later occurrence could run on (deeper mask
        // windows select subsets), and re-reading the same attribute of
        // the same base at the same instant within one statement is
        // deterministic, so any later occurrence can reuse its register.
        for (const AttrCse& c : attr_cse_) {
          if (c.attr == e.name && c.at == e.at &&
              c.const_base == base.is_const &&
              (base.is_const ? c.base_cv == base.cv
                             : c.base_reg == base.reg)) {
            return Operand::Reg(c.reg);
          }
        }
        TCH_ASSIGN_OR_RETURN(uint16_t a, Materialize(base));
        TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
        Instr& i = Emit(OpCode::kLoadAttr);
        i.dst = dst;
        i.a = a;
        i.attr = e.name;
        i.at = e.at;  // unresolved: the VM substitutes the clock
        if (mask_depth_ == 0) {
          attr_cse_.push_back(AttrCse{base.is_const,
                                      base.is_const ? base.cv : Value(),
                                      base.is_const ? uint16_t{0} : base.reg,
                                      e.name, e.at, dst});
        }
        return Operand::Reg(dst);
      }
      case ExprKind::kNot: {
        TCH_ASSIGN_OR_RETURN(Operand v, LowerExpr(*e.base));
        if (v.is_const) return Operand::Const(ApplyNot(v.cv));
        TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
        Instr& i = Emit(OpCode::kNot);
        i.dst = dst;
        i.a = v.reg;
        return Operand::Reg(dst);
      }
      case ExprKind::kNegate: {
        TCH_ASSIGN_OR_RETURN(Operand v, LowerExpr(*e.base));
        if (v.is_const) return Operand::Const(ApplyNegate(v.cv));
        TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
        Instr& i = Emit(OpCode::kNegate);
        i.dst = dst;
        i.a = v.reg;
        return Operand::Reg(dst);
      }
      case ExprKind::kBinary:
        return LowerBinary(e);
      case ExprKind::kCall:
        return LowerCall(e);
      case ExprKind::kSetCtor:
      case ExprKind::kListCtor:
        return LowerCtor(e);
      case ExprKind::kRecCtor:
        return LowerRecCtor(e);
    }
    return Fallback("unknown expression kind");
  }

  Result<Operand> LowerBinary(const Expr& e) {
    if (e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr) {
      return LowerConnective(e);
    }
    TCH_ASSIGN_OR_RETURN(Operand l, LowerExpr(*e.base));
    TCH_ASSIGN_OR_RETURN(Operand r, LowerExpr(*e.rhs));
    if (l.is_const && r.is_const) {
      Result<Value> folded = ApplyBinaryOp(e.op, l.cv, r.cv);
      // A pure subtree that would error (1/0) is not folded: the error
      // must fire only when a row actually evaluates it.
      if (folded.ok()) return Operand::Const(std::move(folded).value());
    }
    TCH_ASSIGN_OR_RETURN(uint16_t a, Materialize(l));
    TCH_ASSIGN_OR_RETURN(uint16_t b, Materialize(r));
    TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    Instr& i = Emit(OpCode::kBinary);
    i.dst = dst;
    i.a = a;
    i.b = b;
    i.bop = e.op;
    return Operand::Reg(dst);
  }

  // and/or: the right operand is evaluated only over the rows the
  // tree-walker would evaluate it on (lhs truthy for AND, lhs not truthy
  // for OR) — a mask window — then merged back with null-absorbing
  // two-valued semantics.
  Result<Operand> LowerConnective(const Expr& e) {
    const bool is_and = e.op == BinaryOp::kAnd;
    TCH_ASSIGN_OR_RETURN(Operand l, LowerExpr(*e.base));
    if (l.is_const) {
      bool lb = Truthy(l.cv);
      // The decided side never evaluates the rhs at all.
      if (is_and && !lb) return Operand::Const(Value::Bool(false));
      if (!is_and && lb) return Operand::Const(Value::Bool(true));
      TCH_ASSIGN_OR_RETURN(Operand r, LowerExpr(*e.rhs));
      if (r.is_const) return Operand::Const(Value::Bool(Truthy(r.cv)));
      TCH_ASSIGN_OR_RETURN(uint16_t a, Materialize(l));
      TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
      Instr& m = Emit(is_and ? OpCode::kAndMerge : OpCode::kOrMerge);
      m.dst = dst;
      m.a = a;
      m.b = r.reg;
      return Operand::Reg(dst);
    }
    uint16_t a = l.reg;
    Emit(is_and ? OpCode::kMaskIfTrue : OpCode::kMaskIfNotTrue).a = a;
    ++mask_depth_;
    TCH_ASSIGN_OR_RETURN(Operand r, LowerExpr(*e.rhs));
    TCH_ASSIGN_OR_RETURN(uint16_t b, Materialize(r));
    --mask_depth_;
    Emit(OpCode::kPopMask);
    TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    Instr& m = Emit(is_and ? OpCode::kAndMerge : OpCode::kOrMerge);
    m.dst = dst;
    m.a = a;
    m.b = b;
    return Operand::Reg(dst);
  }

  Result<Operand> LowerCall(const Expr& e) {
    std::optional<CallKind> kind = CallKindOf(e.name);
    if (!kind.has_value()) {
      return Fallback("unknown function '" + e.name + "'");
    }
    // size/defined are pure over their argument value: foldable.
    const bool pure = *kind == CallKind::kSize || *kind == CallKind::kDefined;
    std::vector<Operand> args;
    args.reserve(e.args.size());
    const bool lazy_second = *kind == CallKind::kSnapshot &&
                             e.args.size() == 2;
    bool masked = false;
    for (const ExprPtr& a : e.args) {
      if (lazy_second && args.size() == 1) {
        // snapshot(x, t): t is evaluated only where x is non-null.
        if (args[0].is_const) {
          if (args[0].cv.is_null()) return Operand::Const(Value::Null());
        } else {
          Emit(OpCode::kMaskIfNotNull).a = args[0].reg;
          ++mask_depth_;
          masked = true;
        }
      }
      TCH_ASSIGN_OR_RETURN(Operand v, LowerExpr(*a));
      args.push_back(std::move(v));
    }
    if (masked) {
      --mask_depth_;
      Emit(OpCode::kPopMask);
    }
    bool all_const = true;
    for (const Operand& a : args) all_const &= a.is_const;
    if (pure && all_const) {
      std::vector<Value> vals;
      vals.reserve(args.size());
      for (const Operand& a : args) vals.push_back(a.cv);
      Result<Value> folded = ApplyCall(*kind, vals, db_, db_.now());
      if (folded.ok()) return Operand::Const(std::move(folded).value());
    }
    TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    std::vector<uint16_t> regs;
    regs.reserve(args.size());
    for (const Operand& a : args) {
      TCH_ASSIGN_OR_RETURN(uint16_t r, Materialize(a));
      regs.push_back(r);
    }
    Instr& i = Emit(OpCode::kCall);
    i.dst = dst;
    i.call = *kind;
    i.args = std::move(regs);
    return Operand::Reg(dst);
  }

  Result<Operand> LowerCtor(const Expr& e) {
    std::vector<Operand> elems;
    elems.reserve(e.args.size());
    bool all_const = true;
    for (const ExprPtr& a : e.args) {
      TCH_ASSIGN_OR_RETURN(Operand v, LowerExpr(*a));
      all_const &= v.is_const;
      elems.push_back(std::move(v));
    }
    if (all_const) {
      std::vector<Value> vals;
      vals.reserve(elems.size());
      for (Operand& v : elems) vals.push_back(std::move(v.cv));
      return Operand::Const(e.kind == ExprKind::kSetCtor
                                ? Value::Set(std::move(vals))
                                : Value::List(std::move(vals)));
    }
    std::vector<uint16_t> regs;
    regs.reserve(elems.size());
    for (const Operand& v : elems) {
      TCH_ASSIGN_OR_RETURN(uint16_t r, Materialize(v));
      regs.push_back(r);
    }
    TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    Instr& i = Emit(e.kind == ExprKind::kSetCtor ? OpCode::kMakeSet
                                                 : OpCode::kMakeList);
    i.dst = dst;
    i.args = std::move(regs);
    return Operand::Reg(dst);
  }

  Result<Operand> LowerRecCtor(const Expr& e) {
    std::vector<Operand> fields;
    fields.reserve(e.rec_fields.size());
    bool all_const = true;
    for (const auto& [name, fe] : e.rec_fields) {
      TCH_ASSIGN_OR_RETURN(Operand v, LowerExpr(*fe));
      all_const &= v.is_const;
      fields.push_back(std::move(v));
    }
    if (all_const) {
      std::vector<Value::Field> vals;
      vals.reserve(fields.size());
      for (size_t i = 0; i < fields.size(); ++i) {
        vals.emplace_back(e.rec_fields[i].first, fields[i].cv);
      }
      Result<Value> rec = Value::Record(std::move(vals));
      // A record that fails to build (duplicate field) errors at
      // evaluation time, like every other non-foldable failure.
      if (rec.ok()) return Operand::Const(std::move(rec).value());
    }
    std::vector<uint16_t> regs;
    std::vector<std::string> names;
    regs.reserve(fields.size());
    names.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      TCH_ASSIGN_OR_RETURN(uint16_t r, Materialize(fields[i]));
      regs.push_back(r);
      names.push_back(e.rec_fields[i].first);
    }
    TCH_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    Instr& i = Emit(OpCode::kMakeRec);
    i.dst = dst;
    i.args = std::move(regs);
    i.names = std::move(names);
    return Operand::Reg(dst);
  }

  // A depth-0 attribute load available for reuse: the base is either a
  // folded constant (compared by value — the literal-oid WHEN shape) or
  // a register (the memoized self).
  struct AttrCse {
    bool const_base;
    Value base_cv;
    uint16_t base_reg;
    std::string attr;
    std::optional<TimePoint> at;
    uint16_t reg;
  };

  ExecProgram* prog_;
  const Database& db_;
  std::string binder_;
  std::optional<uint16_t> self_reg_;  // memoized kLoadSelf
  std::vector<AttrCse> attr_cse_;
  int mask_depth_ = 0;  // open mask windows at the emission point
};

// Calls `f(reg&)` for every register the instruction READS (dst excluded).
template <typename F>
void ForEachReadReg(Instr& in, F&& f) {
  switch (in.op) {
    case OpCode::kLoadConst:
    case OpCode::kLoadSelf:
    case OpCode::kPopMask:
    case OpCode::kIndexProbe:  // access path only, never in code
      break;
    case OpCode::kLoadAttr:
    case OpCode::kNot:
    case OpCode::kNegate:
    case OpCode::kMaskIfTrue:
    case OpCode::kMaskIfNotTrue:
    case OpCode::kMaskIfNotNull:
      f(in.a);
      break;
    case OpCode::kBinary:
    case OpCode::kAndMerge:
    case OpCode::kOrMerge:
      f(in.a);
      f(in.b);
      break;
    case OpCode::kCall:
    case OpCode::kMakeSet:
    case OpCode::kMakeList:
    case OpCode::kMakeRec:
      for (uint16_t& r : in.args) f(r);
      break;
  }
}

bool WritesDst(const Instr& in) {
  switch (in.op) {
    case OpCode::kMaskIfTrue:
    case OpCode::kMaskIfNotTrue:
    case OpCode::kMaskIfNotNull:
    case OpCode::kPopMask:
      return false;
    default:
      return true;
  }
}

// Register recycling. Lowering allocates a fresh register per temporary,
// which keeps the emitter simple but makes the VM's per-batch working set
// proportional to expression size: every register is a column of
// batch x sizeof(Value) bytes, so a moderately compound predicate spills
// the hot loop out of cache. The program is straight-line and each
// register is written exactly once before its reads, so a single linear
// scan can reassign every temporary to a dead register: free a register
// after the instruction holding its last read, and serve new destinations
// from the free stack (most recently freed first — it is the hottest in
// cache). Fragment results are pinned and never recycled: the driver
// reads them after the fragment has finished executing, and a later
// fragment (a projection after the where clause) must not clobber them.
//
// Reuse across a mask boundary is safe: a recycled column can hold stale
// values for rows outside the window that last wrote it, but the VM only
// reads a register on rows the tree-walker would have evaluated it on
// (merges short-circuit before touching the rhs column), which is exactly
// the set of rows the producing instruction wrote.
void RecycleRegisters(ExecProgram* prog) {
  if (prog->num_regs == 0 || prog->code.empty()) return;
  constexpr uint16_t kNone = std::numeric_limits<uint16_t>::max();
  std::vector<bool> pinned(prog->num_regs, false);
  if (prog->where.has_value()) pinned[prog->where->result] = true;
  for (const Fragment& f : prog->projections) pinned[f.result] = true;
  // A WHEN program (selects carry a class extent instead).
  if (prog->class_name.empty()) pinned[prog->condition.result] = true;

  // Index (+1, so 0 means "never read") of each register's last read.
  std::vector<uint32_t> last_read(prog->num_regs, 0);
  for (uint32_t idx = 0; idx < prog->code.size(); ++idx) {
    ForEachReadReg(prog->code[idx],
                   [&](uint16_t& r) { last_read[r] = idx + 1; });
  }

  std::vector<uint16_t> map(prog->num_regs, kNone);
  std::vector<bool> freed(prog->num_regs, false);
  std::vector<uint16_t> free_regs;
  uint16_t next = 0;
  auto alloc = [&]() -> uint16_t {
    if (!free_regs.empty()) {
      uint16_t r = free_regs.back();
      free_regs.pop_back();
      return r;
    }
    return next++;
  };
  std::vector<uint16_t> dying;
  for (uint32_t idx = 0; idx < prog->code.size(); ++idx) {
    Instr& in = prog->code[idx];
    dying.clear();
    ForEachReadReg(in, [&](uint16_t& r) {
      const uint16_t old = r;
      // Write-before-read is a lowering invariant; allocate defensively
      // so a violation degrades to "no reuse" instead of aliasing.
      if (map[old] == kNone) map[old] = alloc();
      r = map[old];
      if (last_read[old] == idx + 1 && !pinned[old]) dying.push_back(old);
    });
    if (WritesDst(in)) {
      const uint16_t old = in.dst;
      if (map[old] == kNone) map[old] = alloc();
      in.dst = map[old];
    }
    // Freed only after the destination is placed: an instruction's dst
    // must never alias a register it reads (Dst() clears the uniform
    // flag before the operands are fetched).
    for (uint16_t old : dying) {
      if (!freed[old]) {
        freed[old] = true;
        free_regs.push_back(map[old]);
      }
    }
  }
  auto remap_result = [&](Fragment* f) {
    if (map[f->result] != kNone) f->result = map[f->result];
  };
  if (prog->where.has_value()) remap_result(&*prog->where);
  for (Fragment& f : prog->projections) remap_result(&f);
  if (prog->class_name.empty()) remap_result(&prog->condition);
  prog->num_regs = next;
}

// --- cost-based access-path planning -----------------------------------------

// True for the comparisons a value-index probe can serve (ProbeOpOf).
// kNeq is excluded on semantics, not cost: postings exist only where the
// attribute is defined, so a probe for "everything except v" would also
// have to produce rows whose attribute is null — which the kernel
// comparison `<>` treats as a match (structural compare), while an
// undefined attribute yields null = no row. The scan handles it.
bool IsIndexableOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

// Rewrites `literal op attr` as `attr op' literal`; false when op is not
// an indexable comparison.
bool FlipComparison(BinaryOp* op) {
  switch (*op) {
    case BinaryOp::kEq:
      return true;
    case BinaryOp::kLt:
      *op = BinaryOp::kGt;
      return true;
    case BinaryOp::kLe:
      *op = BinaryOp::kGe;
      return true;
    case BinaryOp::kGt:
      *op = BinaryOp::kLt;
      return true;
    case BinaryOp::kGe:
      *op = BinaryOp::kLe;
      return true;
    default:
      return false;
  }
}

// The leftmost leaf of the top-level AND spine: the first predicate the
// scan path evaluates on every row. Only this leaf may drive an index
// probe — conjuncts are short-circuited left to right, so every row the
// probe excludes is a row whose scan evaluation already stopped at this
// (error-free) comparison; probing on a later conjunct could skip a row
// on which an earlier conjunct would have raised an error (e.g. 1/0).
const Expr* LeftmostConjunct(const Expr& where) {
  const Expr* e = &where;
  while (e->kind == ExprKind::kBinary && e->op == BinaryOp::kAnd) {
    e = e->base.get();
  }
  return e;
}

struct IndexableLeaf {
  std::string attr;
  BinaryOp op = BinaryOp::kEq;
  const Value* bound = nullptr;
};

// Matches `x.attr <cmp> literal` (either orientation): the binder's
// attribute, no explicit `@ t` (the probe runs at the query instant),
// compared against a non-null literal. A null bound is refused because
// `= null` must also match objects that lack the attribute entirely —
// those carry no posting, so only the scan sees them.
bool MatchIndexableLeaf(const Expr& leaf, const std::string& binder,
                        IndexableLeaf* out) {
  if (leaf.kind != ExprKind::kBinary) return false;
  auto is_attr = [&binder](const Expr* e) {
    return e->kind == ExprKind::kAttrAccess && !e->at.has_value() &&
           e->base != nullptr && e->base->kind == ExprKind::kVar &&
           e->base->name == binder;
  };
  const Expr* attr = leaf.base.get();
  const Expr* lit = leaf.rhs.get();
  BinaryOp op = leaf.op;
  if (is_attr(attr) && lit->kind == ExprKind::kLiteral) {
    if (!IsIndexableOp(op)) return false;
  } else if (attr->kind == ExprKind::kLiteral && is_attr(lit)) {
    std::swap(attr, lit);
    if (!FlipComparison(&op)) return false;
  } else {
    return false;
  }
  if (lit->literal.is_null()) return false;
  out->attr = attr->name;
  out->op = op;
  out->bound = &lit->literal;
  return true;
}

// Chooses index-vs-scan for a lowered select and records the decision
// (either way) for `explain`. The probe is sound for ANY matched leaf —
// it returns exactly the extent rows on which the leaf is truthy — so
// this is purely a cost call: probe + per-candidate extent check beats a
// scan only when the extent is large and the posting range is selective.
// Estimates are plan-time stats: the extent cardinality at the query
// instant and the matching posting count (all validity intervals, so a
// long history inflates it — a deliberately conservative bias toward the
// scan). Data changes can stale them until the plan is recompiled; index
// DDL cannot, because it bumps schema_version and evicts the plan.
void PlanAccessPath(const SelectStmt& s, const Database& db,
                    ExecProgram* prog) {
  if (s.where == nullptr) {
    prog->access_note = "no where clause";
    return;
  }
  IndexableLeaf leaf;
  if (!MatchIndexableLeaf(*LeftmostConjunct(*s.where), prog->binder,
                          &leaf)) {
    prog->access_note = "leftmost conjunct is not an indexable comparison";
    return;
  }
  const IndexDef* def = db.FindValueIndex(leaf.attr);
  if (def == nullptr) {
    prog->access_note = "no value index on '" + leaf.attr + "'";
    return;
  }
  const TimePoint at =
      s.at.has_value() ? ResolveInstant(*s.at, db.now()) : db.now();
  prog->est_extent_rows = db.Pi(prog->class_name, at).size();
  prog->est_index_rows =
      db.IndexProbeEstimate(def->name, ProbeOpOf(leaf.op), *leaf.bound);
  // Below this, the per-candidate extent-membership checks and the probe
  // setup cost roughly what the scan's first comparison column costs.
  constexpr size_t kMinExtentRows = 64;
  if (prog->est_extent_rows < kMinExtentRows) {
    prog->access_note = "extent too small (" +
                        std::to_string(prog->est_extent_rows) +
                        " rows) to beat a scan";
    return;
  }
  if (prog->est_index_rows * 2 >= prog->est_extent_rows) {
    prog->access_note = "probe not selective (" +
                        std::to_string(prog->est_index_rows) +
                        " postings vs " +
                        std::to_string(prog->est_extent_rows) +
                        " extent rows)";
    return;
  }
  Instr probe;
  probe.op = OpCode::kIndexProbe;
  probe.attr = leaf.attr;
  probe.names = {def->name};
  probe.bop = leaf.op;
  prog->constants.push_back(*leaf.bound);
  probe.idx = static_cast<uint32_t>(prog->constants.size() - 1);
  prog->access = std::move(probe);
  prog->access_note = "leftmost conjunct via index " + def->name;
}

Result<LowerOutcome> LowerSelect(SelectStmt* s, const Database& db) {
  // Identical checking (and error messages) to the interpreter path.
  TCH_RETURN_IF_ERROR(TypeCheckSelect(s, db).status());
  if (s->binders.size() != 1) {
    return LowerOutcome{std::nullopt,
                        "multi-binder select (cartesian product) is "
                        "tree-walked"};
  }
  LoweredPlan plan;
  plan.kind = LoweredPlan::Kind::kSelect;
  ExecProgram& prog = plan.program;
  prog.binder = s->binders[0].var;
  prog.class_name = s->binders[0].class_name;
  prog.at = s->at;
  Lowerer lowerer(&prog, db, prog.binder);
  if (s->where != nullptr) {
    Result<Fragment> frag = lowerer.LowerFragment(*s->where);
    if (!frag.ok()) {
      return LowerOutcome{std::nullopt, frag.status().message()};
    }
    prog.where = std::move(frag).value();
  }
  for (const ExprPtr& p : s->projections) {
    Result<Fragment> frag = lowerer.LowerFragment(*p);
    if (!frag.ok()) {
      return LowerOutcome{std::nullopt, frag.status().message()};
    }
    prog.projections.push_back(std::move(frag).value());
  }
  PlanAccessPath(*s, db, &prog);
  RecycleRegisters(&prog);
  return LowerOutcome{std::move(plan), ""};
}

Result<LowerOutcome> LowerWhen(WhenStmt* w, const Database& db) {
  TCH_ASSIGN_OR_RETURN(const Type* t,
                       TypeCheckExpr(w->condition.get(), db, TypeEnv{}));
  if (t->kind() != TypeKind::kBool) {
    return Status::TypeError("WHEN condition must be bool, got " +
                             t->ToString());
  }
  LoweredPlan plan;
  plan.kind = LoweredPlan::Kind::kWhen;
  ExecProgram& prog = plan.program;
  Lowerer lowerer(&prog, db, /*binder=*/"");
  Result<Fragment> frag = lowerer.LowerFragment(*w->condition);
  if (!frag.ok()) {
    return LowerOutcome{std::nullopt, frag.status().message()};
  }
  prog.condition = std::move(frag).value();
  prog.when_reqs = CollectWhenBoundaryReqs(*w->condition);
  if (w->during.has_value()) {
    prog.during = w->during;
    // Concrete endpoints normalize now; a symbolic `now` endpoint is
    // resolved per execution so cached plans survive clock ticks.
    prog.during_normalized =
        !IsNow(w->during->start()) && !IsNow(w->during->end());
  }
  RecycleRegisters(&prog);
  return LowerOutcome{std::move(plan), ""};
}

}  // namespace

Result<LowerOutcome> LowerStatement(Statement* stmt, const Database& db) {
  switch (stmt->kind) {
    case Statement::Kind::kSelect:
      return LowerSelect(&*stmt->select, db);
    case Statement::Kind::kWhen:
      return LowerWhen(&*stmt->when, db);
    default:
      return LowerOutcome{std::nullopt,
                          "only select and when statements compile; this "
                          "statement is tree-walked"};
  }
}

// --- explain rendering -------------------------------------------------------

namespace {

std::string RegName(uint16_t r) { return "r" + std::to_string(r); }

std::string InstrToString(const Instr& i, const ExecProgram& prog) {
  switch (i.op) {
    case OpCode::kLoadConst:
      return RegName(i.dst) + " = const " + prog.constants[i.idx].ToString();
    case OpCode::kLoadSelf:
      return RegName(i.dst) + " = self";
    case OpCode::kLoadAttr: {
      std::string out = RegName(i.dst) + " = " + RegName(i.a) + "." + i.attr;
      if (i.at.has_value()) out += " @ " + InstantToString(*i.at);
      return out;
    }
    case OpCode::kNot:
    case OpCode::kNegate:
      return RegName(i.dst) + " = " + OpCodeName(i.op) + " " + RegName(i.a);
    case OpCode::kBinary:
      return RegName(i.dst) + " = " + BinaryOpName(i.bop) + " " +
             RegName(i.a) + " " + RegName(i.b);
    case OpCode::kCall: {
      std::string out =
          RegName(i.dst) + " = call " + std::string(CallKindName(i.call)) +
          "(";
      for (size_t k = 0; k < i.args.size(); ++k) {
        if (k > 0) out += ", ";
        out += RegName(i.args[k]);
      }
      return out + ")";
    }
    case OpCode::kMakeSet:
    case OpCode::kMakeList:
    case OpCode::kMakeRec: {
      std::string out = RegName(i.dst) + " = " + OpCodeName(i.op) + "(";
      for (size_t k = 0; k < i.args.size(); ++k) {
        if (k > 0) out += ", ";
        if (i.op == OpCode::kMakeRec) out += i.names[k] + ": ";
        out += RegName(i.args[k]);
      }
      return out + ")";
    }
    case OpCode::kMaskIfTrue:
    case OpCode::kMaskIfNotTrue:
    case OpCode::kMaskIfNotNull:
      return std::string(OpCodeName(i.op)) + " " + RegName(i.a);
    case OpCode::kPopMask:
      return OpCodeName(i.op);
    case OpCode::kAndMerge:
    case OpCode::kOrMerge:
      return RegName(i.dst) + " = " + OpCodeName(i.op) + " " + RegName(i.a) +
             " " + RegName(i.b);
    case OpCode::kIndexProbe:
      return OpCodeName(i.op);
  }
  return "?";
}

void AppendFragment(const ExecProgram& prog, const Fragment& frag,
                    const std::string& title, std::string* out) {
  *out += "  " + title + " -> " + RegName(frag.result) + "\n";
  for (uint32_t k = frag.begin; k < frag.end; ++k) {
    *out += "    " + std::to_string(k) + ": " +
            InstrToString(prog.code[k], prog) + "\n";
  }
}

}  // namespace

std::string ExecProgram::ToString() const {
  std::string out;
  if (!class_name.empty()) {
    out += "  extent: " + class_name + " (binder " + binder + ") at " +
           (at.has_value() ? InstantToString(*at) : std::string("now")) +
           "\n";
    // The planner's access-path decision, visible either way.
    if (access.has_value()) {
      out += "  access: index " + access->names[0] + " (" + access->attr +
             " " + BinaryOpName(access->bop) + " " +
             constants[access->idx].ToString() + "), est " +
             std::to_string(est_index_rows) + " postings of " +
             std::to_string(est_extent_rows) + " extent rows\n";
    } else {
      out += "  access: scan";
      if (!access_note.empty()) out += " (" + access_note + ")";
      out += "\n";
    }
  }
  out += "  registers: " + std::to_string(num_regs) +
         ", constants: " + std::to_string(constants.size()) + "\n";
  if (where.has_value()) AppendFragment(*this, *where, "where", &out);
  for (size_t i = 0; i < projections.size(); ++i) {
    AppendFragment(*this, projections[i], "project[" + std::to_string(i) + "]",
                   &out);
  }
  if (class_name.empty()) {
    // A WHEN program (select programs carry a class extent instead).
    AppendFragment(*this, condition, "condition", &out);
  }
  if (!when_reqs.empty()) {
    out += "  boundaries:";
    for (const WhenBoundaryReq& req : when_reqs) {
      out += " " + req.oid.ToString();
      if (req.all_attrs) {
        out += "(*)";
      } else if (!req.attrs.empty()) {
        out += "(";
        for (size_t i = 0; i < req.attrs.size(); ++i) {
          if (i > 0) out += ",";
          out += req.attrs[i];
        }
        out += ")";
      }
    }
    out += "\n";
  }
  if (during.has_value()) {
    out += "  during: " + during->ToString() +
           (during_normalized ? " (normalized)" : " (symbolic now)") + "\n";
  }
  return out;
}

std::string LoweredPlan::ToString() const {
  std::string out = kind == Kind::kSelect ? "compiled select plan\n"
                                          : "compiled when plan\n";
  return out + program.ToString();
}

}  // namespace tchimera
