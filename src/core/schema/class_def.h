// Classes (Section 4, Definition 4.1). A T_Chimera class is the 7-tuple
//
//   (c, type, lifespan, attr, meth, history, mc)
//
// where `type` says whether the class itself is static or historical (it
// is historical iff it has at least one *temporal c-attribute*), `attr` /
// `meth` describe instances, `history` is a record value holding the
// c-attribute values plus the two temporal values `ext` and `proper-ext`
// (the members / instances of the class over time), and `mc` is the
// metaclass identifier.
//
// Membership is per-oid interval data (Invariants 5.1-5.2 tie it to each
// object's class history), so ClassDef stores each extent history as
// oid-sorted membership rows (ExtentRows) in shared chunks: a membership
// change is O(log n + one chunk), and a clone copies chunk pointers. The
// paper's set-valued function is built from the rows only when asked for
// (ext(), proper_ext(): History, meta-objects, snapshots).
//
// ClassDef also derives the three types associated with a class
// (Section 4): the structural type (all attributes), the historical type
// (the T^- images of the temporal attributes) and the static type (the
// non-temporal attributes), which drive consistency checking (Section 5.2).
#ifndef TCHIMERA_CORE_SCHEMA_CLASS_DEF_H_
#define TCHIMERA_CORE_SCHEMA_CLASS_DEF_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/sorted_chunks.h"
#include "core/temporal/interval.h"
#include "core/temporal/interval_set.h"
#include "core/types/type.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"

namespace tchimera {

// One instance attribute or c-attribute: (a_name, a_type).
struct AttributeDef {
  std::string name;
  const Type* type = nullptr;

  bool is_temporal() const {
    return type != nullptr && type->kind() == TypeKind::kTemporal;
  }
};

// One method signature: m_name : T1 x ... x Tn -> T.
struct MethodDef {
  std::string name;
  std::vector<const Type*> inputs;
  const Type* output = nullptr;

  std::string ToString() const;
};

// static / historical (the `type` component of Definition 4.1; determined
// by the c-attributes).
enum class ClassKind { kStatic, kHistorical };

const char* ClassKindName(ClassKind kind);

// What a user supplies to define a class; the database turns a validated
// spec into a ClassDef (computing inherited members, the metaclass and the
// initial history).
struct ClassSpec {
  std::string name;
  std::vector<std::string> superclasses;  // direct superclasses
  std::vector<AttributeDef> attributes;   // declared (may refine inherited)
  std::vector<MethodDef> methods;         // declared (may refine inherited)
  std::vector<AttributeDef> c_attributes;
  std::vector<MethodDef> c_methods;
};

// One extent history as membership rows {oid, iv}, sorted by
// (oid, iv.start). An oid's intervals are raw (kNow-ended while ongoing),
// disjoint and coalesced. The paper's function over the rows has domain
// [since, end] -- `since` is the first instant anything was ever added --
// and the value {} wherever the class has no member, a state the rows
// alone cannot express (e.g. a create and a migrate in one instant).
class ExtentRows {
 public:
  struct Row {
    Oid oid;
    Interval iv;
  };

  // Rebuilds the rows and `since` from the paper's function (restore).
  static ExtentRows FromFunction(const TemporalFunction& f);
  // The function over [since, end]: empty before anything was added.
  TemporalFunction Function(TimePoint end) const;
  // [since, end]; empty before anything was added.
  Interval Domain(TimePoint end) const;

  bool Contains(Oid oid, TimePoint t) const;
  // The members at t, ascending.
  std::vector<Oid> At(TimePoint t) const;
  // `oid`'s raw intervals ending at or after `from`, in time order.
  std::vector<Interval> RowsOf(
      Oid oid, TimePoint from = std::numeric_limits<TimePoint>::min()) const;
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    rows_.ForEach(rows_.All(), fn);
  }

  // `oid`'s intervals union / minus [t, now]; always OK.
  Status Add(Oid oid, TimePoint t);
  Status Remove(Oid oid, TimePoint t);
  // Clips every row to end by t (class deletion).
  void Clip(TimePoint t);
  // Drops every row of `oid`.
  void Erase(Oid oid);

 private:
  struct RowOrder {
    bool operator()(const Row& a, const Row& b) const {
      return a.oid != b.oid ? a.oid < b.oid : a.iv.start() < b.iv.start();
    }
  };
  // The first row of `oid` ending at or after `from`, or the row after
  // its block.
  ChunkPos Seek(Oid oid, TimePoint from) const;
  // Replaces `oid`'s rows `old` with `fresh`.
  void Replace(Oid oid, const std::vector<Interval>& old,
               const std::vector<Interval>& fresh);

  // The latest raw end among a chunk's rows: At(t) skips a chunk whose
  // rows all ended before t (a class's departed members).
  struct MaxEnd {
    explicit MaxEnd(std::span<const Row> rows) {
      for (const Row& r : rows) end = std::max(end, r.iv.end());
    }
    TimePoint end = std::numeric_limits<TimePoint>::min();
  };
  // Rows are 24 trivially copyable bytes, so a chunk copy is one memcpy
  // even at 512 rows, while fewer chunks keep a ClassDef clone (one per
  // committed membership change) cheap as the extent grows.
  using Rows = SortedChunks<Row, RowOrder, 512, MaxEnd>;
  Rows rows_;
  std::optional<TimePoint> since_;
};

class ClassDef {
 public:
  // `effective_*` are the declared members merged with the inherited ones
  // (refinements already applied); validation happens in the database /
  // refinement layer before construction.
  ClassDef(std::string name, TimePoint created_at,
           std::vector<std::string> direct_superclasses,
           std::vector<AttributeDef> effective_attributes,
           std::vector<MethodDef> effective_methods,
           std::vector<AttributeDef> effective_c_attributes,
           std::vector<MethodDef> effective_c_methods);

  // --- the 7-tuple -------------------------------------------------------

  // c: the class identifier.
  const std::string& name() const { return name_; }
  // type: static iff every c-attribute is non-temporal.
  ClassKind kind() const;
  // lifespan (contiguous by construction; classes are never recreated).
  const Interval& lifespan() const { return lifespan_; }
  // attr: the instance attributes (inherited ones included), sorted by
  // name.
  const std::vector<AttributeDef>& attributes() const { return attributes_; }
  // meth: the instance methods, sorted by name.
  const std::vector<MethodDef>& methods() const { return methods_; }
  // history: assembled on demand as the record value
  // (a1:v1,...,an:vn, ext:E, proper-ext:PE).
  Value History() const;
  // mc: the metaclass identifier ("m-<name>").
  const std::string& metaclass() const { return metaclass_; }

  // --- structure ---------------------------------------------------------

  const std::vector<std::string>& direct_superclasses() const {
    return superclasses_;
  }
  const std::vector<AttributeDef>& c_attributes() const {
    return c_attributes_;
  }
  const std::vector<MethodDef>& c_methods() const { return c_methods_; }

  // Attribute lookup by name (nullptr when absent).
  const AttributeDef* FindAttribute(std::string_view name) const;
  const AttributeDef* FindCAttribute(std::string_view name) const;
  const MethodDef* FindMethod(std::string_view name) const;

  // True if the class has at least one temporal / one non-temporal
  // instance attribute.
  bool HasTemporalAttributes() const;
  bool HasStaticAttributes() const;

  // --- the three types of Section 4 --------------------------------------

  // record-of(a1:T1,...,an:Tn) over all attributes; nullptr when the class
  // has no attributes.
  const Type* StructuralType() const;
  // record-of over the temporal attributes with temporal() stripped (T^-);
  // nullptr when the class has no temporal attributes (the paper's h_type
  // returns null then).
  const Type* HistoricalType() const;
  // record-of over the non-temporal attributes; nullptr when all
  // attributes are temporal.
  const Type* StaticType() const;

  // --- extent history and c-attribute values (mutated by the database) ---

  // E(t): members over time (sets of oids), built from the rows.
  TemporalFunction ext() const { return ext_.Function(lifespan_.end()); }
  // PE(t): instances over time; PE(t) subset of E(t) always.
  TemporalFunction proper_ext() const {
    return proper_ext_.Function(lifespan_.end());
  }
  // The stored rows behind ext() / proper_ext().
  const ExtentRows& ext_rows() const { return ext_; }
  const ExtentRows& proper_ext_rows() const { return proper_ext_; }

  // pi(c, t) as stored in this class: the member oids at instant t.
  // (Function pi of Table 3 is pi(c,t) = C.history.ext(t).)
  std::vector<Oid> ExtentAt(TimePoint t) const { return ext_.At(t); }
  std::vector<Oid> ProperExtentAt(TimePoint t) const {
    return proper_ext_.At(t);
  }
  bool InExtentAt(Oid oid, TimePoint t) const { return ext_.Contains(oid, t); }
  bool InProperExtentAt(Oid oid, TimePoint t) const {
    return proper_ext_.Contains(oid, t);
  }
  // All instants at which `oid` is a member: the basis of c_lifespan.
  IntervalSet MemberIntervals(Oid oid, TimePoint current) const;
  // Like MemberIntervals but with ongoing membership kept unclipped
  // (endpoint kNow), for subset checks against ongoing intervals.
  IntervalSet RawMemberIntervals(Oid oid) const {
    return IntervalSet(ext_.RowsOf(oid));
  }

  // Adds/removes `oid` from the member set (`ext`) or instance set
  // (`proper-ext`) from instant `t` onward; never fails.
  Status AddMember(Oid oid, TimePoint t) { return ext_.Add(oid, t); }
  Status RemoveMember(Oid oid, TimePoint t) { return ext_.Remove(oid, t); }
  Status AddInstance(Oid oid, TimePoint t) { return proper_ext_.Add(oid, t); }
  Status RemoveInstance(Oid oid, TimePoint t) {
    return proper_ext_.Remove(oid, t);
  }

  // The current value of c-attribute `name` (for a temporal c-attribute
  // the whole function); null Value when unset.
  Result<Value> CAttributeValue(std::string_view name) const;
  // Sets a c-attribute. For a temporal c-attribute, `v` is the value
  // asserted from instant `t` onward; for a static one `t` is ignored.
  // The caller (database) has already type-checked `v`.
  Status SetCAttribute(std::string_view name, Value v, TimePoint t);

  // Ends the class lifespan at instant `t` (class deletion; classes are
  // never recreated, Section 4).
  Status CloseLifespan(TimePoint t);
  bool alive() const { return lifespan_.is_ongoing(); }

  // Restores raw state from persistent storage (storage layer only; no
  // validation beyond c-attribute count).
  Status RestoreState(const Interval& lifespan, TemporalFunction ext,
                      TemporalFunction proper_ext,
                      std::vector<Value> c_attr_values);

  // Removes every trace of `oid` from ext / proper-ext, at all instants
  // (the domain stays [since, end], with {} where no member is left). Not
  // a model operation: recovery-only surgery used when quarantining an
  // object that failed the post-recovery audit (see storage/recovery.h).
  void ScrubFromExtents(Oid oid);

 private:
  std::string name_;
  Interval lifespan_;
  std::vector<std::string> superclasses_;
  std::vector<AttributeDef> attributes_;    // sorted by name
  std::vector<MethodDef> methods_;          // sorted by name
  std::vector<AttributeDef> c_attributes_;  // sorted by name
  std::vector<MethodDef> c_methods_;        // sorted by name
  std::string metaclass_;

  std::vector<Value> c_attr_values_;  // parallel to c_attributes_
  ExtentRows ext_;
  ExtentRows proper_ext_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_SCHEMA_CLASS_DEF_H_
