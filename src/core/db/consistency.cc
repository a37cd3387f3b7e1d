#include "core/db/consistency.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace tchimera {
namespace {

// Raw-interval containment with kNow treated as +infinity.
bool RawCovers(const Interval& outer, const Interval& inner) {
  if (inner.empty()) return true;
  if (outer.empty()) return false;
  return outer.start() <= inner.start() && inner.end() <= outer.end();
}

Interval RawIntersect(const Interval& a, const Interval& b) {
  if (a.empty() || b.empty()) return Interval::Empty();
  TimePoint s = std::max(a.start(), b.start());
  TimePoint e = std::min(a.end(), b.end());
  if (e < s) return Interval::Empty();
  return Interval(s, e);
}

}  // namespace

Status CheckHistoricalConsistency(const Database& db, const Object& obj,
                                  const ClassDef& cls, TimePoint t) {
  const Type* h_type = cls.HistoricalType();
  Result<Value> h_state = obj.HState(t);
  if (!h_state.ok()) return h_state.status();
  if (h_type == nullptr) {
    // The class has no temporal attributes; the object must have no
    // meaningful temporal attribute at t.
    if (!h_state->Fields().empty()) {
      return Status::ConsistencyViolation(
          "object " + obj.id().ToString() +
          " has meaningful temporal attributes at " + InstantToString(t) +
          " but class " + cls.name() + " declares none");
    }
    return Status::OK();
  }
  Status s = CheckLegalValue(*h_state, h_type, t, db.typing_context());
  if (!s.ok()) {
    return Status::ConsistencyViolation(
        "object " + obj.id().ToString() +
        " is not an historically consistent instance of " + cls.name() +
        " at " + InstantToString(t) + ": " + s.message());
  }
  return Status::OK();
}

Status CheckHistoricalConsistencyOver(const Database& db, const Object& obj,
                                      const ClassDef& cls,
                                      const Interval& interval) {
  if (interval.empty()) return Status::OK();
  const TypingContext ctx = db.typing_context();
  // Every temporal attribute of the class: meaningful throughout the
  // interval, with values legal for T^- over each constant piece.
  std::set<std::string> class_temporal;
  for (const AttributeDef& attr : cls.attributes()) {
    if (!attr.is_temporal()) continue;
    class_temporal.insert(attr.name);
    const Value* stored = obj.Attribute(attr.name);
    if (stored == nullptr || stored->kind() != ValueKind::kTemporal) {
      return Status::ConsistencyViolation(
          "object " + obj.id().ToString() +
          " lacks temporal attribute '" + attr.name + "' of class " +
          cls.name());
    }
    const TemporalFunction& f = stored->AsTemporal();
    if (!f.RawDomain().CoversInterval(interval)) {
      return Status::ConsistencyViolation(
          "temporal attribute '" + attr.name + "' of " +
          obj.id().ToString() + " is not meaningful throughout " +
          interval.ToString() + " (membership period in class " +
          cls.name() + ")");
    }
    for (const auto& seg : f.segments()) {
      Interval piece = RawIntersect(seg.interval, interval);
      if (piece.empty()) continue;
      Status s = CheckLegalValueOverInterval(seg.value,
                                             attr.type->element(), piece, ctx);
      if (!s.ok()) {
        return Status::ConsistencyViolation(
            "temporal attribute '" + attr.name + "' of " +
            obj.id().ToString() + " over " + piece.ToString() + ": " +
            s.message());
      }
    }
  }
  // No extra temporal attribute (e.g. retained from a previous class,
  // Section 5.2) may be meaningful inside the interval.
  for (const std::string& name : obj.AttributeNames()) {
    const Value* stored = obj.Attribute(name);
    if (stored->kind() != ValueKind::kTemporal) continue;
    if (class_temporal.count(name) != 0) continue;
    IntervalSet overlap = stored->AsTemporal().RawDomain().Intersect(
        IntervalSet::Of(interval));
    if (!overlap.empty()) {
      return Status::ConsistencyViolation(
          "retained temporal attribute '" + name + "' of " +
          obj.id().ToString() + " is meaningful during " +
          overlap.ToString() + " although class " + cls.name() +
          " does not declare it");
    }
  }
  return Status::OK();
}

Status CheckStaticConsistency(const Database& db, const Object& obj,
                              const ClassDef& cls) {
  const Type* s_type = cls.StaticType();
  Value s_state = obj.SState();
  if (s_type == nullptr) {
    if (!s_state.Fields().empty()) {
      return Status::ConsistencyViolation(
          "object " + obj.id().ToString() +
          " carries static attributes but class " + cls.name() +
          " declares none");
    }
    return Status::OK();
  }
  Status s = CheckLegalValue(s_state, s_type, db.now(), db.typing_context());
  if (!s.ok()) {
    return Status::ConsistencyViolation(
        "object " + obj.id().ToString() +
        " is not a statically consistent instance of " + cls.name() + ": " +
        s.message());
  }
  return Status::OK();
}

Status CheckObjectConsistency(const Database& db, Oid oid) {
  TCH_ASSIGN_OR_RETURN(const Object* obj, db.FindObject(oid));
  const bool historical = obj->IsHistorical();
  // Clause 1+2: every class-history pair <tau, c>. For a static object
  // only the current pair is recorded (Definition 5.1), which the
  // normalized view reflects.
  const TemporalFunction history = obj->NormalizedClassHistory(db.now());
  for (const auto& seg : history.segments()) {
    if (seg.value.kind() != ValueKind::kString) {
      return Status::ConsistencyViolation("class history of " +
                                          oid.ToString() +
                                          " holds a non-class value");
    }
    const std::string& cls_name = seg.value.AsString();
    const ClassDef* cls = db.GetClass(cls_name);
    if (cls == nullptr) {
      return Status::ConsistencyViolation("class history of " +
                                          oid.ToString() +
                                          " names unknown class " + cls_name);
    }
    // tau must be contained in the class lifespan.
    if (!RawCovers(cls->lifespan(), seg.interval)) {
      return Status::ConsistencyViolation(
          "class-history interval " + seg.interval.ToString() + " of " +
          oid.ToString() + " is not within the lifespan " +
          cls->lifespan().ToString() + " of class " + cls_name);
    }
    if (historical) {
      TCH_RETURN_IF_ERROR(
          CheckHistoricalConsistencyOver(db, *obj, *cls, seg.interval));
    }
  }
  // Clause 3: static consistency with the current class.
  std::optional<std::string> current = obj->CurrentClass();
  if (obj->alive()) {
    if (!current.has_value()) {
      return Status::ConsistencyViolation("live object " + oid.ToString() +
                                          " has no current class");
    }
    const ClassDef* cls = db.GetClass(*current);
    if (cls == nullptr) {
      return Status::ConsistencyViolation("current class " + *current +
                                          " of " + oid.ToString() +
                                          " does not exist");
    }
    TCH_RETURN_IF_ERROR(CheckStaticConsistency(db, *obj, *cls));
  }
  return Status::OK();
}

Status CheckConsistentObjectSet(const Database& db, TimePoint t) {
  TimePoint rt = ResolveInstant(t, db.now());
  // OID-UNIQUENESS holds structurally (objects are keyed by oid); verify
  // oids are well-formed anyway.
  for (Oid oid : db.AllOids()) {
    const Object* obj = db.GetObject(oid);
    if (!oid.valid()) {
      return Status::ConsistencyViolation("invalid oid in object store");
    }
    if (!obj->lifespan().ContainsResolved(rt)) continue;
    for (Oid target : obj->ReferencedOids(rt)) {
      const Object* dest = db.GetObject(target);
      if (dest == nullptr || !dest->lifespan().ContainsResolved(rt)) {
        return Status::ConsistencyViolation(
            "referential integrity: " + oid.ToString() + " references " +
            target.ToString() + " at " + InstantToString(rt) +
            " but the target " +
            (dest == nullptr ? std::string("does not exist")
                             : "lifespan " + dest->lifespan().ToString() +
                                   " does not contain the instant"));
      }
    }
  }
  return Status::OK();
}

Status CheckReferentialIntegrityAllTime(const Database& db) {
  for (Oid oid : db.AllOids()) {
    const Object* obj = db.GetObject(oid);
    for (const std::string& name : obj->AttributeNames()) {
      const Value* v = obj->Attribute(name);
      if (v->kind() == ValueKind::kTemporal) {
        for (const auto& seg : v->AsTemporal().segments()) {
          std::vector<Oid> refs;
          seg.value.CollectOids(&refs);
          for (Oid target : refs) {
            const Object* dest = db.GetObject(target);
            if (dest == nullptr || !RawCovers(dest->lifespan(),
                                              seg.interval)) {
              return Status::ConsistencyViolation(
                  "attribute '" + name + "' of " + oid.ToString() +
                  " references " + target.ToString() + " over " +
                  seg.interval.ToString() +
                  " beyond the target's lifespan");
            }
          }
        }
      } else {
        std::vector<Oid> refs;
        v->CollectOids(&refs);
        for (Oid target : refs) {
          const Object* dest = db.GetObject(target);
          if (dest == nullptr ||
              !dest->lifespan().ContainsResolved(db.now())) {
            return Status::ConsistencyViolation(
                "static attribute '" + name + "' of " + oid.ToString() +
                " references " + target.ToString() +
                " which is not alive now");
          }
        }
      }
    }
  }
  return Status::OK();
}

Status CheckInvariant51(const Database& db) {
  // (1) For every class and every extent row, the member's lifespan
  // covers the row.
  for (const std::string& cls_name : db.ClassNames()) {
    Status st;
    db.GetClass(cls_name)->ext_rows().ForEachRow(
        [&](const ExtentRows::Row& r) {
          const Object* obj = db.GetObject(r.oid);
          if (!st.ok() ||
              (obj != nullptr && RawCovers(obj->lifespan(), r.iv))) {
            return;
          }
          st = Status::ConsistencyViolation(
              "Invariant 5.1(1): " + r.oid.ToString() +
              " is in the extent of " + cls_name + " over " +
              r.iv.ToString() + " outside its lifespan");
        });
    TCH_RETURN_IF_ERROR(st);
  }
  // (2) Proper-extent membership intervals == class-history intervals.
  for (Oid oid : db.AllOids()) {
    const Object* obj = db.GetObject(oid);
    // Group the object's class history by class.
    std::map<std::string, IntervalSet> from_history;
    for (const auto& seg : obj->class_history().segments()) {
      if (seg.value.kind() != ValueKind::kString) continue;
      from_history[seg.value.AsString()].Add(seg.interval);
    }
    for (const std::string& cls_name : db.ClassNames()) {
      const IntervalSet from_extent(
          db.GetClass(cls_name)->proper_ext_rows().RowsOf(oid));
      auto it = from_history.find(cls_name);
      IntervalSet expected =
          it == from_history.end() ? IntervalSet() : it->second;
      if (from_extent != expected) {
        return Status::ConsistencyViolation(
            "Invariant 5.1(2): proper extent of " + cls_name + " records " +
            oid.ToString() + " over " + from_extent.ToString() +
            " but its class history says " + expected.ToString());
      }
    }
  }
  return Status::OK();
}

Status CheckInvariant52(const Database& db) {
  for (Oid oid : db.AllOids()) {
    const Object* obj = db.GetObject(oid);
    // (1) o_lifespan(i) = U_c c_lifespan(i, c).
    IntervalSet membership;
    for (const std::string& cls_name : db.ClassNames()) {
      membership =
          membership.Union(db.GetClass(cls_name)->RawMemberIntervals(oid));
    }
    IntervalSet lifespan = IntervalSet::Of(obj->lifespan());
    if (membership != lifespan) {
      return Status::ConsistencyViolation(
          "Invariant 5.2(1): membership intervals " + membership.ToString() +
          " of " + oid.ToString() + " do not partition its lifespan " +
          lifespan.ToString());
    }
    // (2) Extent-derived membership agrees with class-history-derived
    // membership: member of c exactly when the most specific class is a
    // subclass of c.
    for (const std::string& cls_name : db.ClassNames()) {
      IntervalSet from_extent =
          db.GetClass(cls_name)->RawMemberIntervals(oid);
      IntervalSet from_history;
      for (const auto& seg : obj->class_history().segments()) {
        if (seg.value.kind() != ValueKind::kString) continue;
        if (db.isa().IsSubclassOf(seg.value.AsString(), cls_name)) {
          from_history.Add(seg.interval);
        }
      }
      if (from_extent != from_history) {
        return Status::ConsistencyViolation(
            "Invariant 5.2(2): membership of " + oid.ToString() + " in " +
            cls_name + " derived from extents is " + from_extent.ToString() +
            " but derived from its class history is " +
            from_history.ToString());
      }
    }
  }
  return Status::OK();
}

Status CheckInvariant61(const Database& db) {
  for (const std::string& sub_name : db.ClassNames()) {
    const ClassDef* sub = db.GetClass(sub_name);
    for (const std::string& super_name : db.isa().Superclasses(sub_name)) {
      const ClassDef* super = db.GetClass(super_name);
      if (super == nullptr) {
        return Status::ConsistencyViolation("ISA names unknown class " +
                                            super_name);
      }
      // (1) Lifespan inclusion.
      if (!RawCovers(super->lifespan(), sub->lifespan())) {
        return Status::ConsistencyViolation(
            "Invariant 6.1(1): lifespan " + sub->lifespan().ToString() +
            " of " + sub_name + " is not within lifespan " +
            super->lifespan().ToString() + " of superclass " + super_name);
      }
      // (2) Extent inclusion at every instant (row by row).
      Status st;
      sub->ext_rows().ForEachRow([&](const ExtentRows::Row& r) {
        if (!st.ok() ||
            super->RawMemberIntervals(r.oid).CoversInterval(r.iv)) {
          return;
        }
        st = Status::ConsistencyViolation(
            "Invariant 6.1(2): " + r.oid.ToString() +
            " is in the extent of " + sub_name + " over " + r.iv.ToString() +
            " but not in the extent of superclass " + super_name);
      });
      TCH_RETURN_IF_ERROR(st);
    }
  }
  return Status::OK();
}

Status CheckInvariant62(const Database& db) {
  // Each object must only ever appear in extents of classes of a single
  // hierarchy (connected component of the ISA DAG).
  std::map<Oid, std::string> hierarchy_of;
  for (const std::string& cls_name : db.ClassNames()) {
    const ClassDef* cls = db.GetClass(cls_name);
    Result<std::string> h = db.isa().HierarchyId(cls_name);
    if (!h.ok()) return h.status();
    std::set<Oid> ever;
    cls->ext_rows().ForEachRow(
        [&](const ExtentRows::Row& r) { ever.insert(r.oid); });
    for (Oid oid : ever) {
      auto [it, inserted] = hierarchy_of.emplace(oid, *h);
      if (!inserted && it->second != *h) {
        return Status::ConsistencyViolation(
            "Invariant 6.2: " + oid.ToString() +
            " has belonged to hierarchies rooted at " + it->second +
            " and " + *h);
      }
    }
  }
  return Status::OK();
}

Status CheckDatabaseConsistency(const Database& db) {
  for (Oid oid : db.AllOids()) {
    TCH_RETURN_IF_ERROR(CheckObjectConsistency(db, oid));
  }
  TCH_RETURN_IF_ERROR(CheckConsistentObjectSet(db, db.now()));
  TCH_RETURN_IF_ERROR(CheckReferentialIntegrityAllTime(db));
  TCH_RETURN_IF_ERROR(CheckInvariant51(db));
  TCH_RETURN_IF_ERROR(CheckInvariant52(db));
  TCH_RETURN_IF_ERROR(CheckInvariant61(db));
  TCH_RETURN_IF_ERROR(CheckInvariant62(db));
  return Status::OK();
}

}  // namespace tchimera
