#include "core/db/timeslice.h"

#include <set>
#include <string>
#include <vector>

#include "core/types/type_registry.h"
#include "core/values/temporal_function.h"

namespace tchimera {
namespace {

// temporal(T) -> T; everything else unchanged.
const Type* Coerce(const Type* type) {
  return type->kind() == TypeKind::kTemporal ? type->element() : type;
}

// The attributes a class keeps in the slice: all of them at the current
// instant; only the (coerced) temporal ones at a past instant
// (Section 5.3: past static values are not recorded).
std::vector<AttributeDef> SliceAttributes(const ClassDef& cls,
                                          bool at_current) {
  std::vector<AttributeDef> out;
  for (const AttributeDef& a : cls.attributes()) {
    if (!at_current && !a.is_temporal()) continue;
    out.push_back({a.name, Coerce(a.type)});
  }
  return out;
}

// Projects one stored attribute value at t (temporal values project to
// f(t) or null; static values pass through).
Value ProjectValue(const Value& stored, TimePoint t) {
  if (stored.kind() != ValueKind::kTemporal) return stored;
  const Value* at = stored.AsTemporal().At(t);
  return at == nullptr ? Value::Null() : *at;
}

}  // namespace

Result<std::unique_ptr<Database>> TimeSlice(const Database& db,
                                            TimePoint t) {
  TimePoint at = ResolveInstant(t, db.now());
  if (at < 0 || at > db.now()) {
    return Status::TemporalError(
        "timeslice instant " + InstantToString(t) +
        " is outside [0, now=" + InstantToString(db.now()) + "]");
  }
  const bool at_current = at == db.now();
  auto slice = std::make_unique<Database>();
  slice->RestoreClock(at);

  // Classes, in an ISA-respecting order (superclasses first); only those
  // alive at the instant survive into the slice. Invariant 6.1 guarantees
  // a subclass alive at t has all its superclasses alive at t.
  std::vector<std::string> pending = db.ClassNames();
  std::set<std::string> done;
  while (!pending.empty()) {
    std::vector<std::string> next;
    bool progress = false;
    for (const std::string& name : pending) {
      const ClassDef* cls = db.GetClass(name);
      if (!cls->lifespan().ContainsResolved(at)) {
        done.insert(name);  // dead at t: skipped, but unblocks subclasses
        progress = true;
        continue;
      }
      bool ready = true;
      for (const std::string& super : cls->direct_superclasses()) {
        if (done.count(super) == 0) {
          ready = false;
          break;
        }
      }
      if (!ready) {
        next.push_back(name);
        continue;
      }
      progress = true;
      done.insert(name);
      ClassSpec spec;
      spec.name = name;
      for (const std::string& super : cls->direct_superclasses()) {
        if (slice->GetClass(super) != nullptr) {
          spec.superclasses.push_back(super);
        }
      }
      spec.attributes = SliceAttributes(*cls, at_current);
      spec.methods = cls->methods();
      for (const AttributeDef& ca : cls->c_attributes()) {
        if (!at_current && !ca.is_temporal()) continue;
        spec.c_attributes.push_back({ca.name, Coerce(ca.type)});
      }
      spec.c_methods = cls->c_methods();
      // Extents freeze at their t-state, ongoing from t.
      const auto frozen = [&](const std::vector<Oid>& oids) {
        std::vector<Value> members;
        for (Oid oid : oids) members.push_back(Value::OfOid(oid));
        return TemporalFunction::Constant(Interval::FromUntilNow(at),
                                          Value::Set(std::move(members)));
      };
      TemporalFunction ext = frozen(cls->ExtentAt(at));
      TemporalFunction pext = frozen(cls->ProperExtentAt(at));
      std::vector<Value::Field> c_values;
      for (const AttributeDef& ca : spec.c_attributes) {
        Result<Value> v = cls->CAttributeValue(ca.name);
        if (v.ok()) {
          c_values.emplace_back(ca.name, ProjectValue(*v, at));
        }
      }
      TCH_RETURN_IF_ERROR(slice->RestoreClass(spec,
                                              Interval::FromUntilNow(at),
                                              std::move(ext),
                                              std::move(pext),
                                              std::move(c_values)));
    }
    if (!progress) {
      return Status::Internal("ISA cycle while slicing");
    }
    pending = std::move(next);
  }

  // Objects alive at t, projected.
  for (Oid oid : db.AllOids()) {
    const Object* obj = db.GetObject(oid);
    if (!obj->lifespan().ContainsResolved(at)) continue;
    std::optional<std::string> cls_name = obj->ClassAt(at);
    if (!cls_name.has_value()) continue;
    const ClassDef* sliced_cls = slice->GetClass(*cls_name);
    if (sliced_cls == nullptr) continue;  // class dead at t (impossible
                                          // under Invariant 5.1)
    std::vector<Value::Field> attrs;
    for (const AttributeDef& a : sliced_cls->attributes()) {
      const Value* stored = obj->Attribute(a.name);
      attrs.emplace_back(
          a.name, stored == nullptr ? Value::Null()
                                    : ProjectValue(*stored, at));
    }
    TCH_RETURN_IF_ERROR(slice->RestoreObject(
        oid, Interval::FromUntilNow(at),
        TemporalFunction::Constant(Interval::FromUntilNow(at),
                                   Value::String(*cls_name)),
        std::move(attrs)));
  }
  slice->RestoreNextOid(db.next_oid());
  return slice;
}

}  // namespace tchimera
