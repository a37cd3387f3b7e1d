// Objects (Section 5, Definition 5.1). An object is the 4-tuple
//
//   (i, lifespan, v, class-history)
//
// where v is a record of attribute values — plain values for static
// attributes, temporal functions for temporal ones — and class-history is
// a temporal value recording the most specific class the object belongs to
// over time.
//
// The object layer also implements the state functions of Table 3:
//   h_state(i, t)   — the historical value: the meaningful temporal
//                     attributes projected at t (Definition 5.2);
//   s_state(i)      — the static value: the non-temporal attributes;
//   snapshot(i, t)  — the full projected state at t; per Section 5.3 it is
//                     undefined for t != now when the object has static
//                     attributes (their past values are not recorded).
//                     snapshot is also the coercion function used for
//                     substitutability (Section 6.1);
//   ref(i, t)       — the oids the object refers to at t.
//
// Representation note: per Definition 5.1 a *static* object's
// class-history holds the single pair <[now,now], c>. We store the class
// history of every object uniformly as an ongoing temporal function and
// normalize on read (NormalizedClassHistory) — for static objects only the
// current pair is exposed, matching the definition.
#ifndef TCHIMERA_CORE_OBJECT_OBJECT_H_
#define TCHIMERA_CORE_OBJECT_OBJECT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/temporal/interval.h"
#include "core/values/temporal_function.h"
#include "core/values/value.h"

namespace tchimera {

class Object {
 public:
  // A fresh object of class `most_specific_class`, alive from `created_at`.
  Object(Oid id, std::string most_specific_class, TimePoint created_at);

  // --- the 4-tuple -------------------------------------------------------

  Oid id() const { return id_; }
  const Interval& lifespan() const { return lifespan_; }
  // v: the record value (a1:v1,...,an:vn); assembled on demand.
  Value AttributeRecord() const;
  // class-history as stored (ongoing function; values are class-name
  // strings).
  const TemporalFunction& class_history() const { return class_history_; }
  // class-history as defined by the paper: for a static object, the single
  // pair <[now,now], current class>.
  TemporalFunction NormalizedClassHistory(TimePoint now) const;

  // --- attribute access --------------------------------------------------

  // True if any attribute currently carried (or retained from a previous
  // class, Section 5.2) is temporal.
  bool IsHistorical() const;
  bool HasStaticAttributes() const;

  // The stored value of `name` (the whole temporal function for a temporal
  // attribute); nullptr if the object carries no such attribute.
  const Value* Attribute(std::string_view name) const;
  std::vector<std::string> AttributeNames() const;

  // Sets / replaces the full stored value (static value or whole temporal
  // function). Used by the database and the storage layer.
  void SetAttribute(std::string_view name, Value v);
  // Removes a (static) attribute, e.g. on migration to a class lacking it.
  void RemoveAttribute(std::string_view name);

  // Mutates a temporal attribute: asserts `v` from `t` onward. If the
  // attribute slot does not exist yet it is created.
  Status AssertTemporalAttribute(std::string_view name, TimePoint t, Value v);
  // Retroactive/proactive valid-time update over an explicit interval.
  Status DefineTemporalAttribute(std::string_view name,
                                 const Interval& interval, Value v);
  // Ends the ongoing segment of temporal attribute `name` at `t` (used on
  // migration away from a class: temporal attribute values are retained,
  // Section 5.2).
  Status CloseTemporalAttribute(std::string_view name, TimePoint t);

  // --- Table 3 state functions -------------------------------------------

  // h_state: the record of the temporal attributes *meaningful* at t
  // (t in the domain of their value, Definition 5.2), projected at t.
  // Fails with TemporalError when t is outside the lifespan.
  Result<Value> HState(TimePoint t) const;
  // s_state: the record of the non-temporal attributes.
  Value SState() const;
  // snapshot: the full state projected at t. Undefined (TemporalError) for
  // t != now when the object has static attributes; temporal attributes
  // undefined at t project to null.
  Result<Value> Snapshot(TimePoint t, TimePoint now) const;
  // ref: the oids referenced at instant t.
  std::vector<Oid> ReferencedOids(TimePoint t) const;
  // All oids referenced at any time (for whole-history integrity checks).
  std::vector<Oid> AllReferencedOids() const;

  // --- class membership / lifecycle --------------------------------------

  // The most specific class at instant t, if the object existed then.
  std::optional<std::string> ClassAt(TimePoint t) const;
  // The most specific class now (the ongoing class-history segment).
  std::optional<std::string> CurrentClass() const;

  // Records a migration: the most specific class is `new_class` from `t`
  // onward.
  Status MigrateTo(std::string_view new_class, TimePoint t);

  // Ends the object lifespan at instant `t` (the last instant of
  // existence). Closes the class history and all ongoing temporal
  // attribute segments.
  Status CloseLifespan(TimePoint t);
  bool alive() const { return lifespan_.is_ongoing(); }

  // Approximate heap footprint (storage accounting in benchmarks).
  size_t ApproxBytes() const;

  // Restores raw lifespan and class history from persistent storage
  // (storage layer only; attribute values are restored via SetAttribute).
  void RestoreState(const Interval& lifespan,
                    TemporalFunction class_history) {
    lifespan_ = lifespan;
    class_history_ = std::move(class_history);
  }

 private:
  struct Attr {
    std::string name;
    Value value;
  };

  Attr* FindAttr(std::string_view name);
  const Attr* FindAttr(std::string_view name) const;
  // A copy of temporal attribute `name`'s function (empty when the slot
  // does not exist yet); fails when the attribute is static.
  Result<TemporalFunction> TemporalAttributeCopy(std::string_view name) const;

  Oid id_;
  Interval lifespan_;
  std::vector<Attr> attributes_;  // sorted by name
  TemporalFunction class_history_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_OBJECT_OBJECT_H_
