#include "core/object/object.h"

#include <algorithm>

namespace tchimera {

Object::Object(Oid id, std::string most_specific_class, TimePoint created_at)
    : id_(id), lifespan_(Interval::FromUntilNow(created_at)) {
  // The class history starts with the creation class, ongoing.
  Status s = class_history_.AssertFrom(
      created_at, Value::String(std::move(most_specific_class)));
  (void)s;  // cannot fail on an empty function
}

Value Object::AttributeRecord() const {
  std::vector<Value::Field> fields;
  fields.reserve(attributes_.size());
  for (const Attr& a : attributes_) fields.emplace_back(a.name, a.value);
  Result<Value> record = Value::Record(std::move(fields));
  // Names are unique by construction (sorted vector, insert-if-absent).
  return record.ok() ? std::move(record).value() : Value::Null();
}

TemporalFunction Object::NormalizedClassHistory(TimePoint now) const {
  if (IsHistorical()) return class_history_;
  std::optional<std::string> current = CurrentClass();
  if (!current.has_value()) return TemporalFunction();
  // A dead object's one pair sits at its last instant: past its death it
  // belongs to no class, so [now,now] could fall outside a class
  // lifespan that closed after the object died.
  const TimePoint at = alive() ? now : std::min(now, lifespan_.end());
  return TemporalFunction::Constant(Interval::At(at),
                                    Value::String(*current));
}

bool Object::IsHistorical() const {
  for (const Attr& a : attributes_) {
    if (a.value.kind() == ValueKind::kTemporal) return true;
  }
  return false;
}

bool Object::HasStaticAttributes() const {
  for (const Attr& a : attributes_) {
    if (a.value.kind() != ValueKind::kTemporal) return true;
  }
  return false;
}

Object::Attr* Object::FindAttr(std::string_view name) {
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const Attr& a, std::string_view n) { return a.name < n; });
  if (it == attributes_.end() || it->name != name) return nullptr;
  return &*it;
}

const Object::Attr* Object::FindAttr(std::string_view name) const {
  return const_cast<Object*>(this)->FindAttr(name);
}

const Value* Object::Attribute(std::string_view name) const {
  const Attr* a = FindAttr(name);
  return a == nullptr ? nullptr : &a->value;
}

std::vector<std::string> Object::AttributeNames() const {
  std::vector<std::string> out;
  out.reserve(attributes_.size());
  for (const Attr& a : attributes_) out.push_back(a.name);
  return out;
}

void Object::SetAttribute(std::string_view name, Value v) {
  Attr* a = FindAttr(name);
  if (a != nullptr) {
    a->value = std::move(v);
    return;
  }
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const Attr& x, std::string_view n) { return x.name < n; });
  attributes_.insert(it, Attr{std::string(name), std::move(v)});
}

void Object::RemoveAttribute(std::string_view name) {
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const Attr& a, std::string_view n) { return a.name < n; });
  if (it != attributes_.end() && it->name == name) attributes_.erase(it);
}

Result<TemporalFunction> Object::TemporalAttributeCopy(
    std::string_view name) const {
  const Attr* a = FindAttr(name);
  if (a == nullptr) return TemporalFunction();
  if (a->value.kind() != ValueKind::kTemporal) {
    return Status::FailedPrecondition(
        "attribute '" + std::string(name) + "' of " + id_.ToString() +
        " is static; temporal update is not applicable");
  }
  return a->value.AsTemporal();
}

Status Object::AssertTemporalAttribute(std::string_view name, TimePoint t,
                                       Value v) {
  TCH_ASSIGN_OR_RETURN(TemporalFunction f, TemporalAttributeCopy(name));
  TCH_RETURN_IF_ERROR(f.AssertFrom(t, std::move(v)));
  SetAttribute(name, Value::Temporal(std::move(f)));
  return Status::OK();
}

Status Object::DefineTemporalAttribute(std::string_view name,
                                       const Interval& interval, Value v) {
  TCH_ASSIGN_OR_RETURN(TemporalFunction f, TemporalAttributeCopy(name));
  TCH_RETURN_IF_ERROR(f.Define(interval, std::move(v)));
  SetAttribute(name, Value::Temporal(std::move(f)));
  return Status::OK();
}

Status Object::CloseTemporalAttribute(std::string_view name, TimePoint t) {
  Attr* a = FindAttr(name);
  if (a == nullptr || a->value.kind() != ValueKind::kTemporal) {
    return Status::NotFound("no temporal attribute '" + std::string(name) +
                            "' on " + id_.ToString());
  }
  TemporalFunction f = a->value.AsTemporal();
  f.CloseAt(t);
  a->value = Value::Temporal(std::move(f));
  return Status::OK();
}

Result<Value> Object::HState(TimePoint t) const {
  if (!lifespan_.ContainsResolved(t)) {
    return Status::TemporalError("h_state(" + id_.ToString() + "," +
                                 InstantToString(t) +
                                 "): instant outside the object lifespan " +
                                 lifespan_.ToString());
  }
  std::vector<Value::Field> fields;
  for (const Attr& a : attributes_) {
    if (a.value.kind() != ValueKind::kTemporal) continue;
    // Definition 5.2: the attribute is meaningful at t iff t is in the
    // domain of its value.
    const Value* at = a.value.AsTemporal().At(t);
    if (at != nullptr) fields.emplace_back(a.name, *at);
  }
  Result<Value> record = Value::Record(std::move(fields));
  if (!record.ok()) return record.status();
  return std::move(record).value();
}

Value Object::SState() const {
  std::vector<Value::Field> fields;
  for (const Attr& a : attributes_) {
    if (a.value.kind() == ValueKind::kTemporal) continue;
    fields.emplace_back(a.name, a.value);
  }
  Result<Value> record = Value::Record(std::move(fields));
  return record.ok() ? std::move(record).value() : Value::Null();
}

Result<Value> Object::Snapshot(TimePoint t, TimePoint now) const {
  TimePoint resolved = ResolveInstant(t, now);
  // Section 5.3: for objects with static attributes the snapshot is only
  // defined at the current time (past static values are not recorded).
  if (HasStaticAttributes() && resolved != now) {
    return Status::TemporalError(
        "snapshot(" + id_.ToString() + "," + InstantToString(t) +
        ") is undefined: the object has static attributes, whose values "
        "can only be reconstructed at the current time");
  }
  if (!lifespan_.ContainsResolved(resolved)) {
    return Status::TemporalError("snapshot(" + id_.ToString() + "," +
                                 InstantToString(t) +
                                 "): instant outside the object lifespan " +
                                 lifespan_.ToString());
  }
  std::vector<Value::Field> fields;
  fields.reserve(attributes_.size());
  for (const Attr& a : attributes_) {
    if (a.value.kind() == ValueKind::kTemporal) {
      const Value* at = a.value.AsTemporal().At(resolved);
      fields.emplace_back(a.name, at == nullptr ? Value::Null() : *at);
    } else {
      fields.emplace_back(a.name, a.value);
    }
  }
  Result<Value> record = Value::Record(std::move(fields));
  if (!record.ok()) return record.status();
  return std::move(record).value();
}

std::vector<Oid> Object::ReferencedOids(TimePoint t) const {
  std::vector<Oid> out;
  for (const Attr& a : attributes_) a.value.CollectOidsAt(t, &out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Oid> Object::AllReferencedOids() const {
  std::vector<Oid> out;
  for (const Attr& a : attributes_) a.value.CollectOids(&out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<std::string> Object::ClassAt(TimePoint t) const {
  const Value* v = class_history_.At(t);
  if (v == nullptr || v->kind() != ValueKind::kString) return std::nullopt;
  return v->AsString();
}

std::optional<std::string> Object::CurrentClass() const {
  if (class_history_.empty()) return std::nullopt;
  const auto& last = class_history_.segments().back();
  if (last.value.kind() != ValueKind::kString) return std::nullopt;
  return last.value.AsString();
}

Status Object::MigrateTo(std::string_view new_class, TimePoint t) {
  if (!lifespan_.ContainsResolved(t)) {
    return Status::TemporalError("cannot migrate " + id_.ToString() +
                                 " at instant " + InstantToString(t) +
                                 " outside its lifespan");
  }
  return class_history_.AssertFrom(t, Value::String(std::string(new_class)));
}

Status Object::CloseLifespan(TimePoint t) {
  if (!lifespan_.is_ongoing()) {
    return Status::FailedPrecondition("object " + id_.ToString() +
                                      " is already deleted");
  }
  if (t < lifespan_.start()) {
    return Status::TemporalError(
        "cannot close the lifespan of " + id_.ToString() +
        " before its creation instant " +
        InstantToString(lifespan_.start()));
  }
  lifespan_ = Interval(lifespan_.start(), t);
  class_history_.CloseAt(t);
  for (Attr& a : attributes_) {
    if (a.value.kind() != ValueKind::kTemporal) continue;
    TemporalFunction f = a.value.AsTemporal();
    f.CloseAt(t);
    a.value = Value::Temporal(std::move(f));
  }
  return Status::OK();
}

size_t Object::ApproxBytes() const {
  size_t bytes = sizeof(Object);
  for (const Attr& a : attributes_) {
    bytes += a.name.capacity() + a.value.ApproxBytes();
  }
  bytes += class_history_.ApproxBytes();
  return bytes;
}

}  // namespace tchimera
