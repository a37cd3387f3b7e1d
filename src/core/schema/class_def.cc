#include "core/schema/class_def.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "core/types/type_registry.h"

namespace tchimera {
namespace {

template <typename T>
void SortByName(std::vector<T>* items) {
  std::sort(items->begin(), items->end(),
            [](const T& a, const T& b) { return a.name < b.name; });
}

}  // namespace

ExtentRows ExtentRows::FromFunction(const TemporalFunction& f) {
  ExtentRows out;
  if (f.empty()) return out;
  out.since_ = f.DomainStart();
  std::map<Oid, std::vector<Interval>> pieces;
  for (const auto& seg : f.segments()) {
    if (seg.value.kind() != ValueKind::kSet) continue;
    for (const Value& e : seg.value.Elements()) {
      pieces[e.AsOid()].push_back(seg.interval);
    }
  }
  std::vector<Row> rows;
  for (auto& [oid, ivs] : pieces) {
    const IntervalSet coalesced(std::move(ivs));
    for (const Interval& iv : coalesced.intervals()) rows.push_back({oid, iv});
  }
  out.rows_ = Rows::Build(std::move(rows));
  return out;
}

TemporalFunction ExtentRows::Function(TimePoint end) const {
  const Interval dom = Domain(end);
  if (dom.empty()) return {};
  // The members change only where a row starts or just after one ends.
  std::map<TimePoint, std::vector<std::pair<Oid, bool>>> changes{
      {dom.start(), {}}};
  ForEachRow([&](const Row& r) {
    const TimePoint s = std::max(r.iv.start(), dom.start());
    const TimePoint e = std::min(r.iv.end(), dom.end());
    if (s > e) return;
    changes[s].emplace_back(r.oid, true);
    if (e < dom.end()) changes[e + 1].emplace_back(r.oid, false);
  });
  std::set<Oid> members;
  std::vector<TemporalFunction::Segment> segments;
  for (auto it = changes.begin(); it != changes.end(); ++it) {
    for (const auto& [oid, join] : it->second) {
      if (join) {
        members.insert(oid);
      } else {
        members.erase(oid);
      }
    }
    std::vector<Value> set;
    for (Oid oid : members) set.push_back(Value::OfOid(oid));
    const auto next = std::next(it);
    const TimePoint to = next == changes.end() ? dom.end() : next->first - 1;
    segments.push_back({Interval(it->first, to), Value::Set(std::move(set))});
  }
  // Disjoint by construction, so Make only coalesces.
  return *TemporalFunction::Make(std::move(segments));
}

Interval ExtentRows::Domain(TimePoint end) const {
  return since_.has_value() ? Interval(*since_, end) : Interval::Empty();
}

ChunkPos ExtentRows::Seek(Oid oid, TimePoint from) const {
  // An oid's rows are disjoint, so their ends ascend with their starts:
  // the rows ending at or after `from` are a suffix of its block.
  return rows_.PartitionPoint([&](const Row& r) {
    return r.oid < oid || (r.oid == oid && r.iv.end() < from);
  });
}

bool ExtentRows::Contains(Oid oid, TimePoint t) const {
  // The first row of `oid` ending at or after t is the only candidate.
  const ChunkPos p = Seek(oid, t);
  if (p == rows_.All().last) return false;
  const Row& r = rows_.At(p);
  return r.oid == oid && r.iv.start() <= t;
}

std::vector<Oid> ExtentRows::At(TimePoint t) const {
  std::vector<Oid> out;
  for (size_t c = 0; c < rows_.chunk_count(); ++c) {
    if (rows_.ChunkSummary(c).end < t) continue;
    for (const Row& r : rows_.ChunkEntries(c)) {
      if (r.iv.start() <= t && t <= r.iv.end()) out.push_back(r.oid);
    }
  }
  return out;
}

std::vector<Interval> ExtentRows::RowsOf(Oid oid, TimePoint from) const {
  std::vector<Interval> out;
  rows_.ForEach(
      {Seek(oid, from),
       rows_.PartitionPoint([&](const Row& r) { return r.oid <= oid; })},
      [&](const Row& r) { out.push_back(r.iv); });
  return out;
}

void ExtentRows::Replace(Oid oid, const std::vector<Interval>& old,
                         const std::vector<Interval>& fresh) {
  if (old == fresh) return;
  for (const Interval& iv : old) rows_.Erase({oid, iv});
  for (const Interval& iv : fresh) rows_.Insert({oid, iv});
}

Status ExtentRows::Add(Oid oid, TimePoint t) {
  since_ = since_.has_value() ? std::min(*since_, t) : t;
  // The rows ending at or after t-1 meet [t, now] and merge with it.
  const std::vector<Interval> old = RowsOf(oid, t - 1);
  const TimePoint start = old.empty() ? t : std::min(t, old.front().start());
  Replace(oid, old, {Interval::FromUntilNow(start)});
  return Status::OK();
}

Status ExtentRows::Remove(Oid oid, TimePoint t) {
  // Of the rows ending at or after t, only the first can start before t
  // and keep that part.
  const std::vector<Interval> old = RowsOf(oid, t);
  std::vector<Interval> fresh;
  if (!old.empty() && old.front().start() < t) {
    fresh.emplace_back(old.front().start(), t - 1);
  }
  Replace(oid, old, fresh);
  return Status::OK();
}

void ExtentRows::Clip(TimePoint t) {
  std::vector<Row> kept;
  ForEachRow([&](const Row& r) {
    if (r.iv.start() <= t) {
      kept.push_back(
          {r.oid, Interval(r.iv.start(), std::min(r.iv.end(), t))});
    }
  });
  rows_ = Rows::Build(std::move(kept));
}

void ExtentRows::Erase(Oid oid) { Replace(oid, RowsOf(oid), {}); }

std::string MethodDef::ToString() const {
  std::string out = name + ": ";
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) out += " x ";
    out += inputs[i]->ToString();
  }
  if (inputs.empty()) out += "()";
  out += " -> ";
  out += output == nullptr ? "void" : output->ToString();
  return out;
}

const char* ClassKindName(ClassKind kind) {
  return kind == ClassKind::kStatic ? "static" : "historical";
}

ClassDef::ClassDef(std::string name, TimePoint created_at,
                   std::vector<std::string> direct_superclasses,
                   std::vector<AttributeDef> effective_attributes,
                   std::vector<MethodDef> effective_methods,
                   std::vector<AttributeDef> effective_c_attributes,
                   std::vector<MethodDef> effective_c_methods)
    : name_(std::move(name)),
      lifespan_(Interval::FromUntilNow(created_at)),
      superclasses_(std::move(direct_superclasses)),
      attributes_(std::move(effective_attributes)),
      methods_(std::move(effective_methods)),
      c_attributes_(std::move(effective_c_attributes)),
      c_methods_(std::move(effective_c_methods)),
      metaclass_("m-" + name_) {
  SortByName(&attributes_);
  SortByName(&methods_);
  SortByName(&c_attributes_);
  SortByName(&c_methods_);
  c_attr_values_.resize(c_attributes_.size());  // all null initially
}

ClassKind ClassDef::kind() const {
  for (const AttributeDef& a : c_attributes_) {
    if (a.is_temporal()) return ClassKind::kHistorical;
  }
  return ClassKind::kStatic;
}

Value ClassDef::History() const {
  std::vector<Value::Field> fields;
  fields.reserve(c_attributes_.size() + 2);
  for (size_t i = 0; i < c_attributes_.size(); ++i) {
    fields.emplace_back(c_attributes_[i].name, c_attr_values_[i]);
  }
  fields.emplace_back("ext", Value::Temporal(ext()));
  fields.emplace_back("proper-ext", Value::Temporal(proper_ext()));
  // Field names are unique by construction ("ext"/"proper-ext" are
  // reserved and rejected as c-attribute names at definition time).
  Result<Value> record = Value::Record(std::move(fields));
  return record.ok() ? std::move(record).value() : Value::Null();
}

const AttributeDef* ClassDef::FindAttribute(std::string_view name) const {
  auto it = std::lower_bound(
      attributes_.begin(), attributes_.end(), name,
      [](const AttributeDef& a, std::string_view n) { return a.name < n; });
  if (it == attributes_.end() || it->name != name) return nullptr;
  return &*it;
}

const AttributeDef* ClassDef::FindCAttribute(std::string_view name) const {
  auto it = std::lower_bound(
      c_attributes_.begin(), c_attributes_.end(), name,
      [](const AttributeDef& a, std::string_view n) { return a.name < n; });
  if (it == c_attributes_.end() || it->name != name) return nullptr;
  return &*it;
}

const MethodDef* ClassDef::FindMethod(std::string_view name) const {
  auto it = std::lower_bound(
      methods_.begin(), methods_.end(), name,
      [](const MethodDef& m, std::string_view n) { return m.name < n; });
  if (it == methods_.end() || it->name != name) return nullptr;
  return &*it;
}

bool ClassDef::HasTemporalAttributes() const {
  for (const AttributeDef& a : attributes_) {
    if (a.is_temporal()) return true;
  }
  return false;
}

bool ClassDef::HasStaticAttributes() const {
  for (const AttributeDef& a : attributes_) {
    if (!a.is_temporal()) return true;
  }
  return false;
}

const Type* ClassDef::StructuralType() const {
  if (attributes_.empty()) return nullptr;
  std::vector<RecordField> fields;
  fields.reserve(attributes_.size());
  for (const AttributeDef& a : attributes_) {
    fields.push_back({a.name, a.type});
  }
  Result<const Type*> r = types::RecordOf(std::move(fields));
  return r.ok() ? r.value() : nullptr;
}

const Type* ClassDef::HistoricalType() const {
  std::vector<RecordField> fields;
  for (const AttributeDef& a : attributes_) {
    if (!a.is_temporal()) continue;
    // (a_i, T'_i) with T'_i = T^-(T_i).
    fields.push_back({a.name, a.type->element()});
  }
  if (fields.empty()) return nullptr;
  Result<const Type*> r = types::RecordOf(std::move(fields));
  return r.ok() ? r.value() : nullptr;
}

const Type* ClassDef::StaticType() const {
  std::vector<RecordField> fields;
  for (const AttributeDef& a : attributes_) {
    if (a.is_temporal()) continue;
    fields.push_back({a.name, a.type});
  }
  if (fields.empty()) return nullptr;
  Result<const Type*> r = types::RecordOf(std::move(fields));
  return r.ok() ? r.value() : nullptr;
}

IntervalSet ClassDef::MemberIntervals(Oid oid, TimePoint current) const {
  std::vector<Interval> out = ext_.RowsOf(oid);
  for (Interval& iv : out) iv = iv.Resolve(current);
  return IntervalSet(std::move(out));
}

Result<Value> ClassDef::CAttributeValue(std::string_view name) const {
  for (size_t i = 0; i < c_attributes_.size(); ++i) {
    if (c_attributes_[i].name == name) return c_attr_values_[i];
  }
  return Status::NotFound("class " + name_ + " has no c-attribute '" +
                          std::string(name) + "'");
}

Status ClassDef::SetCAttribute(std::string_view name, Value v, TimePoint t) {
  for (size_t i = 0; i < c_attributes_.size(); ++i) {
    if (c_attributes_[i].name != name) continue;
    if (c_attributes_[i].is_temporal()) {
      TemporalFunction f;
      if (c_attr_values_[i].kind() == ValueKind::kTemporal) {
        f = c_attr_values_[i].AsTemporal();
      }
      TCH_RETURN_IF_ERROR(f.AssertFrom(t, std::move(v)));
      c_attr_values_[i] = Value::Temporal(std::move(f));
    } else {
      c_attr_values_[i] = std::move(v);
    }
    return Status::OK();
  }
  return Status::NotFound("class " + name_ + " has no c-attribute '" +
                          std::string(name) + "'");
}

Status ClassDef::RestoreState(const Interval& lifespan, TemporalFunction ext,
                              TemporalFunction proper_ext,
                              std::vector<Value> c_attr_values) {
  if (c_attr_values.size() != c_attributes_.size()) {
    return Status::Corruption(
        "class " + name_ + ": restored " +
        std::to_string(c_attr_values.size()) + " c-attribute values for " +
        std::to_string(c_attributes_.size()) + " c-attributes");
  }
  lifespan_ = lifespan;
  ext_ = ExtentRows::FromFunction(ext);
  proper_ext_ = ExtentRows::FromFunction(proper_ext);
  c_attr_values_ = std::move(c_attr_values);
  return Status::OK();
}

void ClassDef::ScrubFromExtents(Oid oid) {
  ext_.Erase(oid);
  proper_ext_.Erase(oid);
}

Status ClassDef::CloseLifespan(TimePoint t) {
  if (!lifespan_.is_ongoing()) {
    return Status::FailedPrecondition("class " + name_ +
                                      " is already deleted");
  }
  if (t < lifespan_.start()) {
    return Status::TemporalError("cannot close lifespan of class " + name_ +
                                 " before its creation");
  }
  lifespan_ = Interval(lifespan_.start(), t);
  ext_.Clip(t);
  proper_ext_.Clip(t);
  return Status::OK();
}

}  // namespace tchimera
