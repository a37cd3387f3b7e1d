#include "core/db/database.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "common/string_util.h"
#include "core/schema/refinement.h"
#include "core/types/type_registry.h"

namespace tchimera {
namespace {

// COW epochs are process-global and strictly increasing, so no two
// Database copies ever share an epoch (see the ClassSlot comment in
// database.h). Relaxed is enough: epochs only need uniqueness, and the
// copies themselves are handed across threads with proper publication
// (VersionedDatabase's atomic version pointer).
uint64_t NextCowEpoch() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::atomic<int64_t> g_live_databases{0};

// The first of an ObjectShard's slots whose oid is not below `id`.
template <typename Slots>
auto SlotLowerBound(Slots& slots, uint64_t id) {
  return std::lower_bound(
      slots.begin(), slots.end(), id,
      [](const auto& entry, uint64_t key) { return entry.first < key; });
}

// The first of the index table's slots (sorted by name) whose name is
// not below `name`.
template <typename Slots>
auto IndexSlotLowerBound(Slots& slots, std::string_view name) {
  return std::lower_bound(
      slots.begin(), slots.end(), name,
      [](const auto& slot, std::string_view key) {
        return slot.def->name < key;
      });
}

// Attribute names reserved for the class history record (Definition 4.1).
bool IsReservedName(std::string_view name) {
  return name == "ext" || name == "proper-ext";
}

Status ValidateMemberType(const std::string& owner, const char* kind,
                          const std::string& name, const Type* type) {
  if (type == nullptr) {
    return Status::InvalidArgument(kind + (" '" + name + "' of class ") +
                                   owner + " has no type");
  }
  if (type->ContainsAny()) {
    return Status::TypeError(kind + (" '" + name + "' of class ") + owner +
                             ": type " + type->ToString() +
                             " contains the pseudo-type 'any'");
  }
  return Status::OK();
}

}  // namespace

// --- construction / COW machinery -------------------------------------------

Database::Database()
    : isa_(std::make_shared<IsaGraph>()),
      classes_(std::make_shared<ClassTable>()),
      spine_(std::make_shared<Spine>()),
      indexes_(std::make_shared<IndexTable>()) {
  const uint64_t epoch = NextCowEpoch();
  cow_epoch_.store(epoch, std::memory_order_relaxed);
  isa_epoch_ = epoch;
  classes_->epoch = epoch;
  spine_->epoch = epoch;
  indexes_->epoch = epoch;
  for (std::shared_ptr<SpineGroup>& group : spine_->groups) {
    group = std::make_shared<SpineGroup>();
    group->epoch = epoch;
  }
  g_live_databases.fetch_add(1, std::memory_order_relaxed);
}

Database::Database(const Database& other)
    : clock_(other.clock_),
      isa_(other.isa_),
      isa_epoch_(other.isa_epoch_),
      classes_(other.classes_),
      spine_(other.spine_),
      indexes_(other.indexes_),
      index_before_(other.index_before_),
      next_oid_(other.next_oid_),
      schema_version_(other.schema_version_) {
  // Both sides get fresh epochs: every structure the two copies now share
  // carries an epoch neither side owns, so whichever side mutates first
  // clones before writing. Epochs are strictly increasing, so a stale
  // slot can never collide with a fresh epoch.
  cow_epoch_.store(NextCowEpoch(), std::memory_order_relaxed);
  other.cow_epoch_.store(NextCowEpoch(), std::memory_order_relaxed);
  g_live_databases.fetch_add(1, std::memory_order_relaxed);
}

Database::~Database() {
  g_live_databases.fetch_sub(1, std::memory_order_relaxed);
}

int64_t Database::live_instance_count() {
  return g_live_databases.load(std::memory_order_relaxed);
}

Database::ClassTable& Database::MutableClassTable() {
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  if (classes_->epoch != epoch) {
    auto clone = std::make_shared<ClassTable>(*classes_);
    clone->epoch = epoch;
    classes_ = std::move(clone);
  }
  return *classes_;
}

const Database::ObjectSlot* Database::ObjectShard::Find(uint64_t id) const {
  auto it = SlotLowerBound(slots, id);
  return it != slots.end() && it->first == id ? &it->second : nullptr;
}

Database::ObjectSlot* Database::ObjectShard::Find(uint64_t id) {
  auto it = SlotLowerBound(slots, id);
  return it != slots.end() && it->first == id ? &it->second : nullptr;
}

void Database::ObjectShard::Put(uint64_t id, ObjectSlot slot) {
  auto it = SlotLowerBound(slots, id);
  if (it != slots.end() && it->first == id) {
    it->second = std::move(slot);
  } else {
    slots.emplace(it, id, std::move(slot));
  }
}

void Database::ObjectShard::Erase(uint64_t id) {
  auto it = SlotLowerBound(slots, id);
  if (it != slots.end() && it->first == id) slots.erase(it);
}

Database::SpineGroup& Database::MutableGroup(size_t s) {
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  if (spine_->epoch != epoch) {
    auto clone = std::make_shared<Spine>(*spine_);
    clone->epoch = epoch;
    spine_ = std::move(clone);
  }
  std::shared_ptr<SpineGroup>& group = spine_->groups[s / kSpineFanout];
  if (group->epoch != epoch) {
    auto clone = std::make_shared<SpineGroup>(*group);
    clone->epoch = epoch;
    group = std::move(clone);
  }
  return *group;
}

Database::ObjectShard& Database::MutableShard(uint64_t id) {
  if (!indexes_->slots.empty() && !index_before_.contains(id)) {
    const Object* obj = GetObject(Oid{id});
    std::vector<IndexedFacts>& before = index_before_[id];
    before.reserve(indexes_->slots.size());
    for (const IndexSlot& slot : indexes_->slots) {
      before.push_back(CaptureIndexedFacts(*slot.def, obj));
    }
  }
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  const size_t s = ShardIndex(id);
  std::shared_ptr<ObjectShard>& shard =
      MutableGroup(s).objects[s % kSpineFanout];
  if (shard == nullptr) {
    shard = std::make_shared<ObjectShard>();
    shard->epoch = epoch;
  } else if (shard->epoch != epoch) {
    auto clone = std::make_shared<ObjectShard>(*shard);
    clone->epoch = epoch;
    shard = std::move(clone);
  }
  return *shard;
}

Database::IndexTable& Database::MutableIndexTable() {
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  if (indexes_->epoch != epoch) {
    auto clone = std::make_shared<IndexTable>(*indexes_);
    clone->epoch = epoch;
    indexes_ = std::move(clone);
  }
  return *indexes_;
}

const Database::IndexSlot* Database::FindIndexSlot(
    std::string_view name) const {
  const std::vector<IndexSlot>& slots = indexes_->slots;
  auto it = IndexSlotLowerBound(slots, name);
  return it != slots.end() && it->def->name == name ? &*it : nullptr;
}

void Database::ReindexOid(uint64_t id) {
  auto captured = index_before_.find(id);
  if (captured == index_before_.end()) return;  // never touched
  const std::vector<IndexedFacts>& before = captured->second;
  assert(before.size() == indexes_->slots.size());
  const Object* obj = GetObject(Oid{id});
  for (size_t i = 0; i < before.size(); ++i) {
    const IndexedFacts after = CaptureIndexedFacts(*indexes_->slots[i].def, obj);
    if (!SameIndexedFacts(before[i], after)) {
      MutableIndexTable().slots[i].postings.ApplyDelta(Oid{id}, before[i],
                                                        after);
    }
  }
  index_before_.erase(captured);
}

void Database::ReindexCaptured() {
  while (!index_before_.empty()) ReindexOid(index_before_.begin()->first);
}

IndexPostings Database::BuildIndex(const IndexDef& def) const {
  std::vector<const Object*> objects;
  for (size_t s = 0; s < kObjectShardCount; ++s) {
    if (const ObjectShard* shard = ObjectShardAt(s); shard != nullptr) {
      for (const auto& [unused, slot] : shard->slots) {
        objects.push_back(slot.obj.get());
      }
    }
  }
  return IndexPostings::Build(def, objects);
}

Status Database::CreateIndex(const IndexDef& def) {
  if (!IsIdentifier(def.name)) {
    return Status::InvalidArgument("index name '" + def.name +
                                   "' is not a valid identifier");
  }
  if (FindIndexSlot(def.name) != nullptr) {
    return Status::AlreadyExists("index " + def.name + " already exists");
  }
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(def.class_name));
  if (def.kind == IndexKind::kValue &&
      cls->FindAttribute(def.attr) == nullptr) {
    return Status::NotFound("class " + def.class_name +
                            " has no attribute '" + def.attr + "'");
  }
  // Index DDL is a schema-shape change: it must invalidate every cached
  // plan (schema_version gates the PlanCache, negative entries included)
  // and serialize against every concurrent commit (the full build below
  // reads every object).
  footprint_.schema_changed = true;
  ++schema_version_;
  // Captures are laid out per slot, so none may be pending across the
  // slot insertion.
  ReindexCaptured();
  std::vector<IndexSlot>& slots = MutableIndexTable().slots;
  slots.insert(IndexSlotLowerBound(slots, def.name),
               IndexSlot{std::make_shared<const IndexDef>(def),
                         BuildIndex(def)});
  return Status::OK();
}

Status Database::DropIndex(std::string_view name) {
  const IndexSlot* found = FindIndexSlot(name);
  if (found == nullptr) {
    return Status::NotFound("index " + std::string(name) +
                            " does not exist");
  }
  footprint_.schema_changed = true;
  ++schema_version_;
  ReindexCaptured();
  const size_t at = static_cast<size_t>(found - indexes_->slots.data());
  std::vector<IndexSlot>& slots = MutableIndexTable().slots;
  slots.erase(slots.begin() + static_cast<ptrdiff_t>(at));
  return Status::OK();
}

const IndexDef* Database::GetIndexDef(std::string_view name) const {
  const IndexSlot* slot = FindIndexSlot(name);
  return slot == nullptr ? nullptr : slot->def.get();
}

std::vector<IndexDef> Database::IndexDefs() const {
  std::vector<IndexDef> out;
  out.reserve(indexes_->slots.size());
  for (const IndexSlot& slot : indexes_->slots) out.push_back(*slot.def);
  return out;
}

const IndexDef* Database::FindValueIndex(std::string_view attr) const {
  for (const IndexSlot& slot : indexes_->slots) {
    if (slot.def->kind == IndexKind::kValue && slot.def->attr == attr) {
      return slot.def.get();
    }
  }
  return nullptr;
}

std::vector<Oid> Database::IndexProbe(std::string_view index_name,
                                      ProbeOp op, const Value& bound,
                                      TimePoint t) const {
  std::vector<Oid> out;
  const IndexSlot* slot = FindIndexSlot(index_name);
  if (slot == nullptr) return out;
  slot->postings.ForEachMatch(op, bound, [&](const IndexEntry& e) {
    // Raw containment (ongoing = valid at every t >= start): matches
    // TemporalFunction::At, which the scan path projects with, even
    // for instants beyond the current clock.
    if (e.valid.ContainsResolved(t)) out.push_back(e.oid);
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t Database::IndexProbeEstimate(std::string_view index_name, ProbeOp op,
                                    const Value& bound) const {
  const IndexSlot* slot = FindIndexSlot(index_name);
  return slot == nullptr ? 0 : slot->postings.CountMatches(op, bound);
}

size_t Database::IndexEntryCount(std::string_view index_name) const {
  const IndexSlot* slot = FindIndexSlot(index_name);
  return slot == nullptr ? 0 : slot->postings.size();
}

const IndexPostings* Database::FindIndexPostings(
    std::string_view index_name) const {
  const IndexSlot* slot = FindIndexSlot(index_name);
  return slot == nullptr ? nullptr : &slot->postings;
}

std::string Database::DebugDumpIndexes() const {
  std::string out;
  for (const IndexSlot& slot : indexes_->slots) {
    const IndexDef& def = *slot.def;
    out += "index " + def.name + " kind=" + IndexKindName(def.kind) +
           " class=" + def.class_name + " attr=" +
           (def.attr.empty() ? "-" : def.attr) + "\n";
    slot.postings.ForEach([&](const IndexEntry& e) {
      out += "  post " + e.value.ToString() + " " + e.valid.ToString() + " " +
             e.oid.ToString() + "\n";
    });
  }
  return out;
}

IsaGraph& Database::MutableIsa() {
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  if (isa_epoch_ != epoch) {
    isa_ = std::make_shared<IsaGraph>(*isa_);
    isa_epoch_ = epoch;
  }
  return *isa_;
}

ClassDef* Database::GetMutableClass(std::string_view name) {
  // Miss-check against the shared table first so NotFound paths do not
  // clone the spine.
  if (classes_->map.find(name) == classes_->map.end()) return nullptr;
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  ClassSlot& slot = MutableClassTable().map.find(name)->second;
  if (slot.epoch != epoch) {
    slot.def = std::make_shared<ClassDef>(*slot.def);
    slot.epoch = epoch;
  }
  footprint_.classes.insert(std::string(name));
  return slot.def.get();
}

// --- schema ------------------------------------------------------------------

Status Database::DefineClass(const ClassSpec& spec) {
  if (!IsIdentifier(spec.name)) {
    return Status::InvalidArgument("class name '" + spec.name +
                                   "' is not a valid identifier");
  }
  if (classes_->map.count(spec.name) != 0) {
    return Status::AlreadyExists("class " + spec.name + " already exists");
  }
  std::vector<const ClassDef*> supers;
  for (const std::string& super : spec.superclasses) {
    TCH_ASSIGN_OR_RETURN(const ClassDef* sc, FindClass(super));
    if (!sc->alive()) {
      return Status::FailedPrecondition("superclass " + super +
                                        " has been deleted");
    }
    supers.push_back(sc);
  }
  for (const AttributeDef& a : spec.attributes) {
    if (!IsIdentifier(a.name)) {
      return Status::InvalidArgument("attribute name '" + a.name +
                                     "' is not a valid identifier");
    }
    TCH_RETURN_IF_ERROR(
        ValidateMemberType(spec.name, "attribute", a.name, a.type));
  }
  for (const AttributeDef& a : spec.c_attributes) {
    if (!IsIdentifier(a.name) || IsReservedName(a.name)) {
      return Status::InvalidArgument(
          "c-attribute name '" + a.name +
          "' is not a valid identifier (note 'ext' and 'proper-ext' are "
          "reserved)");
    }
    TCH_RETURN_IF_ERROR(
        ValidateMemberType(spec.name, "c-attribute", a.name, a.type));
  }
  for (const MethodDef& m : spec.methods) {
    if (!IsIdentifier(m.name)) {
      return Status::InvalidArgument("method name '" + m.name +
                                     "' is not a valid identifier");
    }
    for (const Type* in : m.inputs) {
      TCH_RETURN_IF_ERROR(ValidateMemberType(spec.name, "method", m.name, in));
    }
    TCH_RETURN_IF_ERROR(
        ValidateMemberType(spec.name, "method", m.name, m.output));
  }
  for (const MethodDef& m : spec.c_methods) {
    for (const Type* in : m.inputs) {
      TCH_RETURN_IF_ERROR(
          ValidateMemberType(spec.name, "c-method", m.name, in));
    }
    TCH_RETURN_IF_ERROR(
        ValidateMemberType(spec.name, "c-method", m.name, m.output));
  }
  // Rule 6.1 / method variance checks + member merge.
  TCH_ASSIGN_OR_RETURN(MergedMembers merged,
                       MergeClassMembers(spec, supers, *isa_));
  footprint_.schema_changed = true;
  ++schema_version_;
  TCH_RETURN_IF_ERROR(MutableIsa().AddClass(spec.name, spec.superclasses));
  MutableClassTable().map.emplace(
      spec.name,
      ClassSlot{std::make_shared<ClassDef>(spec.name, now(),
                                           spec.superclasses,
                                           std::move(merged.attributes),
                                           std::move(merged.methods),
                                           std::move(merged.c_attributes),
                                           std::move(merged.c_methods)),
                cow_epoch_.load(std::memory_order_relaxed)});
  return Status::OK();
}

Status Database::DropClass(std::string_view name) {
  ClassDef* cls = GetMutableClass(name);
  if (cls == nullptr) {
    return Status::NotFound("class " + std::string(name) + " does not exist");
  }
  if (!cls->alive()) {
    return Status::FailedPrecondition("class " + std::string(name) +
                                      " is already deleted");
  }
  if (!cls->ExtentAt(now()).empty()) {
    return Status::FailedPrecondition("class " + std::string(name) +
                                      " still has members");
  }
  for (const std::string& sub : isa_->Subclasses(name)) {
    const ClassDef* c = GetClass(sub);
    if (c != nullptr && c->alive()) {
      return Status::FailedPrecondition("class " + std::string(name) +
                                        " still has a live subclass " + sub);
    }
  }
  // Dropping ends the class lifespan, which gates superclass liveness and
  // creations database-wide — serialize against every concurrent commit.
  footprint_.schema_changed = true;
  ++schema_version_;
  return cls->CloseLifespan(now());
}

const ClassDef* Database::GetClass(std::string_view name) const {
  auto it = classes_->map.find(name);
  return it == classes_->map.end() ? nullptr : it->second.def.get();
}

Result<const ClassDef*> Database::FindClass(std::string_view name) const {
  const ClassDef* cls = GetClass(name);
  if (cls == nullptr) {
    return Status::NotFound("class " + std::string(name) + " does not exist");
  }
  return cls;
}

std::vector<std::string> Database::ClassNames() const {
  std::vector<std::string> out;
  out.reserve(classes_->map.size());
  for (const auto& [name, unused] : classes_->map) out.push_back(name);
  return out;
}

Status Database::SetClassAttribute(std::string_view class_name,
                                   std::string_view attr_name, Value v) {
  ClassDef* cls = GetMutableClass(class_name);
  if (cls == nullptr) {
    return Status::NotFound("class " + std::string(class_name) +
                            " does not exist");
  }
  const AttributeDef* attr = cls->FindCAttribute(attr_name);
  if (attr == nullptr) {
    return Status::NotFound("class " + std::string(class_name) +
                            " has no c-attribute '" + std::string(attr_name) +
                            "'");
  }
  const Type* check_type =
      attr->is_temporal() ? attr->type->element() : attr->type;
  TCH_RETURN_IF_ERROR(
      CheckLegalValue(v, check_type, now(), typing_context()));
  return cls->SetCAttribute(attr_name, std::move(v), now());
}

Result<Value> Database::ClassHistory(std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  return cls->History();
}

Result<Object> Database::MetaObjectOf(std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  // Synthetic oid: offset past any real object so the two id spaces never
  // collide (meta-objects are views, not stored objects).
  constexpr uint64_t kMetaOidBase = 1ull << 62;
  uint64_t index = 1;
  for (const std::string& name : ClassNames()) {
    if (name == class_name) break;
    ++index;
  }
  Object meta(Oid{kMetaOidBase + index}, cls->metaclass(),
              cls->lifespan().start());
  if (!cls->lifespan().is_ongoing()) {
    TCH_RETURN_IF_ERROR(meta.CloseLifespan(cls->lifespan().end()));
  }
  for (const AttributeDef& a : cls->c_attributes()) {
    TCH_ASSIGN_OR_RETURN(Value v, cls->CAttributeValue(a.name));
    meta.SetAttribute(a.name, std::move(v));
  }
  meta.SetAttribute("ext", Value::Temporal(cls->ext()));
  meta.SetAttribute("proper-ext", Value::Temporal(cls->proper_ext()));
  return meta;
}

Result<ClassSpec> Database::MetaclassSpecOf(
    std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  ClassSpec spec;
  spec.name = cls->metaclass();
  spec.attributes = cls->c_attributes();
  // ext / proper-ext: temporal sets of members / instances. Their element
  // type is the described class itself.
  const Type* oid_set = types::SetOf(types::Object(cls->name()));
  TCH_ASSIGN_OR_RETURN(const Type* temporal_set, types::Temporal(oid_set));
  spec.attributes.push_back({"ext", temporal_set});
  spec.attributes.push_back({"proper-ext", temporal_set});
  spec.methods = cls->c_methods();
  return spec;
}

// --- object lifecycle ----------------------------------------------------------

Status Database::InstallInitialValue(Object* obj, const AttributeDef& attr,
                                     Value v, TimePoint start) {
  if (!attr.is_temporal()) {
    TCH_RETURN_IF_ERROR(
        CheckLegalValue(v, attr.type, now(), typing_context()));
    obj->SetAttribute(attr.name, std::move(v));
    return Status::OK();
  }
  if (v.kind() == ValueKind::kTemporal) {
    // A full history supplied at creation: must be legal for the temporal
    // type and lie within the object lifespan.
    TCH_RETURN_IF_ERROR(
        CheckLegalValue(v, attr.type, start, typing_context()));
    if (!v.AsTemporal().empty() && v.AsTemporal().DomainStart() < start) {
      return Status::TemporalError(
          "initial history of attribute '" + attr.name +
          "' starts before the object lifespan");
    }
    obj->SetAttribute(attr.name, std::move(v));
    return Status::OK();
  }
  // A plain value of the static counterpart type, asserted from `start`.
  TCH_RETURN_IF_ERROR(
      CheckLegalValue(v, attr.type->element(), start, typing_context()));
  return obj->AssertTemporalAttribute(attr.name, start, std::move(v));
}

Result<Oid> Database::CreateObject(std::string_view class_name,
                                   FieldInits init) {
  return CreateObjectAt(class_name, now(), std::move(init));
}

Result<Oid> Database::CreateObjectAt(std::string_view class_name,
                                     TimePoint start, FieldInits init) {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  if (!cls->alive()) {
    return Status::FailedPrecondition("class " + std::string(class_name) +
                                      " has been deleted");
  }
  if (start > now()) {
    return Status::TemporalError(
        "objects cannot be created in the future (start=" +
        InstantToString(start) + ", now=" + InstantToString(now()) + ")");
  }
  if (!cls->lifespan().ContainsResolved(start)) {
    return Status::TemporalError(
        "creation instant " + InstantToString(start) +
        " is outside the lifespan of class " + std::string(class_name));
  }
  Oid oid{next_oid_};
  auto obj = std::make_shared<Object>(oid, std::string(class_name), start);

  // Initial values: every attribute of the class gets a slot. Explicit
  // inits are validated; missing attributes default to null (asserted from
  // `start` for temporal ones, so the object is consistent by
  // construction — Definition 5.5 requires a value for every temporal
  // attribute at every instant of membership).
  std::map<std::string, Value, std::less<>> provided;
  for (auto& [name, v] : init) {
    if (cls->FindAttribute(name) == nullptr) {
      return Status::NotFound("class " + std::string(class_name) +
                              " has no attribute '" + name + "'");
    }
    if (!provided.emplace(name, std::move(v)).second) {
      return Status::InvalidArgument("duplicate initial value for '" + name +
                                     "'");
    }
  }
  for (const AttributeDef& attr : cls->attributes()) {
    auto it = provided.find(attr.name);
    Value v = it == provided.end() ? Value::Null() : std::move(it->second);
    TCH_RETURN_IF_ERROR(InstallInitialValue(obj.get(), attr, std::move(v),
                                            start));
  }

  // Extents: instance of `cls`, member of `cls` and all superclasses.
  ClassDef* mut_cls = GetMutableClass(class_name);
  TCH_RETURN_IF_ERROR(mut_cls->AddInstance(oid, start));
  for (ClassDef* c : SelfAndSuperclasses(class_name)) {
    TCH_RETURN_IF_ERROR(c->AddMember(oid, start));
  }
  ++next_oid_;
  footprint_.oids.insert(oid.id);
  footprint_.oid_allocated = true;
  MutableShard(oid.id).Put(
      oid.id,
      ObjectSlot{std::move(obj), cow_epoch_.load(std::memory_order_relaxed)});
  ReindexOid(oid.id);
  return oid;
}

Status Database::UpdateAttribute(Oid oid, std::string_view attr, Value v) {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  if (!obj->alive()) {
    return Status::FailedPrecondition("object " + oid.ToString() +
                                      " has been deleted");
  }
  std::optional<std::string> cls_name = obj->CurrentClass();
  if (!cls_name.has_value()) {
    return Status::Internal("object " + oid.ToString() + " has no class");
  }
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(*cls_name));
  const AttributeDef* def = cls->FindAttribute(attr);
  if (def == nullptr) {
    return Status::NotFound("class " + *cls_name + " has no attribute '" +
                            std::string(attr) + "'");
  }
  Object* mut = GetMutableObject(oid);
  if (def->is_temporal()) {
    TCH_RETURN_IF_ERROR(CheckLegalValueOverInterval(
        v, def->type->element(), Interval::FromUntilNow(now()),
        typing_context()));
    TCH_RETURN_IF_ERROR(
        mut->AssertTemporalAttribute(attr, now(), std::move(v)));
    ReindexOid(oid.id);
    return Status::OK();
  }
  TCH_RETURN_IF_ERROR(CheckLegalValue(v, def->type, now(), typing_context()));
  mut->SetAttribute(attr, std::move(v));
  ReindexOid(oid.id);
  return Status::OK();
}

Status Database::UpdateAttributeAt(Oid oid, std::string_view attr,
                                   const Interval& interval, Value v) {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  std::optional<std::string> cls_name = obj->CurrentClass();
  if (!cls_name.has_value()) {
    return Status::Internal("object " + oid.ToString() + " has no class");
  }
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(*cls_name));
  const AttributeDef* def = cls->FindAttribute(attr);
  if (def == nullptr) {
    return Status::NotFound("class " + *cls_name + " has no attribute '" +
                            std::string(attr) + "'");
  }
  if (!def->is_temporal()) {
    return Status::FailedPrecondition(
        "attribute '" + std::string(attr) +
        "' is non-temporal; valid-time updates do not apply (its past "
        "values are not recorded)");
  }
  if (!obj->lifespan().Covers(interval, now())) {
    return Status::TemporalError("interval " + interval.ToString() +
                                 " is not within the lifespan of " +
                                 oid.ToString());
  }
  TCH_RETURN_IF_ERROR(CheckLegalValueOverInterval(
      v, def->type->element(), interval, typing_context()));
  TCH_RETURN_IF_ERROR(GetMutableObject(oid)->DefineTemporalAttribute(
      attr, interval, std::move(v)));
  ReindexOid(oid.id);
  return Status::OK();
}

Status Database::Migrate(Oid oid, std::string_view new_class,
                         FieldInits added) {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  if (!obj->alive()) {
    return Status::FailedPrecondition("object " + oid.ToString() +
                                      " has been deleted");
  }
  std::optional<std::string> old_name = obj->CurrentClass();
  if (!old_name.has_value()) {
    return Status::Internal("object " + oid.ToString() + " has no class");
  }
  if (*old_name == new_class) return Status::OK();
  TCH_ASSIGN_OR_RETURN(const ClassDef* old_cls, FindClass(*old_name));
  TCH_ASSIGN_OR_RETURN(const ClassDef* new_cls, FindClass(new_class));
  if (!new_cls->alive()) {
    return Status::FailedPrecondition("class " + std::string(new_class) +
                                      " has been deleted");
  }
  // Invariant 6.2: objects never migrate across hierarchies.
  TCH_ASSIGN_OR_RETURN(std::string old_h, isa_->HierarchyId(*old_name));
  TCH_ASSIGN_OR_RETURN(std::string new_h, isa_->HierarchyId(new_class));
  if (old_h != new_h) {
    return Status::FailedPrecondition(
        "cannot migrate " + oid.ToString() + " from class " + *old_name +
        " to class " + std::string(new_class) +
        ": the classes belong to different ISA hierarchies (Invariant "
        "6.2)");
  }

  TimePoint t = now();
  Object* mut = GetMutableObject(oid);

  std::map<std::string, Value, std::less<>> provided;
  for (auto& [name, v] : added) {
    if (new_cls->FindAttribute(name) == nullptr) {
      return Status::NotFound("class " + std::string(new_class) +
                              " has no attribute '" + name + "'");
    }
    provided.emplace(name, std::move(v));
  }

  // Attributes gained by the migration (Section 5.2: promotion adds
  // dependents/officialcar). Also covers re-specialization after an
  // earlier generalization: a retained temporal attribute is simply
  // asserted again from now.
  for (const AttributeDef& attr : new_cls->attributes()) {
    const bool had = old_cls->FindAttribute(attr.name) != nullptr;
    auto it = provided.find(attr.name);
    if (had && it == provided.end()) continue;
    Value v = it == provided.end() ? Value::Null() : std::move(it->second);
    if (attr.is_temporal()) {
      TCH_RETURN_IF_ERROR(CheckLegalValueOverInterval(
          v, attr.type->element(), Interval::FromUntilNow(t),
          typing_context()));
      TCH_RETURN_IF_ERROR(mut->AssertTemporalAttribute(attr.name, t,
                                                       std::move(v)));
    } else {
      TCH_RETURN_IF_ERROR(
          CheckLegalValue(v, attr.type, t, typing_context()));
      mut->SetAttribute(attr.name, std::move(v));
    }
  }
  // Attributes lost by the migration (Section 5.2: demotion drops
  // dependents/officialcar; static ones vanish, temporal ones are closed
  // but retained).
  for (const AttributeDef& attr : old_cls->attributes()) {
    if (new_cls->FindAttribute(attr.name) != nullptr) continue;
    if (attr.is_temporal()) {
      TCH_RETURN_IF_ERROR(mut->CloseTemporalAttribute(attr.name, t - 1));
    } else {
      mut->RemoveAttribute(attr.name);
    }
  }

  TCH_RETURN_IF_ERROR(mut->MigrateTo(new_class, t));

  // Extents: the instance moves between proper extents; membership is
  // recomputed as {new class + its superclasses}.
  TCH_RETURN_IF_ERROR(GetMutableClass(*old_name)->RemoveInstance(oid, t));
  TCH_RETURN_IF_ERROR(GetMutableClass(new_class)->AddInstance(oid, t));
  std::set<std::string> new_membership;
  new_membership.insert(std::string(new_class));
  for (const std::string& s : isa_->Superclasses(new_class)) {
    new_membership.insert(s);
  }
  std::set<std::string> old_membership;
  old_membership.insert(*old_name);
  for (const std::string& s : isa_->Superclasses(*old_name)) {
    old_membership.insert(s);
  }
  for (const std::string& cls : old_membership) {
    if (new_membership.count(cls) == 0) {
      TCH_RETURN_IF_ERROR(GetMutableClass(cls)->RemoveMember(oid, t));
    }
  }
  for (const std::string& cls : new_membership) {
    if (old_membership.count(cls) == 0) {
      TCH_RETURN_IF_ERROR(GetMutableClass(cls)->AddMember(oid, t));
    }
  }
  ReindexOid(oid.id);
  return Status::OK();
}

Status Database::DeleteObject(Oid oid) {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  if (!obj->alive()) {
    return Status::FailedPrecondition("object " + oid.ToString() +
                                      " is already deleted");
  }
  // Referential integrity: no *live* object may still reference oid at
  // the current time.
  for (size_t s = 0; s < kObjectShardCount; ++s) {
    const ObjectShard* shard = ObjectShardAt(s);
    if (shard == nullptr) continue;
    for (const auto& [other_id, slot] : shard->slots) {
      const Object* other = slot.obj.get();
      if (other_id == oid.id || !other->alive()) continue;
      std::vector<Oid> refs = other->ReferencedOids(now());
      if (std::binary_search(refs.begin(), refs.end(), oid)) {
        return Status::ConsistencyViolation(
            "cannot delete " + oid.ToString() + ": object " +
            other->id().ToString() + " still references it at time " +
            InstantToString(now()));
      }
    }
  }
  return DeleteObjectUnchecked(oid);
}

Status Database::DeleteObjectUnchecked(Oid oid) {
  Object* obj = GetMutableObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("object " + oid.ToString() + " does not exist");
  }
  // Deletions must re-validate referential integrity (Definition 5.6)
  // against concurrently committed writers, not just local state.
  footprint_.deleted_oids.insert(oid.id);
  TimePoint t = now();
  std::optional<std::string> cls = obj->CurrentClass();
  TCH_RETURN_IF_ERROR(obj->CloseLifespan(t));
  if (cls.has_value()) {
    ClassDef* c = GetMutableClass(*cls);
    if (c != nullptr) TCH_RETURN_IF_ERROR(c->RemoveInstance(oid, t + 1));
    for (ClassDef* sc : SelfAndSuperclasses(*cls)) {
      TCH_RETURN_IF_ERROR(sc->RemoveMember(oid, t + 1));
    }
  }
  ReindexOid(oid.id);
  return Status::OK();
}

Status Database::QuarantineObject(Oid oid) {
  if (GetObject(oid) == nullptr) {
    return Status::NotFound("object " + oid.ToString() + " does not exist");
  }
  // Recovery surgery rewrites arbitrary extents: no per-slot footprint can
  // describe it, so it conflicts with everything.
  footprint_.all = true;
  MutableShard(oid.id).Erase(oid.id);
  for (const std::string& name : ClassNames()) {
    GetMutableClass(name)->ScrubFromExtents(oid);
  }
  ReindexOid(oid.id);
  return Status::OK();
}

const Object* Database::GetObject(Oid oid) const {
  const ObjectShard* shard = ObjectShardAt(ShardIndex(oid.id));
  if (shard == nullptr) return nullptr;
  const ObjectSlot* slot = shard->Find(oid.id);
  return slot == nullptr ? nullptr : slot->obj.get();
}

Object* Database::GetMutableObject(Oid oid) {
  // Miss-check against the shared shard first so NotFound paths do not
  // clone it.
  if (GetObject(oid) == nullptr) return nullptr;
  const uint64_t epoch = cow_epoch_.load(std::memory_order_relaxed);
  ObjectSlot& slot = *MutableShard(oid.id).Find(oid.id);
  if (slot.epoch != epoch) {
    slot.obj = std::make_shared<Object>(*slot.obj);
    slot.epoch = epoch;
  }
  footprint_.oids.insert(oid.id);
  return slot.obj.get();
}

Result<const Object*> Database::FindObject(Oid oid) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) {
    return Status::NotFound("object " + oid.ToString() + " does not exist");
  }
  return obj;
}

std::vector<Oid> Database::AllOids() const {
  std::vector<Oid> out;
  out.reserve(object_count());
  for (size_t s = 0; s < kObjectShardCount; ++s) {
    const ObjectShard* shard = ObjectShardAt(s);
    if (shard == nullptr) continue;
    for (const auto& [id, unused] : shard->slots) out.push_back(Oid{id});
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t Database::object_count() const {
  size_t n = 0;
  for (size_t s = 0; s < kObjectShardCount; ++s) {
    if (const ObjectShard* shard = ObjectShardAt(s); shard != nullptr) {
      n += shard->slots.size();
    }
  }
  return n;
}

// --- Table 3 functions ------------------------------------------------------

std::vector<Oid> Database::Pi(std::string_view class_name,
                              TimePoint t) const {
  const ClassDef* cls = GetClass(class_name);
  if (cls == nullptr) return {};
  return cls->ExtentAt(ResolveInstant(t, now()));
}

Result<const Type*> Database::StructuralTypeOf(
    std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  return cls->StructuralType();
}

Result<const Type*> Database::HistoricalTypeOf(
    std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  return cls->HistoricalType();
}

Result<const Type*> Database::StaticTypeOf(
    std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  return cls->StaticType();
}

Result<Value> Database::HStateOf(Oid oid, TimePoint t) const {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  return obj->HState(ResolveInstant(t, now()));
}

Result<Value> Database::SStateOf(Oid oid) const {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  return obj->SState();
}

Result<Interval> Database::OLifespan(Oid oid) const {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  return obj->lifespan();
}

Result<IntervalSet> Database::MLifespan(Oid oid,
                                        std::string_view class_name) const {
  TCH_ASSIGN_OR_RETURN(const ClassDef* cls, FindClass(class_name));
  TCH_RETURN_IF_ERROR(FindObject(oid).status());
  return cls->MemberIntervals(oid, now());
}

Result<std::vector<Oid>> Database::Ref(Oid oid, TimePoint t) const {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  return obj->ReferencedOids(ResolveInstant(t, now()));
}

Result<Value> Database::SnapshotOf(Oid oid, TimePoint t) const {
  TCH_ASSIGN_OR_RETURN(const Object* obj, FindObject(oid));
  return obj->Snapshot(t, now());
}

// --- ExtentProvider ------------------------------------------------------------

bool Database::InExtent(std::string_view class_name, Oid oid,
                        TimePoint t) const {
  const ClassDef* cls = GetClass(class_name);
  if (cls == nullptr) return false;
  return cls->InExtentAt(oid, ResolveInstant(t, now()));
}

bool Database::InExtentThroughout(std::string_view class_name, Oid oid,
                                  const Interval& interval) const {
  const ClassDef* cls = GetClass(class_name);
  if (cls == nullptr) return false;
  return cls->RawMemberIntervals(oid).CoversInterval(interval);
}

std::optional<std::string> Database::MostSpecificClass(Oid oid,
                                                       TimePoint t) const {
  const Object* obj = GetObject(oid);
  if (obj == nullptr) return std::nullopt;
  return obj->ClassAt(ResolveInstant(t, now()));
}

std::vector<ClassDef*> Database::SelfAndSuperclasses(std::string_view name) {
  std::vector<ClassDef*> out;
  ClassDef* self = GetMutableClass(name);
  if (self == nullptr) return out;
  out.push_back(self);
  for (const std::string& super : isa_->Superclasses(name)) {
    ClassDef* c = GetMutableClass(super);
    if (c != nullptr) out.push_back(c);
  }
  return out;
}

Status Database::RestoreClass(const ClassSpec& effective_spec,
                              const Interval& lifespan, TemporalFunction ext,
                              TemporalFunction proper_ext,
                              std::vector<Value::Field> c_attr_values) {
  if (classes_->map.count(effective_spec.name) != 0) {
    return Status::AlreadyExists("class " + effective_spec.name +
                                 " already exists");
  }
  footprint_.schema_changed = true;
  ++schema_version_;
  TCH_RETURN_IF_ERROR(
      MutableIsa().AddClass(effective_spec.name,
                            effective_spec.superclasses));
  auto cls = std::make_shared<ClassDef>(
      effective_spec.name, lifespan.start(), effective_spec.superclasses,
      effective_spec.attributes, effective_spec.methods,
      effective_spec.c_attributes, effective_spec.c_methods);
  // Reorder the c-attribute values to the class's sorted layout.
  std::vector<Value> values(cls->c_attributes().size());
  for (auto& [name, v] : c_attr_values) {
    bool found = false;
    for (size_t i = 0; i < cls->c_attributes().size(); ++i) {
      if (cls->c_attributes()[i].name == name) {
        values[i] = std::move(v);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::Corruption("restored value for unknown c-attribute '" +
                                name + "' of class " + effective_spec.name);
    }
  }
  TCH_RETURN_IF_ERROR(cls->RestoreState(lifespan, std::move(ext),
                                        std::move(proper_ext),
                                        std::move(values)));
  MutableClassTable().map.emplace(
      effective_spec.name,
      ClassSlot{std::move(cls),
                cow_epoch_.load(std::memory_order_relaxed)});
  return Status::OK();
}

Status Database::RestoreObject(Oid oid, const Interval& lifespan,
                               TemporalFunction class_history,
                               std::vector<Value::Field> attributes) {
  if (GetObject(oid) != nullptr) {
    return Status::AlreadyExists("object " + oid.ToString() +
                                 " already exists");
  }
  auto obj = std::make_shared<Object>(oid, "", lifespan.start());
  obj->RestoreState(lifespan, std::move(class_history));
  for (auto& [name, v] : attributes) {
    obj->SetAttribute(name, std::move(v));
  }
  footprint_.oids.insert(oid.id);
  footprint_.oid_allocated = true;
  MutableShard(oid.id).Put(
      oid.id,
      ObjectSlot{std::move(obj), cow_epoch_.load(std::memory_order_relaxed)});
  if (oid.id >= next_oid_) next_oid_ = oid.id + 1;
  ReindexOid(oid.id);
  return Status::OK();
}

WriteFootprint Database::TakeFootprint() {
  WriteFootprint out = std::move(footprint_);
  footprint_ = WriteFootprint{};
  return out;
}

void Database::AdoptChanges(const Database& src, const WriteFootprint& fp) {
  // Schema and `all` footprints conflict with every intervening commit,
  // so they only ever publish their own copy (base == head).
  assert(!fp.all && !fp.schema_changed);
  if (fp.clock_advanced) clock_ = src.clock_;
  if (src.next_oid_ > next_oid_) next_oid_ = src.next_oid_;
  if (!fp.classes.empty()) {
    ClassTable& table = MutableClassTable();
    for (const std::string& name : fp.classes) {
      auto it = src.classes_->map.find(name);
      if (it == src.classes_->map.end()) {
        table.map.erase(name);  // defensive: non-schema ops never erase
        continue;
      }
      // Epoch 0 matches no Database (NextCowEpoch starts at 1), so the
      // adopted slot is re-cloned before any in-place mutation here.
      table.map[name] = ClassSlot{it->second.def, 0};
    }
  }
  // DeleteObject touches the slot before recording the deletion, so the
  // deleted oids are among the adopted ones.
  assert(std::includes(fp.oids.begin(), fp.oids.end(),
                       fp.deleted_oids.begin(), fp.deleted_oids.end()));
  for (uint64_t id : fp.oids) {
    // MutableShard captures this side's current slot as the "before" half
    // of the index delta.
    ObjectShard& shard = MutableShard(id);
    const ObjectShard* src_shard = src.ObjectShardAt(ShardIndex(id));
    const ObjectSlot* found =
        src_shard == nullptr ? nullptr : src_shard->Find(id);
    if (found == nullptr) {
      shard.Erase(id);  // defensive: slot-level writes never erase
    } else {
      shard.Put(id, ObjectSlot{found->obj, 0});
    }
    // Index entries are a pure function of the object's state, so the
    // delta from this side's slot to the adopted one is equivalent to
    // having run the transaction's index maintenance here directly
    // — and an index write whose underlying oid lost first-committer-wins
    // never reaches this point (validation aborted the commit).
    ReindexOid(id);
  }
}

}  // namespace tchimera
