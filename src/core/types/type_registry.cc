#include "core/types/type_registry.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"

namespace tchimera {

// Befriended by Type: the only code allowed to construct Type nodes.
// The registry maps a canonical key (the printed form) to the interned
// node. Leaked on purpose: types have static-storage-duration semantics,
// and leaking guarantees pointer stability with a trivial shutdown.
//
// The registry is process-global mutable state reached from const read
// paths (type-checking a query interns composite types), so with the
// concurrent reader engine (core/db/versioned_db.h) it is guarded by a
// mutex. Interning is rare after warm-up — every distinct type is built
// once and the returned pointers are immutable — so the lock is not a
// contention point.
struct TypeFactory {
  static std::mutex& Mutex() {
    static auto& mu = *new std::mutex();
    return mu;
  }

  static std::unordered_map<std::string, const Type*>& Map() {
    static auto& m = *new std::unordered_map<std::string, const Type*>();
    return m;
  }

  static const Type* Intern(Type&& proto) {
    std::lock_guard<std::mutex> lock(Mutex());
    auto& map = Map();
    auto it = map.find(proto.printed_);
    if (it != map.end()) return it->second;
    auto* node = new Type(std::move(proto));
    map.emplace(node->printed_, node);
    return node;
  }

  static const Type* MakeLeaf(TypeKind kind) {
    Type proto;
    proto.kind_ = kind;
    proto.contains_any_ = kind == TypeKind::kAny;
    proto.printed_ = TypeKindName(kind);
    return Intern(std::move(proto));
  }

  static const Type* MakeObject(std::string_view class_name) {
    Type proto;
    proto.kind_ = TypeKind::kObject;
    proto.name_ = std::string(class_name);
    proto.printed_ = proto.name_;
    return Intern(std::move(proto));
  }

  static const Type* MakeCollection(TypeKind kind, const Type* element) {
    Type proto;
    proto.kind_ = kind;
    proto.element_ = element;
    proto.contains_any_ = element->ContainsAny();
    proto.contains_temporal_ = element->ContainsTemporal();
    proto.printed_ = std::string(TypeKindName(kind)) + "(" +
                     element->ToString() + ")";
    return Intern(std::move(proto));
  }

  static const Type* MakeRecord(std::vector<RecordField> fields) {
    Type proto;
    proto.kind_ = TypeKind::kRecord;
    proto.printed_ = "record-of(";
    for (size_t i = 0; i < fields.size(); ++i) {
      proto.contains_any_ = proto.contains_any_ || fields[i].type->ContainsAny();
      proto.contains_temporal_ =
          proto.contains_temporal_ || fields[i].type->ContainsTemporal();
      if (i > 0) proto.printed_ += ",";
      proto.printed_ += fields[i].name + ":" + fields[i].type->ToString();
    }
    proto.printed_ += ")";
    proto.fields_ = std::move(fields);
    return Intern(std::move(proto));
  }

  static const Type* MakeTemporal(const Type* element) {
    Type proto;
    proto.kind_ = TypeKind::kTemporal;
    proto.element_ = element;
    proto.contains_any_ = element->ContainsAny();
    proto.contains_temporal_ = true;
    proto.printed_ = "temporal(" + element->ToString() + ")";
    return Intern(std::move(proto));
  }
};

}  // namespace tchimera

namespace tchimera::types {

const Type* Any() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kAny);
  return t;
}
const Type* Integer() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kInteger);
  return t;
}
const Type* Real() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kReal);
  return t;
}
const Type* Bool() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kBool);
  return t;
}
const Type* Char() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kChar);
  return t;
}
const Type* String() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kString);
  return t;
}
const Type* Time() {
  static const Type* t = TypeFactory::MakeLeaf(TypeKind::kTime);
  return t;
}

const Type* Object(std::string_view class_name) {
  return TypeFactory::MakeObject(class_name);
}

const Type* SetOf(const Type* element) {
  return TypeFactory::MakeCollection(TypeKind::kSet, element);
}

const Type* ListOf(const Type* element) {
  return TypeFactory::MakeCollection(TypeKind::kList, element);
}

Result<const Type*> RecordOf(std::vector<RecordField> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const RecordField& a, const RecordField& b) {
              return a.name < b.name;
            });
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!IsIdentifier(fields[i].name)) {
      return Status::InvalidArgument("record field name '" + fields[i].name +
                                     "' is not a valid identifier");
    }
    if (i > 0 && fields[i].name == fields[i - 1].name) {
      return Status::InvalidArgument("duplicate record field name '" +
                                     fields[i].name + "'");
    }
    if (fields[i].type == nullptr) {
      return Status::InvalidArgument("record field '" + fields[i].name +
                                     "' has null type");
    }
  }
  return TypeFactory::MakeRecord(std::move(fields));
}

Result<const Type*> Temporal(const Type* element) {
  if (element == nullptr) {
    return Status::InvalidArgument("temporal() requires an element type");
  }
  if (element->ContainsTemporal()) {
    // Definition 3.3: temporal(T) is defined only for T in CT, which rules
    // out nesting temporal inside temporal. (`any` inside the element is
    // tolerated here because type inference produces it for empty
    // collections/histories; class signatures reject it separately.)
    return Status::TypeError(
        "temporal(" + element->ToString() +
        ") is not a T_Chimera type: the argument of temporal() must be a "
        "Chimera type (Definition 3.3)");
  }
  return TypeFactory::MakeTemporal(element);
}

Result<const Type*> TMinus(const Type* t) {
  if (t == nullptr || t->kind() != TypeKind::kTemporal) {
    return Status::TypeError(
        "T^- is defined on temporal types only; got " +
        std::string(t == nullptr ? "null" : t->ToString()));
  }
  return t->element();
}

}  // namespace tchimera::types
