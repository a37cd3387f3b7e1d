// Factory and interning registry for T_Chimera types.
//
// All Type nodes live in a process-wide registry; structurally equal types
// intern to the same pointer, so `==` on `const Type*` is type equality.
// The registry is append-only and never destroyed (trivial-destruction rule
// for static storage), which also guarantees pointer stability.
#ifndef TCHIMERA_CORE_TYPES_TYPE_REGISTRY_H_
#define TCHIMERA_CORE_TYPES_TYPE_REGISTRY_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/types/type.h"

namespace tchimera::types {

// Basic predefined value types (BVT).
const Type* Any();
const Type* Integer();
const Type* Real();
const Type* Bool();
const Type* Char();
const Type* String();
const Type* Time();

// The object type for class `class_name` (Definition 3.1).
const Type* Object(std::string_view class_name);

// Structured types (Definition 3.4). Element/field types may be any
// T_Chimera type, including temporal ones.
const Type* SetOf(const Type* element);
const Type* ListOf(const Type* element);

// record-of(...). Field names must be distinct identifiers; fields are
// canonicalized by sorting on name.
Result<const Type*> RecordOf(std::vector<RecordField> fields);

// temporal(T) (Definition 3.3). Fails with TypeError unless T is a Chimera
// type (no nested temporal, no `any`).
Result<const Type*> Temporal(const Type* element);

// The function T^- of the paper: maps temporal(T) to its static
// counterpart T. Fails with TypeError when `t` is not a temporal type.
Result<const Type*> TMinus(const Type* t);

}  // namespace tchimera::types

#endif  // TCHIMERA_CORE_TYPES_TYPE_REGISTRY_H_
