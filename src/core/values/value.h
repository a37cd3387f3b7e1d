// T_Chimera legal values (Section 3.2, Definition 3.5).
//
// A Value is one of:
//   null                        — legal for every type;
//   integer / real / bool / char / string
//                               — elements of dom(B) for the basic types;
//   time                        — an instant of TIME;
//   oid                         — an object identifier (oids are values of
//                                 object types; Section 3.2);
//   set / list                  — collections of values;
//   record                      — named components (a1:v1,...,an:vn);
//   temporal                    — a partial function from TIME to values,
//                                 represented as coalesced <interval,value>
//                                 pairs (the paper's compact notation).
//
// Values are immutable; copying is cheap (structured payloads are shared).
// Sets and records are kept canonical (sets: sorted + deduplicated;
// records: fields sorted by name), so structural equality is
// representation equality.
#ifndef TCHIMERA_CORE_VALUES_VALUE_H_
#define TCHIMERA_CORE_VALUES_VALUE_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/temporal/instant.h"

namespace tchimera {

class TemporalFunction;

// An object identifier (Section 2): immutable, system-assigned, unique for
// the lifetime of the object. Printed as "i<n>" following the paper's
// examples (i1, i2, ...).
struct Oid {
  uint64_t id = 0;

  static constexpr Oid Invalid() { return Oid{0}; }
  bool valid() const { return id != 0; }
  std::string ToString() const { return "i" + std::to_string(id); }

  friend auto operator<=>(const Oid&, const Oid&) = default;
};

enum class ValueKind {
  kNull,
  kInteger,
  kReal,
  kBool,
  kChar,
  kString,
  kTime,
  kOid,
  kSet,
  kList,
  kRecord,
  kTemporal,
};

const char* ValueKindName(ValueKind kind);

class Value {
 public:
  using Field = std::pair<std::string, Value>;

  // The null value.
  // Inline: index chunks and VM registers copy values in bulk, and the
  // payload pointer's copy needs no complete Rep.
  Value() = default;
  ~Value() = default;
  Value(const Value&) = default;
  Value& operator=(const Value&) = default;
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;

  static Value Null() { return Value(); }
  static Value Integer(int64_t v);
  static Value Real(double v);
  static Value Bool(bool v);
  static Value Char(char v);
  static Value String(std::string v);
  static Value Time(TimePoint t);
  static Value OfOid(Oid oid);
  // A set value; elements are sorted and deduplicated (sets are sets).
  static Value Set(std::vector<Value> elements);
  static Value EmptySet() { return Set({}); }
  static Value List(std::vector<Value> elements);
  // A record value; fields are sorted by name. Fails on duplicate names.
  static Result<Value> Record(std::vector<Field> fields);
  static Value Temporal(TemporalFunction f);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }

  // Scalar accessors; each requires the matching kind.
  int64_t AsInteger() const { return scalar_; }
  double AsReal() const { return real_; }
  bool AsBool() const { return scalar_ != 0; }
  char AsChar() const { return static_cast<char>(scalar_); }
  const std::string& AsString() const;
  TimePoint AsTime() const { return scalar_; }
  Oid AsOid() const { return Oid{static_cast<uint64_t>(scalar_)}; }

  // Elements of a set or list; requires kSet or kList.
  const std::vector<Value>& Elements() const;
  // Fields of a record (sorted by name); requires kRecord.
  const std::vector<Field>& Fields() const;
  // The value of record field `name`; null Value if absent. Requires
  // kRecord.
  const Value* FieldValue(std::string_view name) const;
  // The temporal function; requires kTemporal.
  const TemporalFunction& AsTemporal() const;

  // True if `element` is a member of this set/list value.
  bool Contains(const Value& element) const;

  // All oids appearing anywhere inside this value (recursively; inside
  // temporal functions too). Used for referential integrity (ref(i,t) and
  // Definition 5.6). If `at` is supplied, only temporal segments containing
  // `at` are scanned.
  void CollectOids(std::vector<Oid>* out) const;
  void CollectOidsAt(TimePoint at, std::vector<Oid>* out) const;

  // Total structural ordering over all values (kind rank first, then
  // payload). Defines the canonical set ordering. Returns <0, 0, >0.
  static int Compare(const Value& a, const Value& b);

  friend bool operator==(const Value& a, const Value& b) {
    return Compare(a, b) == 0;
  }
  friend bool operator!=(const Value& a, const Value& b) {
    return Compare(a, b) != 0;
  }
  friend bool operator<(const Value& a, const Value& b) {
    return Compare(a, b) < 0;
  }

  // Rendering in the paper's notation, e.g.
  //   (name:'Bob',score:{<[1,100],40>,<[101,200],70>})
  // Implemented in value_printer.cc.
  std::string ToString() const;

  // Approximate heap footprint in bytes (storage accounting for the
  // baseline benchmarks).
  size_t ApproxBytes() const;

 private:
  struct Rep;  // structured payload (string/set/list/record/temporal)

  ValueKind kind_ = ValueKind::kNull;
  int64_t scalar_ = 0;  // integer / bool / char / time / oid
  double real_ = 0.0;
  std::shared_ptr<const Rep> rep_;
};

}  // namespace tchimera

#endif  // TCHIMERA_CORE_VALUES_VALUE_H_
