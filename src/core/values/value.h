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
// Values are immutable. A Value is 16 bytes: its kind and one payload
// word. Scalars live in the word (a real as its bit pattern); a string,
// set, list, record or temporal value keeps there the address of a shared
// immutable payload carrying its own reference count. So copying a scalar
// copies two words, and copying a structured value adds one relaxed
// atomic increment.
// Sets and records are kept canonical (sets: sorted + deduplicated;
// records: fields sorted by name), so structural equality is
// representation equality.
#ifndef TCHIMERA_CORE_VALUES_VALUE_H_
#define TCHIMERA_CORE_VALUES_VALUE_H_

#include <atomic>
#include <bit>
#include <compare>
#include <cstdint>
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
  // Inline: index chunks and VM registers copy values in bulk, and a copy
  // touches only the payload's reference count, never the payload.
  Value() = default;
  ~Value() {
    if (HasRep()) Release();
  }
  Value(const Value& other) noexcept : kind_(other.kind_), bits_(other.bits_) {
    if (HasRep()) Retain();
  }
  // `other` may live inside the payload this value holds the last
  // reference to (v = v.Elements()[0]), so both assignments take what
  // they need from it before releasing anything.
  Value& operator=(const Value& other) noexcept {
    const ValueKind kind = other.kind_;
    const uint64_t bits = other.bits_;
    if (other.HasRep()) other.Retain();
    if (HasRep()) Release();
    kind_ = kind;
    bits_ = bits;
    return *this;
  }
  // A moved-from Value is null.
  Value(Value&& other) noexcept : kind_(other.kind_), bits_(other.bits_) {
    other.kind_ = ValueKind::kNull;
    other.bits_ = 0;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      const ValueKind kind = other.kind_;
      const uint64_t bits = other.bits_;
      other.kind_ = ValueKind::kNull;
      other.bits_ = 0;
      if (HasRep()) Release();
      kind_ = kind;
      bits_ = bits;
    }
    return *this;
  }

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

  // Scalar accessors; each is meant for the matching kind. On any other
  // kind the integer, bool, char, time and oid accessors read 0 (false)
  // and AsReal reads 0.0, never another kind's payload bits.
  int64_t AsInteger() const { return Word(); }
  double AsReal() const {
    return kind_ == ValueKind::kReal ? std::bit_cast<double>(bits_) : 0.0;
  }
  bool AsBool() const { return Word() != 0; }
  char AsChar() const { return static_cast<char>(Word()); }
  const std::string& AsString() const;
  TimePoint AsTime() const { return Word(); }
  Oid AsOid() const { return Oid{static_cast<uint64_t>(Word())}; }

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
  // The head of every structured payload: its reference count. The Rep
  // behind it (value.cc) holds the string, elements, fields or function.
  struct RepHeader {
    mutable std::atomic<uint32_t> refs{1};
  };
  struct Rep;

  // Kinds whose word is a plain integer: integer, bool, char, time, oid.
  static constexpr uint32_t kWordKinds =
      1u << static_cast<unsigned>(ValueKind::kInteger) |
      1u << static_cast<unsigned>(ValueKind::kBool) |
      1u << static_cast<unsigned>(ValueKind::kChar) |
      1u << static_cast<unsigned>(ValueKind::kTime) |
      1u << static_cast<unsigned>(ValueKind::kOid);
  // Kinds whose word is the address of a RepHeader.
  static constexpr uint32_t kRepKinds =
      1u << static_cast<unsigned>(ValueKind::kString) |
      1u << static_cast<unsigned>(ValueKind::kSet) |
      1u << static_cast<unsigned>(ValueKind::kList) |
      1u << static_cast<unsigned>(ValueKind::kRecord) |
      1u << static_cast<unsigned>(ValueKind::kTemporal);

  static bool KindIn(uint32_t kinds, ValueKind kind) {
    return ((kinds >> static_cast<unsigned>(kind)) & 1u) != 0;
  }
  bool HasRep() const { return KindIn(kRepKinds, kind_); }
  // The word as an integer for the integer-like kinds, else 0.
  int64_t Word() const {
    return KindIn(kWordKinds, kind_) ? static_cast<int64_t>(bits_) : 0;
  }
  Value(ValueKind kind, uint64_t bits) : kind_(kind), bits_(bits) {}
  // A structured value of `kind` that adopts `rep`'s initial reference.
  static Value OfRep(ValueKind kind, Rep* rep);
  const Rep& rep() const;
  const RepHeader* header() const {
    return reinterpret_cast<const RepHeader*>(static_cast<uintptr_t>(bits_));
  }
  void Retain() const {
    header()->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void Release() const {
    if (header()->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Destroy(header());
    }
  }
  // Deletes the Rep whose last reference was just released.
  static void Destroy(const RepHeader* header);

  ValueKind kind_ = ValueKind::kNull;
  // The payload word: the integer, bool (0/1), char, time or oid; a
  // real's bit pattern; or, for a structured kind, a RepHeader address.
  uint64_t bits_ = 0;
};

static_assert(sizeof(Value) == 16, "a Value is its kind and one word");

}  // namespace tchimera

#endif  // TCHIMERA_CORE_VALUES_VALUE_H_
