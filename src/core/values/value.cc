#include "core/values/value.h"

#include <algorithm>

#include "core/values/temporal_function.h"

namespace tchimera {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInteger:
      return "integer";
    case ValueKind::kReal:
      return "real";
    case ValueKind::kBool:
      return "bool";
    case ValueKind::kChar:
      return "char";
    case ValueKind::kString:
      return "string";
    case ValueKind::kTime:
      return "time";
    case ValueKind::kOid:
      return "oid";
    case ValueKind::kSet:
      return "set";
    case ValueKind::kList:
      return "list";
    case ValueKind::kRecord:
      return "record";
    case ValueKind::kTemporal:
      return "temporal";
  }
  return "unknown";
}

// Structured payload. Only the member matching the value's kind is used.
struct Value::Rep : RepHeader {
  std::string str;                   // kString
  std::vector<Value> elements;       // kSet / kList
  std::vector<Value::Field> fields;  // kRecord
  TemporalFunction temporal;         // kTemporal
};

Value Value::OfRep(ValueKind kind, Rep* rep) {
  return Value(kind, reinterpret_cast<uintptr_t>(static_cast<RepHeader*>(rep)));
}

const Value::Rep& Value::rep() const {
  return *static_cast<const Rep*>(header());
}

void Value::Destroy(const RepHeader* header) {
  delete static_cast<const Rep*>(header);
}

Value Value::Integer(int64_t v) {
  return Value(ValueKind::kInteger, static_cast<uint64_t>(v));
}

Value Value::Real(double v) {
  return Value(ValueKind::kReal, std::bit_cast<uint64_t>(v));
}

Value Value::Bool(bool v) { return Value(ValueKind::kBool, v ? 1 : 0); }

Value Value::Char(char v) {
  return Value(ValueKind::kChar, static_cast<uint64_t>(v));
}

Value Value::String(std::string v) {
  auto* rep = new Rep;
  rep->str = std::move(v);
  return OfRep(ValueKind::kString, rep);
}

Value Value::Time(TimePoint t) {
  return Value(ValueKind::kTime, static_cast<uint64_t>(t));
}

Value Value::OfOid(Oid oid) { return Value(ValueKind::kOid, oid.id); }

Value Value::Set(std::vector<Value> elements) {
  std::sort(elements.begin(), elements.end(),
            [](const Value& a, const Value& b) { return Compare(a, b) < 0; });
  elements.erase(std::unique(elements.begin(), elements.end(),
                             [](const Value& a, const Value& b) {
                               return Compare(a, b) == 0;
                             }),
                 elements.end());
  auto* rep = new Rep;
  rep->elements = std::move(elements);
  return OfRep(ValueKind::kSet, rep);
}

Value Value::List(std::vector<Value> elements) {
  auto* rep = new Rep;
  rep->elements = std::move(elements);
  return OfRep(ValueKind::kList, rep);
}

Result<Value> Value::Record(std::vector<Field> fields) {
  std::sort(fields.begin(), fields.end(),
            [](const Field& a, const Field& b) { return a.first < b.first; });
  for (size_t i = 1; i < fields.size(); ++i) {
    if (fields[i].first == fields[i - 1].first) {
      return Status::InvalidArgument("duplicate record component '" +
                                     fields[i].first + "'");
    }
  }
  auto* rep = new Rep;
  rep->fields = std::move(fields);
  return OfRep(ValueKind::kRecord, rep);
}

Value Value::Temporal(TemporalFunction f) {
  auto* rep = new Rep;
  rep->temporal = std::move(f);
  return OfRep(ValueKind::kTemporal, rep);
}

const std::string& Value::AsString() const { return rep().str; }

const std::vector<Value>& Value::Elements() const { return rep().elements; }

const std::vector<Value::Field>& Value::Fields() const {
  return rep().fields;
}

const Value* Value::FieldValue(std::string_view name) const {
  if (kind_ != ValueKind::kRecord) return nullptr;
  const auto& fields = rep().fields;
  auto it = std::lower_bound(
      fields.begin(), fields.end(), name,
      [](const Field& f, std::string_view n) { return f.first < n; });
  if (it == fields.end() || it->first != name) return nullptr;
  return &it->second;
}

const TemporalFunction& Value::AsTemporal() const { return rep().temporal; }

bool Value::Contains(const Value& element) const {
  if (kind_ == ValueKind::kSet) {
    // Sets are sorted: binary search.
    const auto& elems = rep().elements;
    auto it = std::lower_bound(elems.begin(), elems.end(), element,
                               [](const Value& a, const Value& b) {
                                 return Compare(a, b) < 0;
                               });
    return it != elems.end() && Compare(*it, element) == 0;
  }
  if (kind_ == ValueKind::kList) {
    for (const Value& v : rep().elements) {
      if (Compare(v, element) == 0) return true;
    }
  }
  return false;
}

void Value::CollectOids(std::vector<Oid>* out) const {
  switch (kind_) {
    case ValueKind::kOid:
      out->push_back(AsOid());
      break;
    case ValueKind::kSet:
    case ValueKind::kList:
      for (const Value& v : rep().elements) v.CollectOids(out);
      break;
    case ValueKind::kRecord:
      for (const Field& f : rep().fields) f.second.CollectOids(out);
      break;
    case ValueKind::kTemporal:
      for (const auto& seg : rep().temporal.segments()) {
        seg.value.CollectOids(out);
      }
      break;
    default:
      break;
  }
}

void Value::CollectOidsAt(TimePoint at, std::vector<Oid>* out) const {
  switch (kind_) {
    case ValueKind::kOid:
      out->push_back(AsOid());
      break;
    case ValueKind::kSet:
    case ValueKind::kList:
      for (const Value& v : rep().elements) v.CollectOidsAt(at, out);
      break;
    case ValueKind::kRecord:
      for (const Field& f : rep().fields) f.second.CollectOidsAt(at, out);
      break;
    case ValueKind::kTemporal: {
      const Value* v = rep().temporal.At(at);
      if (v != nullptr) v->CollectOidsAt(at, out);
      break;
    }
    default:
      break;
  }
}

namespace {

// Rank used as the major key of the total order.
int KindRank(ValueKind k) { return static_cast<int>(k); }

template <typename T>
int ThreeWay(const T& a, const T& b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

}  // namespace

int Value::Compare(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) {
    return ThreeWay(KindRank(a.kind_), KindRank(b.kind_));
  }
  switch (a.kind_) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kInteger:
    case ValueKind::kBool:
    case ValueKind::kChar:
    case ValueKind::kTime:
    case ValueKind::kOid:
      return ThreeWay(static_cast<int64_t>(a.bits_),
                      static_cast<int64_t>(b.bits_));
    case ValueKind::kReal:
      return ThreeWay(a.AsReal(), b.AsReal());
    case ValueKind::kString: {
      int c = a.rep().str.compare(b.rep().str);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueKind::kSet:
    case ValueKind::kList: {
      const auto& ea = a.rep().elements;
      const auto& eb = b.rep().elements;
      size_t n = std::min(ea.size(), eb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = Compare(ea[i], eb[i]);
        if (c != 0) return c;
      }
      return ThreeWay(ea.size(), eb.size());
    }
    case ValueKind::kRecord: {
      const auto& fa = a.rep().fields;
      const auto& fb = b.rep().fields;
      size_t n = std::min(fa.size(), fb.size());
      for (size_t i = 0; i < n; ++i) {
        int c = ThreeWay(fa[i].first, fb[i].first);
        if (c != 0) return c;
        c = Compare(fa[i].second, fb[i].second);
        if (c != 0) return c;
      }
      return ThreeWay(fa.size(), fb.size());
    }
    case ValueKind::kTemporal:
      return TemporalFunction::Compare(a.rep().temporal, b.rep().temporal);
  }
  return 0;
}

size_t Value::ApproxBytes() const {
  size_t bytes = sizeof(Value);
  if (!HasRep()) return bytes;
  bytes += sizeof(Rep);
  switch (kind_) {
    case ValueKind::kString:
      bytes += rep().str.capacity();
      break;
    case ValueKind::kSet:
    case ValueKind::kList:
      for (const Value& v : rep().elements) bytes += v.ApproxBytes();
      break;
    case ValueKind::kRecord:
      for (const Field& f : rep().fields) {
        bytes += f.first.capacity() + f.second.ApproxBytes();
      }
      break;
    case ValueKind::kTemporal:
      bytes += rep().temporal.ApproxBytes();
      break;
    default:
      break;
  }
  return bytes;
}

}  // namespace tchimera
