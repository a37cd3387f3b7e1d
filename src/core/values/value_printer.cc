// Rendering of values in the paper's notation:
//   null                     null
//   integers                 42
//   reals                    3.5
//   bools                    true / false
//   chars                    'c' (single-quoted, one character)
//   strings                  'IDEA' (single-quoted, escaped)
//   time                     t17 / tnow
//   oids                     i4
//   sets                     {v1,...,vn}
//   lists                    [v1,...,vn]
//   records                  (a1:v1,...,an:vn)
//   temporal functions       {<[20,45],i4>,<[46,now],i9>}
#include <cstdio>

#include "core/values/temporal_function.h"
#include "core/values/value.h"

namespace tchimera {
namespace {

void AppendEscapedQuoted(const std::string& s, std::string* out) {
  out->push_back('\'');
  for (char c : s) {
    switch (c) {
      case '\'':
        *out += "\\'";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        out->push_back(c);
    }
  }
  out->push_back('\'');
}

std::string FormatReal(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  // Ensure the token re-parses as a real, not an integer.
  if (s.find_first_of(".eEnN") == std::string::npos) s += ".0";
  return s;
}

}  // namespace

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInteger:
      return std::to_string(AsInteger());
    case ValueKind::kReal:
      return FormatReal(AsReal());
    case ValueKind::kBool:
      return AsBool() ? "true" : "false";
    case ValueKind::kChar: {
      std::string out;
      AppendEscapedQuoted(std::string(1, AsChar()), &out);
      return "c" + out;
    }
    case ValueKind::kString: {
      std::string out;
      AppendEscapedQuoted(AsString(), &out);
      return out;
    }
    case ValueKind::kTime:
      return "t" + InstantToString(AsTime());
    case ValueKind::kOid:
      return AsOid().ToString();
    case ValueKind::kSet:
    case ValueKind::kList: {
      const char open = kind_ == ValueKind::kSet ? '{' : '[';
      const char close = kind_ == ValueKind::kSet ? '}' : ']';
      std::string out(1, open);
      const auto& elems = Elements();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ",";
        out += elems[i].ToString();
      }
      out.push_back(close);
      return out;
    }
    case ValueKind::kRecord: {
      std::string out = "(";
      const auto& fields = Fields();
      for (size_t i = 0; i < fields.size(); ++i) {
        if (i > 0) out += ",";
        out += fields[i].first + ":" + fields[i].second.ToString();
      }
      out += ")";
      return out;
    }
    case ValueKind::kTemporal:
      return AsTemporal().ToString();
  }
  return "?";
}

}  // namespace tchimera
