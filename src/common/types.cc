#include "common/types.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/coding.h"

namespace s2 {

namespace {
// Tag bytes for Value serialization.
constexpr char kTagNull = 0;
constexpr char kTagInt = 1;
constexpr char kTagDouble = 2;
constexpr char kTagString = 3;
}  // namespace

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    if (is_null() && other.is_null()) return 0;
    return is_null() ? -1 : 1;
  }
  if (is_string() || other.is_string()) {
    // Strings only compare against strings; mixed compares order strings
    // after numerics deterministically.
    if (is_string() && other.is_string()) {
      return Slice(as_string()).Compare(Slice(other.as_string()));
    }
    return is_string() ? 1 : -1;
  }
  if (is_int() && other.is_int()) {
    int64_t a = as_int(), b = other.as_int();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  double a = AsNumeric(), b = other.AsNumeric();
  return a < b ? -1 : (a > b ? 1 : 0);
}

uint64_t Value::Hash() const {
  if (is_null()) return 0x6e756c6cULL;
  if (is_int()) return MixHash64(static_cast<uint64_t>(as_int()));
  if (is_double()) {
    double d = as_double();
    // Normalize -0.0 / 0.0 and integral doubles so 1.0 hashes like int 1,
    // matching Compare()'s cross-numeric equality.
    if (d == 0.0) d = 0.0;
    double intpart;
    if (std::modf(d, &intpart) == 0.0 && intpart >= -9.2e18 &&
        intpart <= 9.2e18) {
      return MixHash64(static_cast<uint64_t>(static_cast<int64_t>(intpart)));
    }
    uint64_t bits;
    memcpy(&bits, &d, sizeof(bits));
    return MixHash64(bits);
  }
  return Hash64(as_string());
}

void Value::EncodeTo(std::string* dst) const {
  if (is_null()) {
    dst->push_back(kTagNull);
  } else if (is_int()) {
    dst->push_back(kTagInt);
    PutVarint64(dst, ZigZagEncode(as_int()));
  } else if (is_double()) {
    dst->push_back(kTagDouble);
    double d = as_double();
    uint64_t bits;
    memcpy(&bits, &d, sizeof(bits));
    PutFixed64(dst, bits);
  } else {
    dst->push_back(kTagString);
    PutLengthPrefixed(dst, as_string());
  }
}

// EncodeTo's tag is the variant alternative and its payload the value, a
// double's bits included; a change to EncodeTo must change this too.
bool Value::SameEncoding(const Value& other) const {
  if (v_.index() != other.v_.index()) return false;
  if (is_double()) {
    uint64_t a, b;
    double da = as_double(), db = other.as_double();
    memcpy(&a, &da, sizeof(a));
    memcpy(&b, &db, sizeof(b));
    return a == b;
  }
  return v_ == other.v_;
}

Result<Value> Value::DecodeFrom(Slice* input) {
  if (input->empty()) return Status::Corruption("truncated value");
  char tag = (*input)[0];
  input->RemovePrefix(1);
  switch (tag) {
    case kTagNull:
      return Value();
    case kTagInt: {
      S2_ASSIGN_OR_RETURN(uint64_t z, GetVarint64(input));
      return Value(ZigZagDecode(z));
    }
    case kTagDouble: {
      if (input->size() < 8) return Status::Corruption("truncated double");
      uint64_t bits = DecodeFixed64(input->data());
      input->RemovePrefix(8);
      double d;
      memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kTagString: {
      S2_ASSIGN_OR_RETURN(Slice s, GetLengthPrefixed(input));
      return Value(s.ToString());
    }
    default:
      return Status::Corruption("bad value tag");
  }
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int()) return std::to_string(as_int());
  if (is_double()) {
    char buf[32];
    snprintf(buf, sizeof(buf), "%.6g", as_double());
    return buf;
  }
  return as_string();
}

std::string EncodeKey(const Row& values) {
  std::string key;
  for (const Value& v : values) v.EncodeTo(&key);
  return key;
}

Result<int> Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return Status::NotFound("no column named " + name);
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!ColumnDefEq(columns_[i], other.columns_[i])) return false;
  }
  return true;
}

}  // namespace s2
