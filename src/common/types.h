#ifndef S2_COMMON_TYPES_H_
#define S2_COMMON_TYPES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/slice.h"

namespace s2 {

/// Transaction identifier, unique per partition.
using TxnId = uint64_t;

/// Transaction timestamp. Commit timestamps start at 1; two reserved
/// sentinels mark in-flight and aborted row versions.
using Timestamp = uint64_t;
constexpr Timestamp kTsUncommitted = ~Timestamp{0};
constexpr Timestamp kTsAborted = ~Timestamp{0} - 1;
constexpr Timestamp kTsMax = ~Timestamp{0} - 2;

/// Logical column types supported by the engine. Enough surface for the
/// TPC-C / TPC-H / CH-benCHmark schemas (decimals are stored as Int64
/// scaled values or Double as the workload generators choose).
enum class DataType : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kString = 2,
};

const char* DataTypeName(DataType t);

/// A single cell value. Null is represented by the monostate alternative.
class Value {
 public:
  Value() : v_(std::monostate{}) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(int64_t x) : v_(x) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(double x) : v_(x) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(std::string x) : v_(std::move(x)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Value(const char* x) : v_(std::string(x)) {}

  static Value Null() { return Value(); }

  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_int() const { return std::holds_alternative<int64_t>(v_); }
  bool is_double() const { return std::holds_alternative<double>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }

  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_double() const { return std::get<double>(v_); }
  const std::string& as_string() const { return std::get<std::string>(v_); }

  /// Numeric view: ints widen to double. Only valid for non-null numerics.
  double AsNumeric() const {
    return is_int() ? static_cast<double>(as_int()) : as_double();
  }

  /// Total order: null < any value; cross-numeric compares numerically.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable 64-bit hash, equal values hash equally across processes
  /// (persisted by the global secondary index).
  uint64_t Hash() const;

  /// Binary serialization (tag byte + payload).
  void EncodeTo(std::string* dst) const;
  /// True when EncodeTo writes the same bytes for this and `other`: an int
  /// never matches a double, and doubles match by bits (-0.0 is not 0.0).
  bool SameEncoding(const Value& other) const;
  static Result<Value> DecodeFrom(Slice* input);

  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

using Row = std::vector<Value>;

/// Encodes a tuple of values into a single order-preserving-enough key for
/// hash maps / lock tables (not for range scans).
std::string EncodeKey(const Row& values);

/// One column definition.
struct ColumnDef {
  std::string name;
  DataType type;
};

/// Table schema: ordered columns with unique names.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns)
      : columns_(std::move(columns)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of the named column, or error.
  Result<int> FindColumn(const std::string& name) const;

  bool operator==(const Schema& other) const;

 private:
  std::vector<ColumnDef> columns_;
};

inline bool ColumnDefEq(const ColumnDef& a, const ColumnDef& b) {
  return a.name == b.name && a.type == b.type;
}

}  // namespace s2

#endif  // S2_COMMON_TYPES_H_
