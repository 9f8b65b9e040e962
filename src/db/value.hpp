// Typed cell values for the embedded relational database.
//
// The GOOFI database (paper Fig. 4) stores campaign configuration and logged
// system state. Four SQL-ish types cover everything the tool stores: NULL,
// INTEGER (64-bit), REAL (double) and TEXT (which also carries serialized
// BitVec state vectors).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

namespace goofi::db {

enum class ValueType { kNull = 0, kInt, kReal, kText };

const char* ValueTypeName(ValueType type);

/// One database cell. Value is an immutable-ish small value type with strict
/// ordering used by indexes and ORDER BY.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Real(double v) { return Value(v); }
  static Value Text(std::string v) { return Value(std::move(v)); }
  static Value Bool(bool v) { return Value(static_cast<int64_t>(v)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Precondition: matching type (as_real additionally accepts kInt).
  int64_t as_int() const;
  double as_real() const;
  const std::string& as_text() const;

  /// Truthiness for WHERE clauses: NULL and 0 are false.
  bool Truthy() const;

  /// Total order across types: NULL < INT/REAL (numeric order) < TEXT.
  /// Mixed INT/REAL compare numerically, matching SQLite semantics.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Display form ("NULL", "42", "3.5", "abc").
  std::string ToString() const;

  /// Lossless text form with a type tag ("N", "I42", "R3.5", "Tabc"): equal
  /// texts mean the same type and value.
  std::string Serialize() const;

  /// Hash compatible with operator== for same-type values.
  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

}  // namespace goofi::db
