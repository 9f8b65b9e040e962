#include "db/value.hpp"

#include <cassert>
#include <cmath>
#include <functional>

#include "util/strings.hpp"

namespace goofi::db {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return "INTEGER";
    case ValueType::kReal:
      return "REAL";
    case ValueType::kText:
      return "TEXT";
  }
  return "?";
}

ValueType Value::type() const {
  switch (data_.index()) {
    case 0:
      return ValueType::kNull;
    case 1:
      return ValueType::kInt;
    case 2:
      return ValueType::kReal;
    default:
      return ValueType::kText;
  }
}

int64_t Value::as_int() const {
  assert(type() == ValueType::kInt);
  return std::get<int64_t>(data_);
}

double Value::as_real() const {
  if (type() == ValueType::kInt) return static_cast<double>(std::get<int64_t>(data_));
  assert(type() == ValueType::kReal);
  return std::get<double>(data_);
}

const std::string& Value::as_text() const {
  assert(type() == ValueType::kText);
  return std::get<std::string>(data_);
}

bool Value::Truthy() const {
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return as_int() != 0;
    case ValueType::kReal:
      return as_real() != 0.0;
    case ValueType::kText:
      return !as_text().empty();
  }
  return false;
}

namespace {
int TypeRank(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt:
    case ValueType::kReal:
      return 1;  // numerics compare with each other
    case ValueType::kText:
      return 2;
  }
  return 3;
}
}  // namespace

int Value::Compare(const Value& other) const {
  const int rank_a = TypeRank(type());
  const int rank_b = TypeRank(other.type());
  if (rank_a != rank_b) return rank_a < rank_b ? -1 : 1;
  switch (rank_a) {
    case 0:
      return 0;  // NULL == NULL for ordering purposes
    case 1: {
      if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
        const int64_t a = as_int();
        const int64_t b = other.as_int();
        return a < b ? -1 : (a > b ? 1 : 0);
      }
      const double a = as_real();
      const double b = other.as_real();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    default: {
      const int c = as_text().compare(other.as_text());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt:
      return std::to_string(as_int());
    case ValueType::kReal: {
      std::string s = util::Format("%.17g", as_real());
      return s;
    }
    case ValueType::kText:
      return as_text();
  }
  return "?";
}

std::string Value::Serialize() const {
  // Built as tag-then-append: `"I" + std::to_string(...)` trips GCC 12's
  // -Wrestrict false positive (PR105329) once the rvalue operator+ inlines.
  std::string out;
  switch (type()) {
    case ValueType::kNull:
      return "N";
    case ValueType::kInt:
      out = "I";
      out += std::to_string(as_int());
      return out;
    case ValueType::kReal:
      out = "R";
      out += util::Format("%.17g", as_real());
      return out;
    case ValueType::kText:
      out = "T";
      out += as_text();
      return out;
  }
  return "N";
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9E3779B9u;
    case ValueType::kInt:
      // Hash through the double representation: Compare treats INT and REAL
      // numerically (1 == 1.0), so equal-comparing values must hash equal
      // for the hash indexes, whose key equality is Compare-based.
      return std::hash<double>{}(static_cast<double>(as_int()));
    case ValueType::kReal:
      return std::hash<double>{}(as_real());
    case ValueType::kText:
      return std::hash<std::string>{}(as_text());
  }
  return 0;
}

}  // namespace goofi::db
