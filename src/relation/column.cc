#include "relation/column.h"

#include <cassert>

namespace ocdd::rel {

Column Column::FromValues(DataType type, const std::vector<Value>& values) {
  Column col(type);
  for (const Value& v : values) col.Append(v);
  return col;
}

Column Column::FromInts(std::vector<std::int64_t> values,
                        std::vector<bool> nulls) {
  assert(values.size() == nulls.size());
  Column col(DataType::kInt);
  col.ints_ = std::move(values);
  col.nulls_ = std::move(nulls);
  return col;
}

Column Column::FromDoubles(std::vector<double> values,
                           std::vector<bool> nulls) {
  assert(values.size() == nulls.size());
  Column col(DataType::kDouble);
  col.doubles_ = std::move(values);
  col.nulls_ = std::move(nulls);
  return col;
}

Column Column::FromStrings(std::vector<std::string> values,
                           std::vector<bool> nulls) {
  assert(values.size() == nulls.size());
  Column col(DataType::kString);
  col.strings_ = std::move(values);
  col.nulls_ = std::move(nulls);
  return col;
}

Value Column::ValueAt(std::size_t row) const {
  if (nulls_[row]) return Value::Null();
  switch (type_) {
    case DataType::kInt:
      return Value::Int(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::String(strings_[row]);
  }
  return Value::Null();
}

void Column::Append(const Value& v) {
  nulls_.push_back(v.is_null());
  switch (type_) {
    case DataType::kInt:
      assert(v.is_null() || v.is_int());
      ints_.push_back(v.is_int() ? v.int_value() : 0);
      break;
    case DataType::kDouble:
      assert(v.is_null() || v.is_int() || v.is_double());
      doubles_.push_back(v.is_double() ? v.double_value()
                         : v.is_int() ? static_cast<double>(v.int_value())
                                      : 0.0);
      break;
    case DataType::kString:
      assert(v.is_null() || v.is_string());
      strings_.push_back(v.is_string() ? v.string_value() : std::string());
      break;
  }
}

int Column::CompareRows(std::size_t a, std::size_t b) const {
  bool na = nulls_[a];
  bool nb = nulls_[b];
  if (na || nb) {
    if (na && nb) return 0;  // NULL = NULL
    return na ? -1 : 1;      // NULLS FIRST
  }
  switch (type_) {
    case DataType::kInt: {
      std::int64_t x = ints_[a];
      std::int64_t y = ints_[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = doubles_[a];
      double y = doubles_[b];
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString: {
      int c = strings_[a].compare(strings_[b]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
  }
  return 0;
}

}  // namespace ocdd::rel
