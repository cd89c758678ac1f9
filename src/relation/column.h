#ifndef OCDD_RELATION_COLUMN_H_
#define OCDD_RELATION_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relation/value.h"

namespace ocdd::rel {

/// Columnar storage for one attribute: a typed value vector plus a null mask.
///
/// Exactly one of the typed vectors is populated, matching `type()`; NULL
/// cells hold a default-constructed slot in the typed vector and are flagged
/// in the null mask.
class Column {
 public:
  /// Creates an empty column of the given type.
  explicit Column(DataType type = DataType::kString) : type_(type) {}

  /// Builds a typed column from row values. Values must match `type` or be
  /// NULL (integer values are widened when `type` is kDouble).
  static Column FromValues(DataType type, const std::vector<Value>& values);

  /// Typed factories: wrap a typed vector and its NULL mask (equal lengths;
  /// NULL cells hold a default-constructed slot) without per-cell Values.
  static Column FromInts(std::vector<std::int64_t> values,
                         std::vector<bool> nulls);
  static Column FromDoubles(std::vector<double> values,
                            std::vector<bool> nulls);
  static Column FromStrings(std::vector<std::string> values,
                            std::vector<bool> nulls);

  DataType type() const { return type_; }
  std::size_t size() const { return nulls_.size(); }

  bool is_null(std::size_t row) const { return nulls_[row]; }
  std::int64_t int_at(std::size_t row) const { return ints_[row]; }
  double double_at(std::size_t row) const { return doubles_[row]; }
  const std::string& string_at(std::size_t row) const { return strings_[row]; }

  /// Materializes the cell as a `Value` (NULL-aware).
  Value ValueAt(std::size_t row) const;

  /// Appends a cell; `v` must be NULL or match the column type
  /// (ints widen into double columns).
  void Append(const Value& v);

  /// Three-way comparison of two cells of this column under the library's
  /// NULL semantics (NULL = NULL, NULLS FIRST).
  int CompareRows(std::size_t a, std::size_t b) const;

 private:
  DataType type_;
  std::vector<bool> nulls_;
  std::vector<std::int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace ocdd::rel

#endif  // OCDD_RELATION_COLUMN_H_
