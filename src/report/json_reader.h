#ifndef OCDD_REPORT_JSON_READER_H_
#define OCDD_REPORT_JSON_READER_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/result.h"

namespace ocdd::report {

/// A JSON document model and parser, sufficient for reading back the reports
/// json_writer.h emits (and any well-formed JSON), plus the lenient forms
/// older builds accepted (see tests/json_reader_test.cc, "JsonPinTest").
///
/// A value is a compact tagged union. Numbers are held as doubles. An
/// object is a vector of members sorted by key with unique keys (a
/// duplicate key in the input keeps its last value), so member order is
/// not preserved — fine for report diffing, and it makes the canonical
/// serialization a plain in-order walk.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }

  /// Typed accessors. A value of another kind reads as false, 0, "", or an
  /// empty array or object.
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<JsonValue>& array() const;
  /// Members sorted by key, keys unique.
  const std::vector<Member>& object() const;

  /// Object member lookup; returns a shared null for missing keys or
  /// non-objects, so chains like `v["a"]["b"]` are safe.
  const JsonValue& operator[](std::string_view key) const;
  /// Array element lookup with the same out-of-range tolerance.
  const JsonValue& operator[](std::size_t index) const;

  /// Moves member `key` out of an object, leaving null in its place.
  /// Returns null for a missing key or a non-object.
  JsonValue Take(std::string_view key);

  /// Deep equality.
  friend bool operator==(const JsonValue& a, const JsonValue& b) {
    return a.value_ == b.value_;
  }

 private:
  friend class JsonParser;

  template <typename T, typename... Args>
  explicit JsonValue(std::in_place_type_t<T> kind, Args&&... args)
      : value_(kind, std::forward<Args>(args)...) {}

  // Alternative order matches Kind.
  std::variant<std::monostate, bool, double, std::string,
               std::vector<JsonValue>, std::vector<Member>>
      value_;
};

/// Parses a complete JSON document. Trailing garbage, unterminated
/// strings/structures, bad escapes, malformed or non-finite numbers and
/// nesting deeper than 128 values yield ParseError with the byte offset.
Result<JsonValue> ParseJson(const std::string& text);

/// One difference between two dependency reports.
struct ReportDiffEntry {
  enum class Change { kAdded, kRemoved };
  Change change = Change::kAdded;
  /// Which collection the entry belongs to ("ocds", "ods", "fds", ...).
  std::string collection;
  /// Canonical rendering of the dependency (the JSON object, re-serialized
  /// with sorted keys).
  std::string rendering;

  friend bool operator==(const ReportDiffEntry& a, const ReportDiffEntry& b) {
    return a.change == b.change && a.collection == b.collection &&
           a.rendering == b.rendering;
  }
};

/// Diffs two reports produced by the same algorithm: for every array-valued
/// top-level member (the dependency collections), reports entries present
/// in one document but not the other. Returns InvalidArgument when the
/// `algorithm` fields differ (cross-algorithm diffs are meaningless).
Result<std::vector<ReportDiffEntry>> DiffReports(const JsonValue& before,
                                                 const JsonValue& after);

/// Canonical re-serialization (sorted keys, minimal whitespace) used for
/// diff renderings and round-trip tests.
std::string SerializeJson(const JsonValue& value);

}  // namespace ocdd::report

#endif  // OCDD_REPORT_JSON_READER_H_
