#include "report/json_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <set>

#include "report/json_writer.h"

namespace ocdd::report {

using Member = JsonValue::Member;

JsonValue JsonValue::Bool(bool b) {
  return JsonValue(std::in_place_type<bool>, b);
}

JsonValue JsonValue::Number(double d) {
  return JsonValue(std::in_place_type<double>, d);
}

JsonValue JsonValue::String(std::string s) {
  return JsonValue(std::in_place_type<std::string>, std::move(s));
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  return JsonValue(std::in_place_type<std::vector<JsonValue>>,
                   std::move(items));
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  // A map is already sorted with unique keys.
  std::vector<Member> sorted;
  sorted.reserve(members.size());
  while (!members.empty()) {
    auto node = members.extract(members.begin());
    sorted.emplace_back(std::move(node.key()), std::move(node.mapped()));
  }
  return JsonValue(std::in_place_type<std::vector<Member>>, std::move(sorted));
}

namespace {

template <typename T>
const T& Empty() {
  static const T& empty = *new T();
  return empty;
}

/// The `T` alternative of `value`, or an empty `T` for another kind.
template <typename T, typename Variant>
const T& GetOrEmpty(const Variant& value) {
  const T* held = std::get_if<T>(&value);
  return held == nullptr ? Empty<T>() : *held;
}

/// The member named `key` in sorted `members`, or `members.end()`.
template <typename Members>
auto FindMember(Members& members, std::string_view key) {
  auto it = std::lower_bound(
      members.begin(), members.end(), key,
      [](const Member& m, std::string_view k) { return m.first < k; });
  return it != members.end() && it->first == key ? it : members.end();
}

}  // namespace

bool JsonValue::bool_value() const { return GetOrEmpty<bool>(value_); }

double JsonValue::number_value() const { return GetOrEmpty<double>(value_); }

const std::string& JsonValue::string_value() const {
  return GetOrEmpty<std::string>(value_);
}

const std::vector<JsonValue>& JsonValue::array() const {
  return GetOrEmpty<std::vector<JsonValue>>(value_);
}

const std::vector<Member>& JsonValue::object() const {
  return GetOrEmpty<std::vector<Member>>(value_);
}

const JsonValue& JsonValue::operator[](std::string_view key) const {
  const std::vector<Member>& members = object();
  auto it = FindMember(members, key);
  return it == members.end() ? Empty<JsonValue>() : it->second;
}

const JsonValue& JsonValue::operator[](std::size_t index) const {
  const std::vector<JsonValue>& items = array();
  return index < items.size() ? items[index] : Empty<JsonValue>();
}

JsonValue JsonValue::Take(std::string_view key) {
  auto* members = std::get_if<std::vector<Member>>(&value_);
  if (members == nullptr) return JsonValue();
  auto it = FindMember(*members, key);
  return it == members->end() ? JsonValue()
                              : std::exchange(it->second, JsonValue());
}

/// Single-pass parser over a byte range. Every value is parsed in place,
/// into the slot of the container that holds it, so no value is moved
/// once built; containers reserve their size up front where it is cheap
/// to read ahead (see CapacityHint).
class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : begin_(text.data()), p_(begin_), end_(begin_ + text.size()) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    SkipWs();
    if (!ParseValue(v, 1)) return error_;
    SkipWs();
    if (p_ != end_) {
      Fail("trailing characters");
      return error_;
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;
  /// First capacities: report entries are two-member objects, and an array
  /// of containers rarely holds fewer than a few.
  static constexpr std::size_t kObjectCapacity = 2;
  static constexpr std::size_t kNestedArrayCapacity = 4;
  /// Bound on the capacity an array of scalars reserves up front, so a
  /// hostile run of commas cannot make one huge allocation.
  static constexpr std::size_t kMaxReserve = 1024;

  bool Fail(const char* what) {
    error_ = Status::ParseError(std::string(what) + " at offset " +
                                std::to_string(p_ - begin_));
    return false;
  }

  // Exactly the C-locale isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
  static bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
  static bool IsDigit(char c) { return c >= '0' && c <= '9'; }

  void SkipWs() {
    while (p_ != end_ && IsSpace(*p_)) ++p_;
  }

  bool Consume(char c) {
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::memcmp(p_, word.data(), word.size()) != 0) {
      return false;
    }
    p_ += word.size();
    return true;
  }

  /// `depth` counts values: the document is 1, its elements 2, ...
  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWs();
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        return ParseString(out.value_.emplace<std::string>());
      case 't':
        if (ConsumeWord("true")) {
          out.value_.emplace<bool>(true);
          return true;
        }
        break;
      case 'f':
        if (ConsumeWord("false")) {
          out.value_.emplace<bool>(false);
          return true;
        }
        break;
      case 'n':
        if (ConsumeWord("null")) return true;
        break;
      default:
        break;
    }
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue& out, int depth) {
    ++p_;  // '{'
    auto& members = out.value_.emplace<std::vector<Member>>();
    SkipWs();
    if (Consume('}')) return true;
    members.reserve(kObjectCapacity);
    for (;;) {
      SkipWs();
      if (p_ == end_ || *p_ != '"') return Fail("expected object key");
      Member& member = members.emplace_back();
      if (!ParseString(member.first)) return false;
      SkipWs();
      if (!Consume(':')) return Fail("expected ':'");
      if (!ParseValue(member.second, depth + 1)) return false;
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}'");
    }
    SortLastWins(members);
    return true;
  }

  /// Sorts members by key; of equal keys only the last in input order stays.
  static void SortLastWins(std::vector<Member>& members) {
    auto not_before = [](const Member& a, const Member& b) {
      return !(a.first < b.first);
    };
    if (std::adjacent_find(members.begin(), members.end(), not_before) ==
        members.end()) {
      return;  // already strictly increasing: writer order or canonical
    }
    std::stable_sort(members.begin(), members.end(),
                     [](const Member& a, const Member& b) {
                       return a.first < b.first;
                     });
    // std::unique keeps the first of each run; walking backwards, that is
    // the last one parsed.
    auto kept = std::unique(members.rbegin(), members.rend(),
                            [](const Member& a, const Member& b) {
                              return a.first == b.first;
                            });
    members.erase(members.begin(), kept.base());
  }

  bool ParseArray(JsonValue& out, int depth) {
    ++p_;  // '['
    auto& items = out.value_.emplace<std::vector<JsonValue>>();
    SkipWs();
    if (Consume(']')) return true;
    items.reserve(CapacityHint());
    for (;;) {
      if (!ParseValue(items.emplace_back(), depth + 1)) return false;
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']'");
    }
    return true;
  }

  /// Capacity for the array whose first element starts at p_: for an array
  /// of scalars, one more than the commas before its ']' (exact unless a
  /// string holds ',' or ']'; growth covers an undercount).
  std::size_t CapacityHint() const {
    std::size_t n = 1;
    for (const char* q = p_; q != end_ && n < kMaxReserve; ++q) {
      if (*q == ',') {
        ++n;
      } else if (*q == ']') {
        break;
      } else if (*q == '[' || *q == '{') {
        return kNestedArrayCapacity;
      }
    }
    return n;
  }

  static int HexDigit(char h) {
    if (h >= '0' && h <= '9') return h - '0';
    if (h >= 'a' && h <= 'f') return h - 'a' + 10;
    if (h >= 'A' && h <= 'F') return h - 'A' + 10;
    return -1;
  }

  /// Appends the string starting at the opening quote to `out`, copying
  /// each run of plain bytes in one piece.
  bool ParseString(std::string& out) {
    ++p_;  // '"'
    for (;;) {
      const char* run = p_;
      while (p_ != end_ && *p_ != '"' && *p_ != '\\') ++p_;
      out.append(run, p_);
      if (p_ == end_) return Fail("unterminated string");
      if (*p_++ == '"') return true;
      if (p_ == end_) return Fail("dangling escape");
      switch (*p_++) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (end_ - p_ < 4) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const int h = HexDigit(*p_++);
            if (h < 0) return Fail("bad \\u escape");
            code = (code << 4) | static_cast<unsigned>(h);
          }
          // The writer only emits \u00xx for control bytes; each UTF-16
          // code unit (a lone surrogate too) is encoded as UTF-8 on its own.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
  }

  /// Lenient number syntax: an optional sign ('+' too), digits, an optional
  /// fraction and exponent, each part possibly empty, with at least one
  /// digit somewhere ("01", ".5", "1." and "1e" are numbers).
  bool ParseNumber(JsonValue& out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    auto eat_digits = [&] {
      while (p_ != end_ && IsDigit(*p_)) {
        ++p_;
        digits = true;
      }
    };
    eat_digits();
    if (p_ != end_ && *p_ == '.') {
      ++p_;
      eat_digits();
    }
    if (p_ != end_ && (*p_ == 'e' || *p_ == 'E')) {
      ++p_;
      if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
      eat_digits();
    }
    if (!digits) return Fail("malformed number");
    // from_chars takes no '+' and no partial forms such as "1e" or "e5";
    // strtod reads those as it always has. Both round correctly, so the
    // value does not depend on which one ran.
    double value = 0.0;
    const char* first = *start == '+' ? start + 1 : start;
    const auto [ptr, ec] = std::from_chars(first, p_, value);
    if (ec != std::errc() || ptr != p_) {
      value = std::strtod(std::string(start, p_).c_str(), nullptr);
    }
    if (!std::isfinite(value)) {
      p_ = start;
      return Fail("number out of range");
    }
    out.value_.emplace<double>(value);
    return true;
  }

  const char* const begin_;
  const char* p_;
  const char* const end_;
  Status error_;
};

namespace {

void AppendNumber(std::string& out, double d) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", d);
  // Ten digits round the largest doubles up past DBL_MAX, which would read
  // back as infinity; those few get the 17 digits that round-trip.
  if (std::fabs(d) > 1.7e308 && !std::isfinite(std::strtod(buf, nullptr))) {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  out += buf;
}

void AppendString(std::string& out, const std::string& s) {
  out += '"';
  out += JsonEscape(s);
  out += '"';
}

void SerializeInto(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      AppendNumber(out, v.number_value());
      break;
    case JsonValue::Kind::kString:
      AppendString(out, v.string_value());
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.array()) {
        if (!first) out += ',';
        first = false;
        SerializeInto(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.object()) {
        if (!first) out += ',';
        first = false;
        AppendString(out, key);
        out += ':';
        SerializeInto(value, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string SerializeJson(const JsonValue& value) {
  std::string out;
  SerializeInto(value, out);
  return out;
}

Result<std::vector<ReportDiffEntry>> DiffReports(const JsonValue& before,
                                                 const JsonValue& after) {
  const JsonValue& alg_a = before["algorithm"];
  const JsonValue& alg_b = after["algorithm"];
  if (alg_a.kind() != JsonValue::Kind::kString ||
      alg_b.kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument("not ocdd reports (missing 'algorithm')");
  }
  if (!(alg_a == alg_b)) {
    return Status::InvalidArgument(
        "cannot diff reports from different algorithms: " +
        alg_a.string_value() + " vs " + alg_b.string_value());
  }

  std::vector<ReportDiffEntry> out;
  // Every array-valued top-level member in either document is a dependency
  // collection; compare as sets of canonical renderings.
  std::set<std::string> collections;
  for (const auto& [key, value] : before.object()) {
    if (value.kind() == JsonValue::Kind::kArray) collections.insert(key);
  }
  for (const auto& [key, value] : after.object()) {
    if (value.kind() == JsonValue::Kind::kArray) collections.insert(key);
  }
  for (const std::string& collection : collections) {
    std::set<std::string> a;
    std::set<std::string> b;
    for (const JsonValue& item : before[collection].array()) {
      a.insert(SerializeJson(item));
    }
    for (const JsonValue& item : after[collection].array()) {
      b.insert(SerializeJson(item));
    }
    for (const std::string& gone : a) {
      if (b.count(gone) == 0) {
        out.push_back(ReportDiffEntry{ReportDiffEntry::Change::kRemoved,
                                      collection, gone});
      }
    }
    for (const std::string& added : b) {
      if (a.count(added) == 0) {
        out.push_back(ReportDiffEntry{ReportDiffEntry::Change::kAdded,
                                      collection, added});
      }
    }
  }
  return out;
}

}  // namespace ocdd::report
