#include "relation/type_inference.h"

#include "common/string_util.h"

namespace ocdd::rel {

namespace {

bool IsStrippedNullMarker(std::string_view stripped,
                          const TypeInferenceOptions& opts) {
  for (const std::string& marker : opts.null_markers) {
    if (stripped == marker) return true;
  }
  return false;
}

}  // namespace

bool IsNullMarker(std::string_view field, const TypeInferenceOptions& opts) {
  return IsStrippedNullMarker(StripAsciiWhitespace(field), opts);
}

Column ParseColumn(std::span<const std::string_view> fields,
                   const TypeInferenceOptions& opts) {
  const std::size_t count = fields.size();
  std::vector<bool> nulls(count);
  // Rows [0, r) are NULL-classified when a typed attempt gives up at row r.
  std::size_t r = 0;
  if (!opts.force_lexicographic) {
    bool any_value = false;
    std::vector<std::int64_t> ints(count);
    for (; r < count; ++r) {
      std::string_view s = StripAsciiWhitespace(fields[r]);
      if (IsStrippedNullMarker(s, opts)) {
        nulls[r] = true;
        continue;
      }
      any_value = true;
      auto v = ParseInt64(s);
      if (!v.has_value()) break;
      ints[r] = *v;
    }
    if (r == count) {
      if (any_value) return Column::FromInts(std::move(ints), std::move(nulls));
      return Column::FromStrings(std::vector<std::string>(count),
                                 std::move(nulls));
    }
    ints = {};

    // Row r is the first non-int: re-parse the ints before it as doubles
    // (strtod, so "-0" stays -0.0) and go on from r.
    std::vector<double> doubles(count);
    std::vector<bool> double_nulls = nulls;
    for (std::size_t i = 0; i < r; ++i) {
      if (nulls[i]) continue;
      auto d = ParseDouble(StripAsciiWhitespace(fields[i]));
      if (d.has_value()) {
        doubles[i] = *d;
      } else {
        double_nulls[i] = true;  // e.g. "+-5": an int64, not a double
      }
    }
    for (; r < count; ++r) {
      std::string_view s = StripAsciiWhitespace(fields[r]);
      if (IsStrippedNullMarker(s, opts)) {
        nulls[r] = true;
        double_nulls[r] = true;
        continue;
      }
      auto d = ParseDouble(s);
      if (!d.has_value()) break;
      doubles[r] = *d;
    }
    if (r == count) {
      return Column::FromDoubles(std::move(doubles), std::move(double_nulls));
    }
  }

  std::vector<std::string> strings(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string_view f = fields[i];
    if (i >= r) nulls[i] = IsNullMarker(f, opts);
    if (!nulls[i]) strings[i].assign(f);
  }
  return Column::FromStrings(std::move(strings), std::move(nulls));
}

}  // namespace ocdd::rel
