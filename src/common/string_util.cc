#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>

namespace ocdd {

std::string_view StripAsciiWhitespace(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::optional<std::int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  if (*begin == '+') ++begin;  // from_chars rejects a leading '+'
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view s) {
  if (s.empty()) return std::nullopt;
  // Reject spellings strtod would accept but which are not plain decimal
  // numbers in data files (inf, nan, hex floats).
  for (char c : s) {
    bool plain = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                 c == '.' || c == 'e' || c == 'E';
    if (!plain) return std::nullopt;
  }
  // strtod needs NUL termination; short fields (every realistic number)
  // are copied to the stack instead of a heap string.
  char stack[64];
  std::string heap;
  const char* text = stack;
  if (s.size() < sizeof(stack)) {
    std::memcpy(stack, s.data(), s.size());
    stack[s.size()] = '\0';
  } else {
    heap.assign(s);
    text = heap.c_str();
  }
  char* endptr = nullptr;
  double value = std::strtod(text, &endptr);
  if (endptr != text + s.size()) return std::nullopt;
  return value;
}

}  // namespace ocdd
