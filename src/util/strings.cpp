#include "util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace goofi::util {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view text) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

namespace {

// ASCII case folding, inline. In the "C" locale, the only one this program
// runs in (nothing calls setlocale), std::tolower and std::toupper change
// exactly 'A'-'Z' and 'a'-'z', so these agree with them on every byte
// without a libc call per character.
char FoldLower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c + ('a' - 'A')) : c;
}
char FoldUpper(char c) {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - ('a' - 'A')) : c;
}

}  // namespace

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (FoldLower(a[i]) != FoldLower(b[i])) return false;
  }
  return true;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = FoldLower(c);
  return out;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = FoldUpper(c);
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::optional<int64_t> ParseInt(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  bool negative = false;
  const char* start = buf.c_str();
  if (*start == '-') {
    negative = true;
    ++start;
  } else if (*start == '+') {
    ++start;
  }
  int base = 10;
  if (start[0] == '0' && (start[1] == 'x' || start[1] == 'X')) base = 16;
  const unsigned long long raw = std::strtoull(start, &end, base);
  if (errno != 0 || end == start || *end != '\0') return std::nullopt;
  // Negated as unsigned: "-9223372036854775808" must not overflow int64_t.
  return static_cast<int64_t>(negative ? 0 - raw : raw);
}

std::optional<double> ParseDouble(std::string_view text) {
  text = Trim(text);
  if (text.empty()) return std::nullopt;
  const std::string buf(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end == buf.c_str() || *end != '\0') return std::nullopt;
  return value;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace goofi::util
