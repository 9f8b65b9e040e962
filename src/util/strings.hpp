// Small string utilities shared by the SQL parser, the assembler and the
// persistence layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace goofi::util {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits on runs of whitespace; empty fields are dropped.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Removes leading/trailing whitespace.
std::string_view Trim(std::string_view text);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII case-insensitive equality (SQL keywords, register names).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Lowercases ASCII.
std::string ToLower(std::string_view text);
/// Uppercases ASCII.
std::string ToUpper(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses decimal or 0x-prefixed hex, with optional leading '-'.
std::optional<int64_t> ParseInt(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace goofi::util
