#pragma once
/// \file str.hpp
/// \brief Small string helpers used by reports and SVG emission.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace ocr::util {

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits \p text on \p sep; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins \p parts with \p sep between consecutive elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if \p text begins with \p prefix.
bool starts_with(std::string_view text, std::string_view prefix);

/// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Formats an integer with thousands separators ("1,874,880") as the
/// paper's tables print areas.
std::string with_commas(long long value);

/// Sets \p out to the one of \p values whose \p name is \p text; false
/// when none is. Reads an enum back from its `*_name()` spelling.
template <typename Enum, std::size_t N>
bool parse_name(std::string_view text, const Enum (&values)[N],
                const char* (*name)(Enum), Enum* out) {
  for (const Enum value : values) {
    if (text == name(value)) {
      *out = value;
      return true;
    }
  }
  return false;
}

}  // namespace ocr::util
