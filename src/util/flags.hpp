#pragma once
/// \file flags.hpp
/// \brief The tools' table-driven argv parser: one `Flag` per option.
///
/// A tool lists each flag once, with the setter that stores its value,
/// and `parse_flags` walks argv against that table:
///
/// ```
/// std::string svg;
/// long long workers = 1;
/// bool verbose = false;
/// const std::vector<util::Flag> flags = {
///     util::text_flag("--svg", &svg),
///     util::int_flag("--workers", &workers),
///     util::switch_flag("--verbose", &verbose),
/// };
/// const util::Status parsed = util::parse_flags(argc, argv, flags);
/// ```
///
/// An unknown flag, a missing value and a value the setter rejects are
/// kInvalidArgument errors whose message names the flag; the tools print
/// it with their usage and exit 2.

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace ocr::util {

struct Flag {
  std::string name;
  /// Stores \p value (empty for a switch); a non-OK Status rejects it.
  std::function<Status(const std::string& value)> set;
  /// A switch (`--verbose`) takes no value.
  bool is_switch = false;
};

/// `--name TEXT`, stored verbatim.
Flag text_flag(std::string name, std::string* out);
/// `--name N`: a whole decimal integer, rejected below \p min.
Flag int_flag(std::string name, long long* out,
              long long min = std::numeric_limits<long long>::min());
/// `--name X`: a decimal number.
Flag real_flag(std::string name, double* out);
/// `--name`, no value: sets \p out to true.
Flag switch_flag(std::string name, bool* out);

/// Applies argv[1..argc) to \p flags in order.
Status parse_flags(int argc, const char* const* argv,
                   const std::vector<Flag>& flags);

/// Parses \p text as a whole decimal integer: an optional sign, then
/// digits only. False on anything else, including overflow.
bool parse_integer(const std::string& text, long long* out);

}  // namespace ocr::util
