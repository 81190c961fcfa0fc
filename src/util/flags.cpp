#include "util/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <utility>

namespace ocr::util {

bool parse_integer(const std::string& text, long long* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

Flag text_flag(std::string name, std::string* out) {
  return {std::move(name), [out](const std::string& value) {
            *out = value;
            return Status();
          }};
}

Flag int_flag(std::string name, long long* out, long long min) {
  return {name, [name, out, min](const std::string& value) {
            long long parsed = 0;
            if (!parse_integer(value, &parsed)) {
              return Status::invalid_argument(
                  name + " expects an integer, got '" + value + "'");
            }
            if (parsed < min) {
              return Status::invalid_argument(name + " must be >= " +
                                              std::to_string(min));
            }
            *out = parsed;
            return Status();
          }};
}

Flag real_flag(std::string name, double* out) {
  return {name, [name, out](const std::string& value) {
            char* end = nullptr;
            const double parsed = std::strtod(value.c_str(), &end);
            if (value.empty() || end != value.c_str() + value.size()) {
              return Status::invalid_argument(
                  name + " expects a number, got '" + value + "'");
            }
            *out = parsed;
            return Status();
          }};
}

Flag switch_flag(std::string name, bool* out) {
  return {std::move(name),
          [out](const std::string&) {
            *out = true;
            return Status();
          },
          true};
}

Status parse_flags(int argc, const char* const* argv,
                   const std::vector<Flag>& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = std::find_if(flags.begin(), flags.end(),
                                   [&](const Flag& f) { return f.name == arg; });
    if (flag == flags.end()) {
      return Status::invalid_argument("unknown argument '" + arg + "'");
    }
    if (!flag->is_switch && i + 1 >= argc) {
      return Status::invalid_argument("missing value for '" + arg + "'");
    }
    Status status = flag->set(flag->is_switch ? std::string() : argv[++i]);
    if (!status.ok()) return status;
  }
  return Status();
}

}  // namespace ocr::util
