#include "util/trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/profile.hpp"
#include "util/str.hpp"

namespace ocr::util {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string TraceValue::to_json() const {
  switch (kind_) {
    case Kind::kBool:
      return int_ != 0 ? "true" : "false";
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble:
      // JSON has no NaN/Inf; clamp to null.
      if (!std::isfinite(double_)) return "null";
      return format("%.6g", double_);
    case Kind::kString: {
      std::string out = "\"";
      out += json_escape(str_);
      out += '"';
      return out;
    }
  }
  return "null";
}

std::string TraceEvent::to_json() const {
  std::string out = "{\"kind\":\"" + json_escape(kind) + "\"";
  for (const auto& [key, value] : fields) {
    out += ",\"" + json_escape(key) + "\":" + value.to_json();
  }
  out += "}";
  return out;
}

void TraceSink::record(TraceEvent event) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (mirror_ != nullptr) mirror_->instant(event.kind);
  events_.push_back(std::move(event));
}

void TraceSink::set_mirror(Profiler* profiler) {
  const std::lock_guard<std::mutex> lock(mu_);
  mirror_ = profiler;
}

std::size_t TraceSink::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceSink::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string TraceSink::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out += i == 0 ? "\n  " : ",\n  ";
    out += events_[i].to_json();
  }
  out += "\n]\n";
  return out;
}

bool TraceSink::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

void TraceSink::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

}  // namespace ocr::util
