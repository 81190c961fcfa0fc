#include "util/fault.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <utility>

#include "util/str.hpp"

namespace ocr::util {
namespace {

/// SplitMix64 step — the per-hit probabilistic decision hash.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : s) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

std::string trim(const std::string& s) {
  std::size_t lo = 0;
  std::size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) {
    --hi;
  }
  return s.substr(lo, hi - lo);
}

bool parse_ll(const std::string& token, long long* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size()) return false;
  *out = v;
  return true;
}

}  // namespace

FaultRegistry& FaultRegistry::global() {
  static FaultRegistry registry;
  return registry;
}

FaultRegistry& FaultRegistry::service() {
  static FaultRegistry registry;
  return registry;
}

StatusOr<FaultSpec> parse_fault_spec(const std::string& spec,
                                     std::span<const std::string_view> known) {
  const auto reject = [](std::string why) {
    return Status::invalid_argument(std::move(why)).with_stage("fault-spec");
  };

  FaultSpec parsed;
  for (const std::string& raw : split(spec, ';')) {
    const std::string entry = trim(raw);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return reject("fault entry needs site=trigger: '" + entry + "'");
    }
    const std::string site = trim(entry.substr(0, eq));
    const std::string value = trim(entry.substr(eq + 1));

    if (site == "seed") {
      long long s = 0;
      if (!parse_ll(value, &s) || s < 0) {
        return reject("bad seed '" + value + "'");
      }
      parsed.seed = static_cast<std::uint64_t>(s);
      continue;
    }
    if (!known.empty() &&
        std::find(known.begin(), known.end(), site) == known.end()) {
      return reject("unknown fault site '" + site + "'");
    }

    FaultTrigger trigger;
    if (value == "*") {
      trigger.always = true;
    } else if (!value.empty() && value[0] == '~') {
      char* end = nullptr;
      const double p = std::strtod(value.c_str() + 1, &end);
      if (end != value.c_str() + value.size() || p < 0.0 || p > 1.0) {
        return reject("bad probability '" + value + "'");
      }
      trigger.probability = p;
    } else if (!value.empty() && value[0] == '@') {
      for (const std::string& k : split(value.substr(1), '|')) {
        long long key = 0;
        if (!parse_ll(trim(k), &key)) {
          return reject("bad key list '" + value + "'");
        }
        trigger.keys.push_back(key);
      }
    } else if (!value.empty() && value.back() == '+') {
      long long n = 0;
      if (!parse_ll(value.substr(0, value.size() - 1), &n) || n < 1) {
        return reject("bad trigger '" + value + "'");
      }
      trigger.nth = n;
      trigger.from_nth = true;
    } else {
      long long n = 0;
      if (!parse_ll(value, &n) || n < 1) {
        return reject("bad trigger '" + value + "'");
      }
      trigger.nth = n;
    }
    parsed.sites[site] = std::move(trigger);
  }
  return parsed;
}

Status FaultRegistry::configure(const std::string& spec,
                                std::span<const std::string_view> known) {
  StatusOr<FaultSpec> parsed = parse_fault_spec(spec, known);
  const std::lock_guard<std::mutex> lock(mu_);
  seed_ = parsed.ok() ? parsed->seed : 1;
  sites_.clear();
  fired_.clear();
  if (parsed.ok()) {
    for (auto& [name, trigger] : parsed->sites) {
      sites_[name].trigger = std::move(trigger);
    }
  }
  armed_.store(!sites_.empty(), std::memory_order_relaxed);
  return parsed.status();
}

void FaultRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
  fired_.clear();
  seed_ = 1;
  armed_.store(false, std::memory_order_relaxed);
}

bool FaultRegistry::decide(const Site& site, long long hit_index,
                           long long key, const std::string& name) const {
  const FaultTrigger& t = site.trigger;
  if (t.always) return true;
  if (!t.keys.empty()) {
    for (const long long k : t.keys) {
      if (k == key) return true;
    }
    return false;
  }
  if (t.probability >= 0.0) {
    const std::uint64_t h = splitmix64(
        seed_ ^ hash_string(name) ^
        splitmix64(static_cast<std::uint64_t>(hit_index)));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < t.probability;
  }
  if (t.nth > 0) {
    return t.from_nth ? hit_index >= t.nth : hit_index == t.nth;
  }
  return false;
}

bool FaultRegistry::hit(const char* site, long long key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  if (it == sites_.end()) return false;
  Site& s = it->second;
  ++s.hits;
  if (!decide(s, s.hits, key, it->first)) return false;
  ++s.fired;
  std::string note = util::format("%s (hit %lld", site, s.hits);
  if (key >= 0) note += util::format(", key %lld", key);
  note += ")";
  fired_.push_back(std::move(note));
  return true;
}

long long FaultRegistry::fired_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<long long>(fired_.size());
}

std::vector<std::string> FaultRegistry::fired_report() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

}  // namespace ocr::util
