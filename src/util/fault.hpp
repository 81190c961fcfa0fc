#pragma once
/// \file fault.hpp
/// \brief Deterministic fault-injection registry.
///
/// Production code marks failure-capable points with `OCR_FAULT("site")`
/// (or `OCR_FAULT_KEY("site", key)` where the call order is thread
/// dependent but a stable key exists, e.g. a net's ordering position).
/// The macro is a single relaxed atomic load while no faults are
/// configured, so shipping the sites costs nothing.
///
/// Tests and CI arm sites through a spec string (programmatically or via
/// the `OCR_FAULTS` environment variable):
///
/// ```
/// spec    := entry (';' entry)*
/// entry   := 'seed=' N            seed for probabilistic triggers
///          | site '=' trigger
/// trigger := '*'                  every hit
///          | N                    exactly the Nth hit (1-based)
///          | N '+'                the Nth hit and every one after
///          | '~' P                each hit with probability P (seeded,
///                                 deterministic per site + hit index)
///          | '@' K ('|' K)*       hits whose key matches (key-based
///                                 sites only; counter hits never match)
/// ```
///
/// Example: `OCR_FAULTS="engine.committer.commit=2;io.layout.line=@7;seed=3"`.
/// Every decision is a pure function of (spec, site, hit index, key), so
/// a run with a fixed spec is reproducible at any thread count for
/// key-based sites, and on the single-threaded committer/parser paths
/// for counter-based ones.
///
/// The sites are a closed list: kFaultSites for OCR_FAULT, and
/// kServiceFaultSites for OCR_SERVICE_FAULT. A macro naming a site its
/// list lacks does not compile, and the front ends parse a spec against
/// its list (parse_fault_spec, or configure() with the list), so a
/// misspelt site is an invalid argument rather than a fault that never
/// fires.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

namespace ocr::util {

/// Every OCR_FAULT site: the names a job's `faults` spec may arm.
inline constexpr std::string_view kFaultSites[] = {
    "engine.committer.apply", "engine.committer.commit",
    "engine.worker.route",    "io.layout.line",
    "levelb.connect",         "util.pool.task",
};

/// Every OCR_SERVICE_FAULT site: the names the daemon's chaos plan may arm.
inline constexpr std::string_view kServiceFaultSites[] = {
    "service.journal.append", "service.journal.replay",
    "service.worker.fail",    "service.worker.hang",
};

/// \p site itself when \p sites lists it. Any other name is not a
/// constant expression, so a macro naming it does not compile.
template <std::size_t N>
consteval const char* listed_site(const char* site,
                                  const std::string_view (&sites)[N]) {
  for (const std::string_view listed : sites) {
    if (listed == site) return site;
  }
  throw "fault site missing from its list";
}

/// When one armed site fires (see the file comment's grammar).
struct FaultTrigger {
  bool always = false;
  long long nth = 0;         ///< fire on this hit (1-based), 0 = unused
  bool from_nth = false;     ///< nth and onward
  double probability = -1.0; ///< seeded per-hit probability, <0 = unused
  std::vector<long long> keys;  ///< '@' key matches
};

/// A parsed spec: the probability seed and each armed site's trigger.
struct FaultSpec {
  std::uint64_t seed = 1;
  std::map<std::string, FaultTrigger> sites;
};

/// Parses \p spec without arming anything. A syntax error is
/// kInvalidArgument, and so is a site \p known does not list, unless
/// \p known is empty.
StatusOr<FaultSpec> parse_fault_spec(
    const std::string& spec, std::span<const std::string_view> known = {});

class FaultRegistry {
 public:
  /// Process-wide registry the OCR_FAULT macros consult.
  static FaultRegistry& global();

  /// Second process-wide registry for service-layer sites (journal
  /// append, worker kill and hang, recovery replay). Kept separate
  /// from global() because the job executor re-arms global() from each
  /// job's `faults` spec per attempt — service chaos plans must survive
  /// that churn, persisting hit counters across attempts so triggers
  /// like `service.worker.fail=@0` ("kill every first attempt") work.
  /// Armed once at daemon startup via `--service-faults` /
  /// `OCR_SERVICE_FAULTS`; consulted by the OCR_SERVICE_FAULT macros.
  static FaultRegistry& service();

  /// Replaces the configuration with \p spec (parse_fault_spec against
  /// \p known) and resets all hit counters and the fired log. An empty
  /// spec disarms; so does a rejected one, never leaving it half-armed.
  Status configure(const std::string& spec,
                   std::span<const std::string_view> known = {});

  /// Disarms every site and clears counters and the fired log.
  void clear();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Should the Nth hit of \p site fail? Counter-based: every call
  /// advances the site's hit counter.
  bool should_fail(const char* site) { return hit(site, kNoKey); }

  /// Keyed variant for sites whose call order is thread dependent: '@'
  /// triggers match \p key; counter triggers still see the hit.
  bool should_fail(const char* site, long long key) {
    return hit(site, key);
  }

  /// Total faults fired since the last configure()/clear().
  long long fired_count() const;

  /// Human-readable log of fired faults, in firing order.
  std::vector<std::string> fired_report() const;

 private:
  static constexpr long long kNoKey = -1;

  struct Site {
    FaultTrigger trigger;
    long long hits = 0;
    long long fired = 0;
  };

  bool hit(const char* site, long long key);
  bool decide(const Site& site, long long hit_index, long long key,
              const std::string& name) const;

  std::atomic<bool> armed_{false};
  mutable std::mutex mu_;
  std::uint64_t seed_ = 1;
  std::map<std::string, Site> sites_;
  std::vector<std::string> fired_;
};

}  // namespace ocr::util

/// True when the registry says this hit of \p site must fail. Zero-cost
/// (one relaxed load) while no faults are configured. \p site must be a
/// kFaultSites entry.
#define OCR_FAULT(site)                                    \
  (::ocr::util::FaultRegistry::global().armed() &&         \
   ::ocr::util::FaultRegistry::global().should_fail(       \
       ::ocr::util::listed_site((site), ::ocr::util::kFaultSites)))

#define OCR_FAULT_KEY(site, key)                                         \
  (::ocr::util::FaultRegistry::global().armed() &&                       \
   ::ocr::util::FaultRegistry::global().should_fail(                     \
       ::ocr::util::listed_site((site), ::ocr::util::kFaultSites), (key)))

/// Service-layer variants consulting FaultRegistry::service() — armed by
/// the daemon's chaos plan, untouched by per-job fault arming. \p site
/// must be a kServiceFaultSites entry.
#define OCR_SERVICE_FAULT(site)                                   \
  (::ocr::util::FaultRegistry::service().armed() &&               \
   ::ocr::util::FaultRegistry::service().should_fail(             \
       ::ocr::util::listed_site((site), ::ocr::util::kServiceFaultSites)))

#define OCR_SERVICE_FAULT_KEY(site, key)                                 \
  (::ocr::util::FaultRegistry::service().armed() &&                      \
   ::ocr::util::FaultRegistry::service().should_fail(                    \
       ::ocr::util::listed_site((site), ::ocr::util::kServiceFaultSites), \
       (key)))
