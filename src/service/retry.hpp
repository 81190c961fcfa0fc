#pragma once
/// \file retry.hpp
/// \brief Transient-failure classification and deterministic backoff.
///
/// A failed job is retried only when the failure could plausibly pass on
/// a second attempt — an injected fault, a hung/cancelled worker, a
/// run deadline, a crashed pool task, or queue overload. Failures
/// that are a pure function of the request (parse errors, invalid
/// arguments, unroutable instances, exhausted per-net budgets) would
/// fail identically every time and are never retried:
///
/// | Status kind        | class      | rationale                        |
/// |--------------------|------------|----------------------------------|
/// | kFaultInjected     | transient  | chaos plan, passes when disarmed |
/// | kCancelled         | transient  | hang limit / drain / external    |
/// | kDeadlineExceeded  | transient  | deadline fired, load dependent   |
/// | kTaskFailed        | transient  | worker crashed mid-job           |
/// | kBudgetExhausted   | transient iff stage == "admission" (overload) |
/// | kParseError        | permanent  | same bytes parse the same way    |
/// | kInvalidArgument   | permanent  | bad request knobs                |
/// | kUnroutable        | permanent  | search space has no path         |
/// | kIoError           | permanent  | missing/corrupt input file       |
/// | kInternal          | permanent  | needs a human, not a retry       |
///
/// Backoff is exponential with deterministic seeded jitter: the delay
/// for (policy, job id, attempt) is a pure function, so a retry schedule
/// reproduces exactly at any worker count — the property the retry
/// determinism tests pin.

#include <cstdint>
#include <string>

#include "service/job.hpp"
#include "util/status.hpp"

namespace ocr::service {

struct RetryPolicy {
  /// Total execution attempts per job (1 = retries disabled).
  long long max_attempts = 1;
  /// Backoff before retry k (0-based failed attempt) is
  /// `min(max_ms, base_ms << k)` scaled by the jitter factor.
  long long base_ms = 10;
  long long max_ms = 2000;
  /// Jitter fraction in [0, 1): the backoff is scaled by a deterministic
  /// factor drawn from [1 - jitter, 1 + jitter).
  double jitter = 0.2;
  /// Seed for the jitter draw (its bits mixed with job id and attempt).
  long long seed = 1;

  bool enabled() const { return max_attempts > 1; }
};

enum class RetryClass { kPermanent, kTransient };

/// Classifies one failure Status per the table above.
RetryClass classify_status(const util::Status& status);

/// Classifies a finished JobResult. Successful results (clean/partial)
/// are permanent — there is nothing to retry.
RetryClass classify_result(const JobResult& result);

/// Deterministic backoff in ms before re-running \p job_id after its
/// 0-based \p failed_attempt. Pure function of the arguments.
long long retry_backoff_ms(const RetryPolicy& policy,
                           const std::string& job_id, int failed_attempt);

/// True when \p result is transient and \p failed_attempt + 1 leaves
/// room under policy.max_attempts.
bool should_retry(const RetryPolicy& policy, const JobResult& result,
                  int failed_attempt);

}  // namespace ocr::service
