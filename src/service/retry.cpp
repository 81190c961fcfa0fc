#include "service/retry.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace ocr::service {

namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

RetryClass classify_status(const util::Status& status) {
  switch (status.kind()) {
    case util::StatusKind::kFaultInjected:
    case util::StatusKind::kCancelled:
    case util::StatusKind::kDeadlineExceeded:
    case util::StatusKind::kTaskFailed:
      return RetryClass::kTransient;
    case util::StatusKind::kBudgetExhausted:
      // Queue/pool overload rejections carry the admission stage; a
      // per-net effort budget is a property of the request and would
      // exhaust identically on every attempt.
      return status.stage() == "admission" ? RetryClass::kTransient
                                           : RetryClass::kPermanent;
    default:
      return RetryClass::kPermanent;
  }
}

RetryClass classify_result(const JobResult& result) {
  if (result.rejected) return classify_status(result.reject_reason);
  if (result.report.status != flow::RunStatus::kFailed) {
    return RetryClass::kPermanent;  // success — nothing to retry
  }
  return classify_status(result.report.error);
}

long long retry_backoff_ms(const RetryPolicy& policy,
                           const std::string& job_id, int failed_attempt) {
  const int shift = std::min(failed_attempt, 30);
  long long backoff = policy.base_ms > 0 ? policy.base_ms << shift : 0;
  backoff = std::min(backoff, policy.max_ms);
  if (backoff <= 0 || policy.jitter <= 0.0) return std::max(backoff, 0LL);
  util::Rng rng(static_cast<std::uint64_t>(policy.seed) ^ fnv1a(job_id) ^
                (0x9e3779b97f4a7c15ULL *
                 static_cast<std::uint64_t>(failed_attempt + 1)));
  const double factor =
      rng.uniform_real(1.0 - policy.jitter, 1.0 + policy.jitter);
  backoff = static_cast<long long>(static_cast<double>(backoff) * factor);
  return std::max(backoff, 1LL);
}

bool should_retry(const RetryPolicy& policy, const JobResult& result,
                  int failed_attempt) {
  if (!policy.enabled()) return false;
  if (failed_attempt + 1 >= policy.max_attempts) return false;
  return classify_result(result) == RetryClass::kTransient;
}

}  // namespace ocr::service
