/// \file retry_test.cpp
/// \brief Retry-policy tests: the transient/permanent classification
/// table, deterministic seeded backoff, and executor integration — a
/// chaos-killed first attempt retries to success, exhausted retries
/// surface the final failure, and the retry schedule plus the routed
/// results reproduce exactly at 1/2/4 workers.

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "flow/run.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/retry.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"

namespace ocr::service {
namespace {

RoutingJob ami33_job(const std::string& id) {
  io::JobRequest request;
  request.id = id;
  request.example = "ami33";
  auto spec = spec_from_request(request);
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  auto job = materialize(*spec);
  EXPECT_TRUE(job.ok()) << job.status().to_string();
  return std::move(job).value();
}

JobResult failed_result(util::Status error) {
  JobResult result;
  result.id = "r";
  result.report.status = flow::RunStatus::kFailed;
  result.report.error = std::move(error);
  return result;
}

TEST(RetryClassification, FollowsTheTable) {
  using util::Status;
  EXPECT_EQ(classify_status(Status::fault_injected("chaos")),
            RetryClass::kTransient);
  EXPECT_EQ(classify_status(Status::cancelled("supervisor")),
            RetryClass::kTransient);
  EXPECT_EQ(classify_status(Status::deadline_exceeded("deadline")),
            RetryClass::kTransient);
  EXPECT_EQ(classify_status(Status::task_failed("worker crash")),
            RetryClass::kTransient);
  // Overload (queue full at admission) is transient; a per-net routing
  // budget burning out is a property of the instance — permanent.
  Status overload = Status::budget_exhausted("queue full");
  overload.with_stage("admission");
  EXPECT_EQ(classify_status(overload), RetryClass::kTransient);
  EXPECT_EQ(classify_status(Status::budget_exhausted("net effort")),
            RetryClass::kPermanent);

  EXPECT_EQ(classify_status(Status::parse_error("bad json")),
            RetryClass::kPermanent);
  EXPECT_EQ(classify_status(Status::invalid_argument("bad knob")),
            RetryClass::kPermanent);
  EXPECT_EQ(classify_status(Status::unroutable("no path")),
            RetryClass::kPermanent);
  EXPECT_EQ(classify_status(Status::io_error("missing file")),
            RetryClass::kPermanent);
}

TEST(RetryClassification, ResultsClassifyThroughTheirFailureStatus) {
  // A successful result is never retried.
  JobResult clean;
  clean.report.status = flow::RunStatus::kClean;
  EXPECT_EQ(classify_result(clean), RetryClass::kPermanent);

  EXPECT_EQ(classify_result(failed_result(util::Status::cancelled("hung"))),
            RetryClass::kTransient);
  EXPECT_EQ(classify_result(failed_result(util::Status::parse_error("bad"))),
            RetryClass::kPermanent);

  // Admission rejections classify through reject_reason.
  JobResult rejected;
  rejected.rejected = true;
  rejected.reject_reason = util::Status::budget_exhausted("queue full");
  rejected.reject_reason.with_stage("admission");
  EXPECT_EQ(classify_result(rejected), RetryClass::kTransient);
  rejected.reject_reason = util::Status::invalid_argument("too many nets");
  EXPECT_EQ(classify_result(rejected), RetryClass::kPermanent);
}

TEST(RetryBackoff, IsAPureFunctionOfPolicyIdAndAttempt) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.base_ms = 10;
  policy.seed = 42;
  for (int attempt = 0; attempt < 4; ++attempt) {
    EXPECT_EQ(retry_backoff_ms(policy, "job-a", attempt),
              retry_backoff_ms(policy, "job-a", attempt));
  }
  // Different ids draw different jitter (with overwhelming probability
  // across four attempts).
  bool any_difference = false;
  for (int attempt = 0; attempt < 4; ++attempt) {
    any_difference |= retry_backoff_ms(policy, "job-a", attempt) !=
                      retry_backoff_ms(policy, "job-b", attempt);
  }
  EXPECT_TRUE(any_difference);
}

TEST(RetryBackoff, GrowsExponentiallyWithinJitterAndCaps) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.base_ms = 100;
  policy.max_ms = 1000;
  policy.jitter = 0.2;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const long long nominal =
        std::min(policy.max_ms, policy.base_ms << std::min(attempt, 30));
    const long long drawn = retry_backoff_ms(policy, "job", attempt);
    EXPECT_GE(drawn, static_cast<long long>(nominal * 0.8) - 1) << attempt;
    EXPECT_LE(drawn, static_cast<long long>(nominal * 1.2) + 1) << attempt;
  }
  // Zero jitter pins the exact exponential sequence.
  policy.jitter = 0.0;
  EXPECT_EQ(retry_backoff_ms(policy, "job", 0), 100);
  EXPECT_EQ(retry_backoff_ms(policy, "job", 1), 200);
  EXPECT_EQ(retry_backoff_ms(policy, "job", 2), 400);
  EXPECT_EQ(retry_backoff_ms(policy, "job", 3), 800);
  EXPECT_EQ(retry_backoff_ms(policy, "job", 4), 1000);  // capped
  EXPECT_EQ(retry_backoff_ms(policy, "job", 8), 1000);
}

TEST(RetryPolicy, ShouldRetryRespectsAttemptCapAndClass) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  const JobResult transient =
      failed_result(util::Status::cancelled("supervisor"));
  const JobResult permanent =
      failed_result(util::Status::parse_error("bad"));
  EXPECT_TRUE(should_retry(policy, transient, 0));
  EXPECT_TRUE(should_retry(policy, transient, 1));
  EXPECT_FALSE(should_retry(policy, transient, 2));  // third attempt done
  EXPECT_FALSE(should_retry(policy, permanent, 0));

  policy.max_attempts = 1;  // disabled
  EXPECT_FALSE(should_retry(policy, transient, 0));
}

/// Chaos integration: `service.worker.fail=@0` kills every job's first
/// attempt; with retries enabled each job must succeed on its second.
TEST(RetryExecutor, InjectedFirstAttemptFailureRetriesToSuccess) {
  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.worker.fail=@0").ok());
  auto& registry = util::MetricsRegistry::global();
  const long long retries_before =
      registry.counter("service.retries").value();

  JobExecutor::Options options;
  options.workers = 2;
  options.retry.max_attempts = 3;
  options.retry.base_ms = 1;
  JobExecutor executor(options);

  std::mutex mu;
  std::vector<JobResult> results;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(executor.submit(ami33_job("retry-" + std::to_string(i)),
                                [&](JobResult r) {
                                  const std::lock_guard<std::mutex> lock(mu);
                                  results.push_back(std::move(r));
                                }));
  }
  executor.drain();
  chaos.clear();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(results.size(), 3u);
  for (const JobResult& r : results) {
    SCOPED_TRACE(r.id);
    EXPECT_EQ(r.exit_class(), 0);
    EXPECT_EQ(r.attempts, 2);  // attempt 0 killed, attempt 1 clean
  }
  EXPECT_EQ(registry.counter("service.retries").value(), retries_before + 3);
}

/// A permanently failing job burns every attempt, then surfaces the last
/// failure with the full attempt count.
TEST(RetryExecutor, ExhaustedRetriesSurfaceTheFinalFailure) {
  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.worker.fail=*").ok());
  auto& registry = util::MetricsRegistry::global();
  const long long exhausted_before =
      registry.counter("service.retry_exhausted").value();

  JobExecutor::Options options;
  options.retry.max_attempts = 3;
  options.retry.base_ms = 1;
  JobExecutor executor(options);

  std::mutex mu;
  JobResult seen;
  ASSERT_TRUE(executor.submit(ami33_job("doomed"), [&](JobResult r) {
    const std::lock_guard<std::mutex> lock(mu);
    seen = std::move(r);
  }));
  executor.drain();
  chaos.clear();

  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.exit_class(), 1);
  EXPECT_EQ(seen.attempts, 3);
  EXPECT_FALSE(seen.report.error.ok());
  EXPECT_EQ(registry.counter("service.retry_exhausted").value(),
            exhausted_before + 1);
}

/// Permanent failures never consume a retry: an unknown-example job
/// fails once even with a generous retry budget.
TEST(RetryExecutor, PermanentFailuresAreNotRetried) {
  auto& registry = util::MetricsRegistry::global();
  const long long retries_before =
      registry.counter("service.retries").value();

  JobExecutor::Options options;
  options.retry.max_attempts = 5;
  options.retry.base_ms = 1;
  JobExecutor executor(options);

  // An infeasible per-net budget under the abort policy fails
  // deterministically on every attempt — a pure function of the request.
  RoutingJob doomed = ami33_job("permanent");
  doomed.spec.fail_policy = flow::FailPolicy::kAbort;
  doomed.spec.net_effort = 1;  // nothing routes under a 1-vertex budget

  std::mutex mu;
  JobResult seen;
  ASSERT_TRUE(executor.submit(std::move(doomed), [&](JobResult r) {
    const std::lock_guard<std::mutex> lock(mu);
    seen = std::move(r);
  }));
  executor.drain();

  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.exit_class(), 1);
  EXPECT_EQ(seen.attempts, 1);  // no retry consumed
  EXPECT_EQ(registry.counter("service.retries").value(), retries_before);
}

/// The determinism pin: the same seed and fault plan produce the same
/// retry schedule (per-job backoff sequence) and byte-identical routing
/// figures at 1, 2 and 4 workers.
TEST(RetryExecutor, ScheduleAndResultsReproduceAcrossWorkerCounts) {
  struct Observed {
    int attempts = 0;
    long long wire_length = 0;
    int vias = 0;
    std::vector<long long> backoffs;
  };

  const auto run_fleet = [](int workers) {
    auto& chaos = util::FaultRegistry::service();
    EXPECT_TRUE(chaos.configure("service.worker.fail=@0").ok());

    JobExecutor::Options options;
    options.workers = workers;
    options.admission.queue_limit = 16;
    options.retry.max_attempts = 3;
    options.retry.base_ms = 1;
    options.retry.seed = 77;

    std::map<std::string, Observed> seen;
    {
      JobExecutor executor(options);
      std::mutex mu;
      for (int i = 0; i < 6; ++i) {
        const std::string id = "det-" + std::to_string(i);
        EXPECT_TRUE(executor.submit(ami33_job(id), [&, id](JobResult r) {
          const std::lock_guard<std::mutex> lock(mu);
          seen[id].attempts = r.attempts;
          seen[id].wire_length = r.report.metrics.wire_length;
          seen[id].vias = r.report.metrics.vias;
        }));
      }
      executor.drain();
    }
    chaos.clear();

    // The schedule every failed attempt would draw is a pure function of
    // (policy, id, attempt) — record it alongside the observed results.
    for (auto& [id, observed] : seen) {
      for (int a = 0; a + 1 < observed.attempts + 1; ++a) {
        observed.backoffs.push_back(retry_backoff_ms(options.retry, id, a));
      }
    }
    return seen;
  };

  const auto baseline = run_fleet(1);
  ASSERT_EQ(baseline.size(), 6u);
  for (const auto& [id, observed] : baseline) {
    SCOPED_TRACE(id);
    EXPECT_EQ(observed.attempts, 2);
    EXPECT_GT(observed.wire_length, 0);
  }
  for (const int workers : {2, 4}) {
    SCOPED_TRACE(workers);
    const auto seen = run_fleet(workers);
    ASSERT_EQ(seen.size(), baseline.size());
    for (const auto& [id, observed] : baseline) {
      const auto it = seen.find(id);
      ASSERT_NE(it, seen.end()) << id;
      EXPECT_EQ(it->second.attempts, observed.attempts) << id;
      EXPECT_EQ(it->second.wire_length, observed.wire_length) << id;
      EXPECT_EQ(it->second.vias, observed.vias) << id;
      EXPECT_EQ(it->second.backoffs, observed.backoffs) << id;
    }
  }
}

}  // namespace
}  // namespace ocr::service
