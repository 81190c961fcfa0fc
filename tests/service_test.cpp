/// \file service_test.cpp
/// \brief Routing-service tests: spec validation, admission control, the
/// bounded queue's overload contract and scheduled retries, CLI/daemon
/// single-job parity, and per-job isolation under concurrent execution
/// (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "flow/run.hpp"
#include "io/job_io.hpp"
#include "service/admission.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "service/queue.hpp"
#include "util/cancel.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/status.hpp"

namespace ocr::service {
namespace {

io::JobRequest ami33_request(const std::string& id) {
  io::JobRequest request;
  request.id = id;
  request.example = "ami33";
  return request;
}

JobSpec ami33_spec(const std::string& id) {
  auto spec = spec_from_request(ami33_request(id));
  EXPECT_TRUE(spec.ok()) << spec.status().to_string();
  return *spec;
}

RoutingJob materialized(const JobSpec& spec) {
  auto job = materialize(spec);
  EXPECT_TRUE(job.ok()) << job.status().to_string();
  return std::move(job).value();
}

TEST(JobSpecValidation, AcceptsEveryLegalKnobSpelling) {
  io::JobRequest request = ami33_request("a");
  for (const char* flow : {"overcell", "2layer", "4layer", "50pct"}) {
    request.flow = flow;
    EXPECT_TRUE(spec_from_request(request).ok()) << flow;
  }
  request.flow = "overcell";
  for (const char* part : {"class", "allb", "length=2000"}) {
    request.partition = part;
    EXPECT_TRUE(spec_from_request(request).ok()) << part;
  }
  request.partition = "class";
  for (const char* policy : {"abort", "degrade", "partial"}) {
    request.fail_policy = policy;
    EXPECT_TRUE(spec_from_request(request).ok()) << policy;
  }
}

TEST(JobSpecValidation, RejectsBadKnobs) {
  io::JobRequest request = ami33_request("a");
  request.flow = "3layer";
  EXPECT_FALSE(spec_from_request(request).ok());
  request = ami33_request("a");
  request.partition = "bogus";
  EXPECT_FALSE(spec_from_request(request).ok());
  request = ami33_request("a");
  request.fail_policy = "explode";
  EXPECT_FALSE(spec_from_request(request).ok());
  request = ami33_request("a");
  request.threads = -1;
  EXPECT_FALSE(spec_from_request(request).ok());
  request = ami33_request("a");
  request.deadline_ms = -5;
  EXPECT_FALSE(spec_from_request(request).ok());
  request = ami33_request("a");
  request.engine_mode = "bogus";
  const auto bad_mode = spec_from_request(request);
  ASSERT_FALSE(bad_mode.ok());
  EXPECT_EQ(bad_mode.status().kind(), util::StatusKind::kInvalidArgument);
  EXPECT_NE(bad_mode.status().message().find("unknown engine mode 'bogus'"),
            std::string::npos);
}

TEST(JobSpecValidation, RetiredEngineModesAreAliasesOfSharded) {
  io::JobRequest request = ami33_request("a");
  for (const char* mode : {"sharded", "speculative", "auto"}) {
    request.engine_mode = mode;
    EXPECT_TRUE(spec_from_request(request).ok()) << mode;
  }
}

TEST(JobSpecValidation, RequiresExactlyOneInstanceSource) {
  io::JobRequest request;  // neither example nor input
  request.id = "a";
  EXPECT_FALSE(spec_from_request(request).ok());
  request.example = "ami33";
  request.input = "also.oclay";  // both
  EXPECT_FALSE(spec_from_request(request).ok());
}

TEST(Materialize, BuildsLayoutPartitionAndEstimate) {
  const RoutingJob job = materialized(ami33_spec("a"));
  EXPECT_GT(job.estimate.nets, 0);
  EXPECT_GT(job.estimate.pins, 0);
  EXPECT_GT(job.estimate.demand_dbu, 0);
  EXPECT_GT(job.estimate.capacity_dbu, 0);
  EXPECT_GT(job.estimate.congestion, 0.0);
  // The over-cell flow needs a partition covering every net.
  EXPECT_EQ(job.partition.set_a.size() + job.partition.set_b.size(),
            static_cast<std::size_t>(job.estimate.nets));
}

TEST(Materialize, UnknownExampleFails) {
  JobSpec spec = ami33_spec("a");
  spec.example = "nope";
  EXPECT_FALSE(materialize(spec).ok());
}

TEST(Admission, PolicyRungs) {
  RouteEstimate estimate;
  estimate.nets = 100;
  estimate.congestion = 0.5;

  AdmissionPolicy policy;  // all thresholds disabled
  EXPECT_EQ(admit(policy, estimate), AdmissionDecision::kAdmit);

  policy.max_nets = 99;
  std::string reason;
  EXPECT_EQ(admit(policy, estimate, &reason), AdmissionDecision::kReject);
  EXPECT_FALSE(reason.empty());
  policy.max_nets = 100;
  EXPECT_EQ(admit(policy, estimate), AdmissionDecision::kAdmit);

  policy.reject_congestion = 0.4;
  EXPECT_EQ(admit(policy, estimate, &reason), AdmissionDecision::kReject);
  policy.reject_congestion = 0.6;
  policy.downtier_congestion = 0.4;
  EXPECT_EQ(admit(policy, estimate), AdmissionDecision::kDowntier);
  policy.downtier_congestion = 0.6;
  EXPECT_EQ(admit(policy, estimate), AdmissionDecision::kAdmit);
}

TEST(Queue, EnforcesBoundExactly) {
  JobQueue queue(2);
  JobQueue::Entry a{materialized(ami33_spec("a")), nullptr};
  JobQueue::Entry b{materialized(ami33_spec("b")), nullptr};
  JobQueue::Entry c{materialized(ami33_spec("c")), nullptr};
  EXPECT_TRUE(queue.try_push(a));
  EXPECT_TRUE(queue.try_push(b));
  EXPECT_FALSE(queue.try_push(c));  // bound reached: reject, don't block
  EXPECT_EQ(queue.depth(), 2u);

  auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->job.spec.id, "a");  // FIFO
  EXPECT_EQ(queue.inflight(), 1u);
  EXPECT_TRUE(queue.try_push(c));  // slot freed
  queue.note_done();
  EXPECT_EQ(queue.inflight(), 0u);
}

TEST(Queue, CloseDeliversAcceptedEntriesThenStops) {
  JobQueue queue(4);
  JobQueue::Entry a{materialized(ami33_spec("a")), nullptr};
  EXPECT_TRUE(queue.try_push(a));
  queue.close();
  JobQueue::Entry b{materialized(ami33_spec("b")), nullptr};
  EXPECT_FALSE(queue.try_push(b));     // closed
  EXPECT_TRUE(queue.pop().has_value());  // accepted before close
  EXPECT_FALSE(queue.pop().has_value());  // closed and drained
}

/// Retries wait in the queue: a scheduled entry stays out of the FIFO
/// until its due time, and pop() waits for it.
TEST(Queue, ScheduledEntryIsNotPoppedBeforeItsDueTime) {
  JobQueue queue(4);
  const auto start = JobQueue::Clock::now();
  queue.push_retry({materialized(ami33_spec("late")), nullptr},
                   start + std::chrono::milliseconds(50));
  const auto popped = queue.pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->job.spec.id, "late");
  EXPECT_GE(JobQueue::Clock::now() - start, std::chrono::milliseconds(50));
  queue.note_done();
}

TEST(Queue, EarlierDueEntryScheduledLaterIsPoppedFirst) {
  JobQueue queue(4);
  const auto now = JobQueue::Clock::now();
  queue.push_retry({materialized(ami33_spec("second")), nullptr},
                   now + std::chrono::milliseconds(200));
  queue.push_retry({materialized(ami33_spec("first")), nullptr},
                   now + std::chrono::milliseconds(20));
  EXPECT_EQ(queue.pop()->job.spec.id, "first");
  EXPECT_EQ(queue.pop()->job.spec.id, "second");
}

/// A scheduled retry is outside the queue until due, as it was when a
/// separate thread held it: it takes no slot of the bound and shows in
/// neither depth() nor the depth gauge.
TEST(Queue, ScheduledEntriesLeaveDepthAndBoundUnchanged) {
  util::MetricsRegistry registry;
  JobQueue queue(1, registry);
  queue.push_retry({materialized(ami33_spec("scheduled")), nullptr},
                   JobQueue::Clock::now() + std::chrono::hours(1));
  EXPECT_EQ(queue.depth(), 0u);
  EXPECT_EQ(registry.gauge("service.queue_depth").value(), 0);
  JobQueue::Entry a{materialized(ami33_spec("a")), nullptr};
  JobQueue::Entry b{materialized(ami33_spec("b")), nullptr};
  EXPECT_TRUE(queue.try_push(a));   // the bound's one slot is free
  EXPECT_FALSE(queue.try_push(b));  // and now taken
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(registry.gauge("service.queue_depth").value(), 1);
}

/// Once due, a retry is in the FIFO before any admission decision, as if
/// it had been moved there at its due time: with no worker popping, it
/// fills a 1-slot bound (which it is itself exempt from), shows in the
/// depth and its gauge, and is popped ahead of jobs admitted after it.
TEST(Queue, DueRetryCountsAtAdmissionWithNoPopper) {
  util::MetricsRegistry registry;
  JobQueue queue(1, registry);
  queue.push_retry({materialized(ami33_spec("due")), nullptr},
                   JobQueue::Clock::now() - std::chrono::milliseconds(1));
  JobQueue::Entry fresh{materialized(ami33_spec("fresh")), nullptr};
  EXPECT_FALSE(queue.try_push(fresh));
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_EQ(registry.gauge("service.queue_depth").value(), 1);

  JobQueue wide(2, registry);
  wide.push_retry({materialized(ami33_spec("due")), nullptr},
                  JobQueue::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(wide.try_push(fresh));
  EXPECT_EQ(wide.pop()->job.spec.id, "due");
  EXPECT_EQ(wide.pop()->job.spec.id, "fresh");
}

/// close() makes every scheduled entry due at once, so accepted retries
/// still run at shutdown, then pop() ends.
TEST(Queue, CloseDeliversScheduledEntriesAtOnce) {
  JobQueue queue(4);
  const auto start = JobQueue::Clock::now();
  queue.push_retry({materialized(ami33_spec("a")), nullptr},
                   start + std::chrono::hours(1));
  queue.close();
  queue.push_retry({materialized(ami33_spec("b")), nullptr},
                   start + std::chrono::hours(1));
  EXPECT_EQ(queue.pop()->job.spec.id, "a");
  EXPECT_EQ(queue.pop()->job.spec.id, "b");
  EXPECT_FALSE(queue.pop().has_value());
  EXPECT_LT(JobQueue::Clock::now() - start, std::chrono::minutes(1));
}

/// A hard drain takes scheduled retries out of the queue and abandons
/// them: no callback, counted in the abandoned total.
TEST(Executor, HardDrainAbandonsScheduledRetries) {
  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.worker.fail=@0").ok());
  JobExecutor::Options options;
  options.workers = 1;
  options.retry.max_attempts = 2;
  options.retry.base_ms = 60'000;
  options.retry.max_ms = 60'000;
  JobExecutor executor(options);

  std::atomic<int> calls{0};
  ASSERT_TRUE(executor.submit(materialized(ami33_spec("backing-off")),
                              [&](JobResult) { calls.fetch_add(1); }));
  const int abandoned = executor.drain_within(100);
  chaos.clear();
  EXPECT_EQ(abandoned, 1);
  EXPECT_EQ(calls.load(), 0);
}

/// The executor's only threads are its pool workers: retries wait in the
/// queue and hang limits ride the jobs' own cancel checks.
TEST(Executor, OwnsNoThreadsBeyondItsWorkers) {
  const auto thread_count = [] {
    std::error_code error;
    const std::filesystem::directory_iterator tasks("/proc/self/task", error);
    if (error) return -1;
    return static_cast<int>(
        std::distance(tasks, std::filesystem::directory_iterator()));
  };
  const int before = thread_count();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is not readable";
  JobExecutor::Options options;
  options.workers = 2;
  options.retry.max_attempts = 3;
  options.hang_ms = 50;
  const JobExecutor executor(options);
  EXPECT_EQ(thread_count(), before + 2);
}

/// The acceptance bar for the refactor: a job through the executor and
/// the same spec through flow::run (the CLI path) produce identical
/// routing results — one code path, two front ends.
TEST(Executor, InlineJobMatchesFlowRun) {
  const RoutingJob job = materialized(ami33_spec("parity"));

  JobExecutor executor(JobExecutor::Options{});
  RoutingJob copy = materialized(ami33_spec("parity"));
  const JobResult result = executor.run_inline(std::move(copy));

  const flow::RunReport direct =
      flow::run(job.layout, job.partition, job_run_options(job));

  EXPECT_EQ(result.exit_class(), direct.exit_code());
  EXPECT_EQ(result.report.status, direct.status);
  EXPECT_EQ(result.report.metrics.wire_length, direct.metrics.wire_length);
  EXPECT_EQ(result.report.metrics.vias, direct.metrics.vias);
  EXPECT_EQ(result.report.metrics.unrouted_nets,
            direct.metrics.unrouted_nets);
  // The per-job metrics scope carries this job's flow.* quantities.
  EXPECT_EQ(result.metrics.gauge_value("flow.wire_length"),
            direct.metrics.wire_length);
  EXPECT_EQ(result.metrics.counter_value("flow.runs", 0), 1);
}

TEST(Executor, CompletionCallbackRunsOnceWithResult) {
  JobExecutor executor(JobExecutor::Options{});
  std::atomic<int> calls{0};
  JobResult seen;
  std::mutex mu;
  ASSERT_TRUE(executor.submit(materialized(ami33_spec("cb")),
                              [&](JobResult r) {
                                const std::lock_guard<std::mutex> lock(mu);
                                seen = std::move(r);
                                calls.fetch_add(1);
                              }));
  executor.drain();
  EXPECT_EQ(calls.load(), 1);
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.id, "cb");
  EXPECT_FALSE(seen.rejected);
  EXPECT_EQ(seen.exit_class(), 0);
}

TEST(Executor, AdmissionRejectInvokesCallbackImmediately) {
  JobExecutor::Options options;
  options.admission.max_nets = 1;  // ami33 has far more nets
  JobExecutor executor(options);
  int calls = 0;
  JobResult seen;
  EXPECT_FALSE(executor.submit(materialized(ami33_spec("big")),
                               [&](JobResult r) {
                                 ++calls;
                                 seen = std::move(r);
                               }));
  EXPECT_EQ(calls, 1);  // synchronous: no queue involved
  EXPECT_TRUE(seen.rejected);
  EXPECT_EQ(seen.exit_class(), 2);
  EXPECT_EQ(std::string(seen.status_name()), "rejected");
  EXPECT_FALSE(seen.reject_reason.ok());
}

TEST(Executor, DowntierCapsNetEffortAndStillCompletes) {
  JobExecutor::Options options;
  options.admission.downtier_congestion = 1e-9;  // everything down-tiers
  options.admission.downtier_net_effort = 50;    // brutal cap
  JobExecutor executor(options);
  JobResult seen;
  std::mutex mu;
  ASSERT_TRUE(executor.submit(materialized(ami33_spec("dt")),
                              [&](JobResult r) {
                                const std::lock_guard<std::mutex> lock(mu);
                                seen = std::move(r);
                              }));
  executor.drain();
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_TRUE(seen.downtiered);
  EXPECT_FALSE(seen.rejected);
  // A 50-vertex budget cannot finish ami33 cleanly: the degradation
  // ladder must have kicked in, not a hang or a hard failure.
  EXPECT_EQ(seen.report.status, flow::RunStatus::kPartial);
  EXPECT_GT(seen.report.metrics.budget_nets, 0);
}

/// Overload contract: with a queue bound of 1 and a burst of
/// submissions, some must be rejected immediately, every submission gets
/// exactly one completion, and accepted + rejected == submitted.
TEST(Executor, OverloadRejectsBeyondQueueBoundWithoutDropping) {
  JobExecutor::Options options;
  options.workers = 1;
  options.admission.queue_limit = 1;
  JobExecutor executor(options);

  constexpr int kJobs = 12;
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  int accepted_count = 0;
  for (int i = 0; i < kJobs; ++i) {
    const bool accepted = executor.submit(
        materialized(ami33_spec("burst-" + std::to_string(i))),
        [&](JobResult r) {
          if (r.rejected) {
            EXPECT_EQ(r.exit_class(), 2);
            rejected.fetch_add(1);
          } else {
            completed.fetch_add(1);
          }
        });
    if (accepted) ++accepted_count;
  }
  executor.drain();
  EXPECT_EQ(completed.load(), accepted_count);
  EXPECT_EQ(completed.load() + rejected.load(), kJobs);
  // A burst of 12 against a 1-deep queue must overflow at least once
  // (each job takes ~tens of ms; submission is microseconds).
  EXPECT_GT(rejected.load(), 0);
  EXPECT_EQ(rejected.load(), kJobs - accepted_count);
}

/// Measures deadlines in level-B search progress (one millisecond per
/// unit) for the lifetime of the guard. Level A reports no progress, so
/// a 1 ms deadline can only fire once level B has examined its first
/// vertices — on slow (sanitizer) builds a wall-clock millisecond can
/// expire inside level A and fail the run — and the run's end-of-run
/// check fires it even if no check landed past it inside level B: the
/// run ends `partial` on any machine and load.
struct ProgressDeadlineClock {
  ProgressDeadlineClock() {
    util::set_deadline_test_clock(
        [](long long progress) -> std::chrono::nanoseconds {
          return std::chrono::milliseconds(progress);
        });
  }
  ~ProgressDeadlineClock() { util::set_deadline_test_clock(nullptr); }
};

/// Per-job isolation under concurrency: clean, deadline-doomed and
/// fault-armed jobs run together on several workers; each result must
/// carry only its own status and its own metrics scope.
TEST(Executor, ConcurrentJobsIsolateStatusAndMetrics) {
  const ProgressDeadlineClock clock;
  JobExecutor::Options options;
  options.workers = 3;
  options.admission.queue_limit = 64;
  JobExecutor executor(options);

  struct Seen {
    std::mutex mu;
    std::vector<JobResult> results;
  } seen;
  const auto collect = [&seen](JobResult r) {
    const std::lock_guard<std::mutex> lock(seen.mu);
    seen.results.push_back(std::move(r));
  };

  constexpr int kRounds = 4;
  int submitted = 0;
  for (int i = 0; i < kRounds; ++i) {
    const std::string n = std::to_string(i);
    // A clean single-thread job.
    ASSERT_TRUE(executor.submit(materialized(ami33_spec("clean-" + n)),
                                collect));
    // A clean multi-thread job (engine pool inside the job).
    JobSpec threaded = ami33_spec("threaded-" + n);
    threaded.threads = 2;
    ASSERT_TRUE(executor.submit(materialized(threaded), collect));
    // A job doomed by a 1 ms deadline.
    JobSpec doomed = ami33_spec("deadline-" + n);
    doomed.deadline_ms = 1;
    ASSERT_TRUE(executor.submit(materialized(doomed), collect));
    // A fault-armed job: must run exclusively and keep its injected
    // faults out of everyone else's report.
    JobSpec faulty = ami33_spec("faulty-" + n);
    faulty.threads = 2;
    faulty.faults = "engine.committer.commit=2";
    ASSERT_TRUE(executor.submit(materialized(faulty), collect));
    submitted += 4;
  }
  executor.drain();

  const std::lock_guard<std::mutex> lock(seen.mu);
  ASSERT_EQ(seen.results.size(), static_cast<std::size_t>(submitted));
  for (const JobResult& r : seen.results) {
    SCOPED_TRACE(r.id);
    EXPECT_FALSE(r.rejected);
    EXPECT_EQ(r.metrics.counter_value("flow.runs", 0), 1);
    if (r.id.rfind("deadline-", 0) == 0) {
      EXPECT_TRUE(r.report.deadline_fired);
      EXPECT_EQ(r.report.status, flow::RunStatus::kPartial);
    } else if (r.id.rfind("faulty-", 0) == 0) {
      EXPECT_GE(r.report.metrics.faults_injected, 1);
      EXPECT_GE(r.metrics.counter_value("flow.faults_injected", 0), 1);
    } else {
      // Clean jobs: no deadline, no faults, no cancellations — nothing
      // leaked in from the doomed or faulty neighbours.
      EXPECT_FALSE(r.report.deadline_fired);
      EXPECT_EQ(r.report.status, flow::RunStatus::kClean);
      EXPECT_EQ(r.report.metrics.faults_injected, 0);
      EXPECT_EQ(r.report.metrics.cancelled_nets, 0);
      EXPECT_EQ(r.metrics.counter_value("flow.faults_injected", 0), 0);
      EXPECT_EQ(r.metrics.counter_value("flow.deadline_fired", 0), 0);
    }
  }
}

/// Deterministic results through the service: the same spec executed
/// twice on a multi-worker executor yields byte-identical routing
/// figures (the engine is deterministic at any thread count; the service
/// must not break that).
TEST(Executor, RepeatedJobsAreDeterministic) {
  JobExecutor::Options options;
  options.workers = 2;
  JobExecutor executor(options);

  std::mutex mu;
  std::vector<JobResult> results;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec = ami33_spec("det-" + std::to_string(i));
    spec.threads = 2;
    ASSERT_TRUE(executor.submit(materialized(spec), [&](JobResult r) {
      const std::lock_guard<std::mutex> lock(mu);
      results.push_back(std::move(r));
    }));
  }
  executor.drain();

  const std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.report.metrics.wire_length,
              results.front().report.metrics.wire_length);
    EXPECT_EQ(r.report.metrics.vias, results.front().report.metrics.vias);
    EXPECT_EQ(r.exit_class(), 0);
  }
}

/// Regression for the overload-gauge audit: a burst that bounces off the
/// queue bound must leave both queue gauges at zero once the executor
/// drains — a rejected submission never touches the depth gauge, and
/// every accepted entry is matched by exactly one note_done.
TEST(Executor, GaugesReturnToZeroAfterRejectionBurst) {
  JobExecutor::Options options;
  options.workers = 1;
  options.admission.queue_limit = 1;
  {
    JobExecutor executor(options);
    std::atomic<int> calls{0};
    for (int i = 0; i < 10; ++i) {
      executor.submit(materialized(ami33_spec("gauge-" + std::to_string(i))),
                      [&](JobResult) { calls.fetch_add(1); });
    }
    executor.drain();
    EXPECT_EQ(calls.load(), 10);  // every submission answered exactly once
  }
  auto& registry = util::MetricsRegistry::global();
  EXPECT_EQ(registry.gauge("service.queue_depth").value(), 0);
  EXPECT_EQ(registry.gauge("service.inflight").value(), 0);
}

/// Hard drain: a wedged job is abandoned (no completion callback) once
/// the deadline passes, and drain_within reports it.
TEST(Executor, DrainWithinAbandonsWedgedJobs) {
  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.worker.hang=1").ok());

  JobExecutor::Options options;
  options.workers = 1;
  JobExecutor executor(options);

  std::atomic<int> calls{0};
  ASSERT_TRUE(executor.submit(materialized(ami33_spec("wedged")),
                              [&](JobResult) { calls.fetch_add(1); }));
  const int abandoned = executor.drain_within(100);
  chaos.clear();
  EXPECT_EQ(abandoned, 1);
  // Abandoned jobs get no callback — in the daemon their journal records
  // have no terminal entry, which is exactly what --recover re-enqueues.
  EXPECT_EQ(calls.load(), 0);
}

/// Supervision: a worker whose progress freezes is cancelled by its
/// hang limit and, with retries enabled, the job completes on a fresh
/// attempt.
TEST(Executor, SupervisorRestartsHungWorkerAndRetryCompletes) {
  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.worker.hang=1").ok());
  auto& registry = util::MetricsRegistry::global();
  const long long restarts_before =
      registry.counter("service.worker_restarts").value();

  JobExecutor::Options options;
  options.workers = 1;
  options.hang_ms = 50;
  options.retry.max_attempts = 2;
  options.retry.base_ms = 1;
  JobExecutor executor(options);

  std::mutex mu;
  JobResult seen;
  ASSERT_TRUE(executor.submit(materialized(ami33_spec("hung")),
                              [&](JobResult r) {
                                const std::lock_guard<std::mutex> lock(mu);
                                seen = std::move(r);
                              }));
  executor.drain();
  chaos.clear();

  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.exit_class(), 0);  // second attempt routed cleanly
  EXPECT_EQ(seen.attempts, 2);
  EXPECT_GE(registry.counter("service.worker_restarts").value(),
            restarts_before + 1);
}

/// ocr_served --recover replays journaled request lines verbatim, and
/// journals written before the engine had one parallel mode carry
/// "engine_mode":"speculative". Such a job must recover and route exactly
/// like a fresh sharded job.
TEST(JournalReplay, SpeculativeRequestRecoversLikeFreshShardedJob) {
  const std::string path = "service_test_replay.jsonl";
  std::remove(path.c_str());
  {
    Journal journal;
    ASSERT_TRUE(journal.open(path).ok());
    io::JournalRecord accepted;
    accepted.event = io::JournalEvent::kAccepted;
    accepted.id = "old";
    accepted.request =
        R"({"id":"old","example":"ami33","threads":4,)"
        R"("engine_mode":"speculative"})";
    ASSERT_TRUE(journal.append(accepted).ok());
    io::JournalRecord started;
    started.event = io::JournalEvent::kStarted;
    started.id = "old";
    ASSERT_TRUE(journal.append(started).ok());
    journal.close();
  }
  const auto plan = recover_journal(path);
  std::remove(path.c_str());
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->unfinished, 1);
  ASSERT_EQ(plan->jobs.size(), 1u);
  ASSERT_FALSE(plan->jobs[0].has_terminal);

  // The replay path of ocr_served: parse, validate, materialize, run.
  const auto run_line = [](const std::string& line) {
    const auto request = io::parse_job_request(line);
    EXPECT_TRUE(request.ok()) << request.status().to_string();
    const auto spec = spec_from_request(*request);
    EXPECT_TRUE(spec.ok()) << spec.status().to_string();
    JobExecutor executor(JobExecutor::Options{});
    return executor.run_inline(materialized(*spec));
  };
  const JobResult recovered = run_line(plan->jobs[0].request);
  const JobResult fresh = run_line(
      R"({"id":"new","example":"ami33","threads":4,"engine_mode":"sharded"})");

  EXPECT_EQ(recovered.exit_class(), 0);
  EXPECT_EQ(recovered.exit_class(), fresh.exit_class());
  const engine::EngineStats& e = recovered.report.metrics.engine;
  EXPECT_EQ(e.threads, 4);
  EXPECT_EQ(e.sharded_commits + e.boundary_nets + e.worker_failures +
                e.fault_reroutes,
            static_cast<long long>(recovered.report.metrics.levelb_nets));
  // The job's own metrics scope carries the engine counters too.
  EXPECT_GT(e.batches, 0);
  EXPECT_EQ(recovered.metrics.counter_value("engine.batches"), e.batches);
  EXPECT_EQ(recovered.report.metrics.wire_length,
            fresh.report.metrics.wire_length);
  EXPECT_EQ(recovered.report.metrics.vias, fresh.report.metrics.vias);
  EXPECT_EQ(recovered.report.metrics.levelb_vertices,
            fresh.report.metrics.levelb_vertices);
  EXPECT_EQ(recovered.report.metrics.unrouted_nets,
            fresh.report.metrics.unrouted_nets);
}

TEST(Responses, ResultMapsToWireFormat) {
  JobExecutor executor(JobExecutor::Options{});
  const JobResult result =
      executor.run_inline(materialized(ami33_spec("wire")));
  const io::JobResponse response = to_response(result);
  EXPECT_EQ(response.id, "wire");
  EXPECT_EQ(response.status, "clean");
  EXPECT_EQ(response.exit_class, 0);
  EXPECT_GT(response.wire_length, 0);
  EXPECT_GT(response.vias, 0);
  EXPECT_TRUE(response.error.empty());

  // And the rendered line survives a parse round-trip.
  const auto parsed =
      io::parse_job_response(io::render_job_response(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->wire_length, response.wire_length);
}

}  // namespace
}  // namespace ocr::service
