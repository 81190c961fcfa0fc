#include "service/executor.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/fault.hpp"
#include "util/log.hpp"
#include "util/manifest.hpp"
#include "util/str.hpp"

namespace ocr::service {
namespace {

using Clock = std::chrono::steady_clock;

long long ms_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// Shared latency buckets for the service histograms (ms).
std::vector<long long> latency_bounds() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
}

JobResult rejected_result(const RoutingJob& job, util::Status reason) {
  JobResult result;
  result.id = job.spec.id;
  result.rejected = true;
  result.reject_reason = std::move(reason);
  result.queue_ms = ms_since(job.submitted);
  return result;
}

}  // namespace

JobExecutor::JobExecutor(const Options& options)
    : options_(options),
      queue_(static_cast<std::size_t>(
          std::max(1LL, options.admission.queue_limit))),
      running_(static_cast<std::size_t>(std::max(1LL, options.workers))),
      pool_(static_cast<int>(std::max(1LL, options.workers)),
            "service.pool") {
  if (options_.hang_ms > 0) {
    // Listed from the start: a metrics dump shows 0 restarts, not none.
    util::MetricsRegistry::global().counter("service.worker_restarts");
  }
  for (int i = 0; i < pool_.size(); ++i) {
    pool_.submit([this, i] { worker_loop(i); });
  }
}

JobExecutor::~JobExecutor() {
  // close() makes every scheduled retry due at once, so accepted jobs
  // still run to completion; pool_'s destructor then joins the drain
  // loops, which run every entry accepted before the close.
  queue_.close();
}

bool JobExecutor::submit(RoutingJob job, Callback on_complete) {
  job.submitted = Clock::now();
  util::MetricsRegistry& global = util::MetricsRegistry::global();
  global.counter("service.jobs_submitted").add();

  std::string reason;
  const AdmissionDecision decision =
      admit(options_.admission, job.estimate, &reason);
  if (decision == AdmissionDecision::kReject) {
    global.counter("service.jobs_rejected").add();
    if (on_complete) {
      on_complete(rejected_result(
          job, util::Status::invalid_argument(reason).with_stage(
                   "admission")));
    }
    return false;
  }
  if (decision == AdmissionDecision::kDowntier) job.downtiered = true;

  // Write-ahead: the acceptance is journaled before the job can reach a
  // worker, so a crash at any later point leaves a replayable record.
  {
    io::JournalRecord record;
    record.event = io::JournalEvent::kAccepted;
    record.id = job.spec.id;
    record.attempt = job.attempt;
    record.request = job.request_line;
    journal_append(std::move(record));
  }

  {
    const std::lock_guard<std::mutex> lock(pending_mu_);
    ++pending_;
  }
  JobQueue::Entry entry{std::move(job), std::move(on_complete)};
  if (!queue_.try_push(entry)) {
    util::Status overload =
        util::Status::budget_exhausted(
            util::format("job queue full (limit %zu)", queue_.limit()))
            .with_stage("admission");
    if (options_.retry.enabled() &&
        entry.job.attempt + 1 < options_.retry.max_attempts &&
        !hard_drain_.load(std::memory_order_relaxed)) {
      // Overload is transient: hold the job through a backoff instead
      // of bouncing it (the re-queue is bound exempt).
      schedule_retry(std::move(entry), overload);
      return true;
    }
    global.counter("service.jobs_rejected").add();
    finish(entry, rejected_result(entry.job, std::move(overload)));
    return false;
  }
  return true;
}

void JobExecutor::drain() {
  std::unique_lock<std::mutex> lock(pending_mu_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

int JobExecutor::drain_within(long long deadline_ms) {
  {
    std::unique_lock<std::mutex> lock(pending_mu_);
    if (pending_cv_.wait_for(lock,
                             std::chrono::milliseconds(
                                 std::max<long long>(0, deadline_ms)),
                             [this] { return pending_ == 0; })) {
      return 0;
    }
  }
  hard_drain_.store(true, std::memory_order_relaxed);

  // Scheduled retries will never come due in time: abandon them.
  for (JobQueue::Entry& entry : queue_.take_scheduled()) abandon(entry);

  // Cancel every running job; the cooperative cancel unwinds the worker
  // and finish_or_retry routes the cancelled attempt to abandon().
  // Queued-but-unstarted entries are abandoned by the drain loops.
  {
    const std::lock_guard<std::mutex> lock(running_mu_);
    for (std::optional<util::CancelSource>& cancel : running_) {
      if (cancel) {
        cancel->cancel(
            util::Status::cancelled("drain deadline").with_stage("drain"));
      }
    }
  }
  drain();
  return abandoned_.load(std::memory_order_relaxed);
}

JobResult JobExecutor::run_inline(RoutingJob job) {
  job.submitted = Clock::now();
  util::MetricsRegistry::global().counter("service.jobs_submitted").add();
  return execute_job(job, -1);
}

void JobExecutor::worker_loop(int slot) {
  while (std::optional<JobQueue::Entry> entry = queue_.pop()) {
    if (hard_drain_.load(std::memory_order_relaxed)) {
      queue_.note_done();
      abandon(*entry);
      continue;
    }
    {
      io::JournalRecord record;
      record.event = io::JournalEvent::kStarted;
      record.id = entry->job.spec.id;
      record.attempt = entry->job.attempt;
      journal_append(std::move(record));
    }
    JobResult result = execute_job(entry->job, slot);
    queue_.note_done();
    finish_or_retry(std::move(*entry), std::move(result));
  }
}

void JobExecutor::finish_or_retry(JobQueue::Entry entry, JobResult result) {
  const RetryClass cls = classify_result(result);
  if (cls == RetryClass::kTransient) {
    if (hard_drain_.load(std::memory_order_relaxed)) {
      // The failure is our own drain cancellation (or raced with it):
      // leave the job unfinished in the journal for --recover.
      abandon(entry);
      return;
    }
    if (should_retry(options_.retry, result, entry.job.attempt)) {
      schedule_retry(std::move(entry),
                     result.rejected ? result.reject_reason
                                     : result.report.error);
      return;
    }
    if (options_.retry.enabled()) {
      util::MetricsRegistry::global().counter("service.retry_exhausted").add();
    }
  }
  finish(entry, std::move(result));
}

void JobExecutor::finish(JobQueue::Entry& entry, JobResult result) {
  result.attempts = entry.job.attempt + 1;
  if (options_.journal != nullptr) {
    io::JournalRecord record;
    record.event = result.exit_class() == 1 || result.exit_class() == 2
                       ? io::JournalEvent::kFailed
                       : io::JournalEvent::kCompleted;
    record.id = result.id;
    record.attempt = entry.job.attempt;
    record.response = io::render_job_response(to_response(result));
    // Terminal records fsync inside append(): by the time the callback
    // can emit the response line, the outcome is durable — the ordering
    // that makes recovery exactly-once.
    journal_append(std::move(record));
  }
  if (entry.on_complete) entry.on_complete(std::move(result));
  settle_pending();
}

void JobExecutor::schedule_retry(JobQueue::Entry entry,
                                 const util::Status& cause) {
  util::MetricsRegistry::global().counter("service.retries").add();
  const long long backoff =
      retry_backoff_ms(options_.retry, entry.job.spec.id, entry.job.attempt);
  {
    io::JournalRecord record;
    record.event = io::JournalEvent::kRetry;
    record.id = entry.job.spec.id;
    record.attempt = entry.job.attempt;
    record.backoff_ms = backoff;
    record.error = cause.to_string();
    journal_append(std::move(record));
  }
  entry.job.attempt += 1;
  // Cancellation is sticky; a retried attempt needs its own source so a
  // previous cancel (hang limit, deadline) cannot pre-cancel it.
  entry.job.cancel = util::CancelSource();
  queue_.push_retry(std::move(entry),
                    Clock::now() + std::chrono::milliseconds(backoff));
}

void JobExecutor::abandon(JobQueue::Entry& entry) {
  (void)entry;
  abandoned_.fetch_add(1, std::memory_order_relaxed);
  util::MetricsRegistry::global().counter("service.drain_abandoned").add();
  settle_pending();
}

void JobExecutor::journal_append(io::JournalRecord record) {
  if (options_.journal == nullptr || !options_.journal->is_open()) return;
  const util::Status status = options_.journal->append(std::move(record));
  if (!status.ok()) {
    // Keep serving with degraded durability; the append already counted
    // itself in service.journal_errors.
    OCR_WARN() << "journal append failed: " << status.to_string();
  }
}

void JobExecutor::settle_pending() {
  {
    const std::lock_guard<std::mutex> lock(pending_mu_);
    --pending_;
  }
  pending_cv_.notify_all();
}

JobResult JobExecutor::execute_job(RoutingJob& job, int slot) {
  JobResult result;
  result.id = job.spec.id;
  result.downtiered = job.downtiered;
  const Clock::time_point start = Clock::now();
  result.queue_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        start - job.submitted)
                        .count();

  // A pool slot's job is cancellable by a hard drain and, with hang_ms,
  // by its own hang limit; inline runs get neither.
  const auto set_running = [&](std::optional<util::CancelSource> cancel) {
    if (slot < 0) return;
    const std::lock_guard<std::mutex> lock(running_mu_);
    running_[static_cast<std::size_t>(slot)] = std::move(cancel);
  };
  if (slot >= 0) {
    job.cancel.set_hang_limit(std::chrono::milliseconds(options_.hang_ms));
  }
  set_running(job.cancel);
  const auto end_attempt = [&] {
    set_running(std::nullopt);
    if (job.cancel.reason().stage() == "supervise") {
      util::MetricsRegistry::global().counter("service.worker_restarts").add();
    }
  };

  // Service-layer chaos sites (armed once at daemon startup, keyed by
  // attempt so plans like `service.worker.fail=@0` kill every job's
  // first attempt deterministically at any worker count).
  if (slot >= 0) {
    if (OCR_SERVICE_FAULT_KEY("service.worker.fail", job.attempt)) {
      result.report.status = flow::RunStatus::kFailed;
      result.report.error = util::Status::task_failed("injected worker kill")
                                .with_stage("execute");
      result.run_ms = ms_since(start);
      end_attempt();
      return result;
    }
    if (OCR_SERVICE_FAULT("service.worker.hang")) {
      // Spin without heartbeats until the hang limit (or a drain)
      // cancels this slot — the scenario a hung worker presents.
      while (!job.cancel.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      result.report.status = flow::RunStatus::kFailed;
      result.report.error = job.cancel.reason();
      result.run_ms = ms_since(start);
      end_attempt();
      return result;
    }
  }

  flow::RunOptions options = job_run_options(job);
  util::MetricsRegistry& global = util::MetricsRegistry::global();
  if (job.downtiered) {
    const long long cap = options_.admission.downtier_net_effort;
    if (cap > 0) {
      options.net_effort =
          options.net_effort > 0 ? std::min(options.net_effort, cap) : cap;
    }
    global.counter("service.jobs_downtiered").add();
  }

  // Per-job metrics scope: flow.* and engine.* quantities for this job
  // alone.
  util::MetricsRegistry job_registry;
  {
    // The fault registry is process-global, so jobs that arm it run
    // exclusively; everything else shares. "-" is the disarmed default;
    // an empty spec inherits OCR_FAULTS and must also be exclusive.
    const bool exclusive = job.spec.faults != "-";
    std::shared_lock<std::shared_mutex> shared(fault_mu_, std::defer_lock);
    std::unique_lock<std::shared_mutex> unique(fault_mu_, std::defer_lock);
    if (exclusive) {
      unique.lock();
    } else {
      shared.lock();
    }
    result.report = execute_run(job.layout, job.partition, options,
                                job.cancel, &job_registry);
  }
  result.run_ms = ms_since(start);
  result.metrics = job_registry.snapshot();
  end_attempt();

  if (!job.spec.manifest_path.empty()) {
    util::RunManifest manifest("ocr_served");
    manifest.add_config("job_id", job.spec.id);
    add_job_config(manifest, job.spec);
    manifest.add_config("downtiered", job.downtiered);
    manifest.add_config("attempt", job.attempt);
    manifest.add_provenance("estimated_nets", job.estimate.nets);
    manifest.add_provenance("estimated_congestion", job.estimate.congestion);
    manifest.add_outcome("status", result.status_name());
    manifest.add_outcome("exit_class", result.exit_class());
    manifest.add_outcome("deadline_fired", result.report.deadline_fired);
    manifest.add_outcome("queue_ms", result.queue_ms);
    manifest.add_outcome("run_ms", result.run_ms);
    manifest.capture_metrics(job_registry);
    if (manifest.write_json_file(job.spec.manifest_path)) {
      result.manifest_path = job.spec.manifest_path;
    } else {
      OCR_WARN() << "cannot write job manifest '" << job.spec.manifest_path
                 << "'";
    }
  }

  global.counter("service.jobs_completed").add();
  global.histogram("service.queue_ms", latency_bounds())
      .observe(result.queue_ms);
  global.histogram("service.run_ms", latency_bounds()).observe(result.run_ms);
  return result;
}

}  // namespace ocr::service
