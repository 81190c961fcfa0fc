#pragma once
/// \file executor.hpp
/// \brief The job executor: admission, a bounded queue, worker drain
/// loops on the shared util::ThreadPool, retry scheduling, hang limits,
/// and the single-job execution path that the CLI and the daemon share.
/// The pool's workers are the executor's only threads.
///
/// Life of a job:
///
/// ```
/// submit(job, on_complete)
///   ├─ admission (service/admission.hpp): reject / down-tier / admit
///   ├─ rejected  -> on_complete(JobResult{rejected}) immediately
///   └─ admitted  -> journal `accepted` -> bounded JobQueue
///        └─ worker drain loop: journal `started` -> execute_run(...)
///             ├─ terminal   -> journal `completed`/`failed` (fsynced)
///             │                -> on_complete(JobResult) on the worker
///             └─ transient  -> journal `retry` -> scheduled in the
///                              JobQueue (bound exempt) as attempt+1;
///                              a worker's pop() takes it once due
/// ```
///
/// Completion is asynchronous: `on_complete` runs on the worker thread
/// that executed the job (or on the submitting thread for rejections).
/// Callbacks must be thread-safe against each other. Every submission
/// produces **at most one** completion: exactly one in normal operation,
/// zero only for jobs abandoned by a hard drain (see drain_within) —
/// those stay journaled as unfinished for a later `--recover` pass.
///
/// Per-job isolation guarantees:
///  * every job gets its own CancelSource, which carries its deadline —
///    one job's cancellation can never leak into another; every retry
///    attempt gets a *fresh* CancelSource (cancellation is sticky);
///  * every job gets its own MetricsRegistry scope; the `flow.*` and
///    `engine.*` metrics in a JobResult describe that job alone (the
///    global registry still accumulates totals across jobs);
///  * jobs that arm fault injection run *exclusively* (the registry is
///    process-global), serialized behind all concurrently running clean
///    jobs — a faulted job can never poison a clean one. Service-layer
///    chaos sites live in the separate FaultRegistry::service() and are
///    untouched by per-job arming.
///
/// Supervision: when `Options::hang_ms > 0`, each pool attempt's
/// CancelSource carries a hang limit beside its deadline. Every cancel
/// check the job makes enforces it: a check that finds the progress
/// counter (which level B's search bumps) frozen, with a freeze timer
/// started at the first check that found it so (or at the attempt's
/// start) past hang_ms, cancels the job with stage "supervise"
/// (counted in `service.worker_restarts`). The cooperative cancel
/// unwinds the worker back into its drain loop — the slot restarts on
/// the next pop — and the job is re-queued as a retry when the policy
/// allows.

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <vector>

#include "flow/run.hpp"
#include "service/admission.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "service/queue.hpp"
#include "service/retry.hpp"
#include "util/thread_pool.hpp"

namespace ocr::service {

/// Orchestrates one routing run on the calling thread: arms faults,
/// sets the run's deadline on \p cancel, dispatches the flow, checks
/// the deadline once more, and classifies the outcome. This is the
/// single code path behind both `flow::run` (CLI) and the executor
/// workers (daemon).
/// When \p job_registry is non-null, every flow.* metric (and, for an
/// over-cell run, every engine.* counter) is published there as well as
/// to the global registry.
flow::RunReport execute_run(const floorplan::MacroLayout& ml,
                            const partition::NetPartition& partition,
                            const flow::RunOptions& options,
                            util::CancelSource& cancel,
                            util::MetricsRegistry* job_registry = nullptr);

/// Arms the process-global fault registry with a job's `faults` spec:
/// "-" disarms it, "" reads the OCR_FAULTS environment variable, anything
/// else is parsed with the util/fault.hpp grammar. A spec that does not
/// parse, or names a site util::kFaultSites lacks, is kInvalidArgument and
/// leaves the registry disarmed. execute_run calls it first; `ocr_route`
/// also calls it before the input parse so `io.*` sites fire.
util::Status arm_faults(const std::string& faults);

class JobExecutor {
 public:
  struct Options {
    /// Concurrent job workers (each job may additionally use its own
    /// level-B engine threads; see docs/SERVICE.md on oversubscription).
    long long workers = 1;
    AdmissionPolicy admission;
    /// Transient-failure retry policy (max_attempts = 1 disables).
    RetryPolicy retry;
    /// Optional durable journal, owned by the caller (the daemon). When
    /// set and open, every job-state transition is appended.
    Journal* journal = nullptr;
    /// Hang limit: a pool job whose progress counter stays frozen this
    /// long is cancelled and retried. 0 = none.
    long long hang_ms = 0;
  };

  using Callback = std::function<void(JobResult)>;

  explicit JobExecutor(const Options& options);
  /// Closes the queue, runs every already-accepted job (scheduled
  /// retries at once) to completion, and joins the workers.
  ~JobExecutor();

  JobExecutor(const JobExecutor&) = delete;
  JobExecutor& operator=(const JobExecutor&) = delete;

  /// Admission + enqueue. Returns true when the job was accepted.
  /// Returns false when it was rejected (queue bound or admission
  /// policy) — \p on_complete has then already been invoked with a
  /// rejected JobResult. A queue-full overload with retries enabled is
  /// accepted instead: the job waits out a backoff and re-enters the
  /// queue bound-exempt.
  bool submit(RoutingJob job, Callback on_complete);

  /// Blocks until every accepted job has completed (the queue stays
  /// open; more work may be submitted afterwards).
  void drain();

  /// Drain with an escalation deadline: waits up to \p deadline_ms for
  /// a clean drain, then hard-drains — cancels every running job (stage
  /// "drain"), drops scheduled retries and queued entries *without*
  /// completing them. Abandoned jobs keep their journal `accepted`
  /// records and are re-run by a later `--recover` pass. Returns the
  /// number of jobs abandoned (0 = clean drain).
  int drain_within(long long deadline_ms);

  /// Runs one job synchronously on the calling thread through the same
  /// execution path the workers use (admission, journaling, retries and
  /// the hang limit are not applied).
  JobResult run_inline(RoutingJob job);

  int workers() const { return pool_.size(); }
  const Options& options() const { return options_; }

 private:
  void worker_loop(int slot);
  JobResult execute_job(RoutingJob& job, int slot);
  /// Terminal-vs-retry decision after an attempt.
  void finish_or_retry(JobQueue::Entry entry, JobResult result);
  /// Journals the terminal record, completes the callback, settles
  /// pending accounting.
  void finish(JobQueue::Entry& entry, JobResult result);
  /// Journals the retry record and schedules the next attempt.
  void schedule_retry(JobQueue::Entry entry, const util::Status& cause);
  /// Hard-drain path: settle accounting without completing.
  void abandon(JobQueue::Entry& entry);
  void journal_append(io::JournalRecord record);
  void settle_pending();

  Options options_;
  JobQueue queue_;
  /// Fault-arming jobs take this exclusively; clean jobs take it shared.
  std::shared_mutex fault_mu_;
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  long long pending_ = 0;  ///< accepted but not yet completed/abandoned
  std::atomic<bool> hard_drain_{false};
  std::atomic<int> abandoned_{0};

  /// The running job's cancel source per worker slot, for drain_within.
  std::mutex running_mu_;
  std::vector<std::optional<util::CancelSource>> running_;
  util::ThreadPool pool_;  ///< declared last: workers use the members above
};

}  // namespace ocr::service
