#pragma once
/// \file journal.hpp
/// \brief Durable append-only job journal (write-ahead log) + recovery.
///
/// The daemon appends one `io::JournalRecord` per job-state transition
/// (see io/journal_io.hpp for the lifecycle). Durability policy:
///
/// * `accepted` / `started` / `retry` / `responded` records are batched —
///   fsync every `kFsyncEvery` (8) appends. Losing a tail of these
///   in a crash costs at most duplicate *work* (a job re-runs), never a
///   wrong answer.
/// * `completed` / `failed` / `drain` records fsync before append()
///   returns, and the daemon appends them **before** writing the
///   response line. A delivered response therefore implies a durable
///   terminal record, which is what makes recovery exactly-once: replay
///   never re-executes a job the client already saw finish.
///
/// A journal write failure (disk full, injected `service.journal.append`
/// fault) is surfaced as a Status; the daemon counts it in
/// `service.journal_errors` and keeps serving with degraded durability
/// rather than dropping live jobs.
///
/// `recover_journal` scans a journal left behind by a crashed or drained
/// daemon and folds it into per-job outcomes. Damaged lines — the torn
/// tail write of a SIGKILL, or bytes corrupted by the
/// `service.journal.replay` chaos site — are counted and skipped with a
/// located Status retained for the recovery summary, never a crash.

#include <mutex>
#include <string>
#include <vector>

#include "io/journal_io.hpp"
#include "util/status.hpp"

namespace ocr::service {

class Journal {
 public:
  /// Batched records reach disk at least every this many appends.
  static constexpr int kFsyncEvery = 8;

  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens \p path for appending (created if absent). After a recovery
  /// pass, call set_next_seq so new records continue the sequence.
  util::Status open(const std::string& path);

  bool is_open() const;
  const std::string& path() const { return path_; }

  /// Renders \p record (assigning the next sequence number) and appends
  /// it. Terminal events (completed/failed/drain) are fsynced before
  /// returning; others are batched. Thread-safe.
  util::Status append(io::JournalRecord record);

  /// Forces any batched appends to disk.
  util::Status sync();

  /// Continues the sequence after \p last_seq (recovery handoff).
  void set_next_seq(long long last_seq);

  /// Flushes and closes. Safe to call twice.
  void close();

 private:
  util::Status append_locked(const std::string& line, bool durable);
  util::Status sync_locked();

  mutable std::mutex mu_;
  int fd_ = -1;
  std::string path_;
  long long next_seq_ = 1;
  int unsynced_ = 0;
};

/// Everything recovery learned about one job id.
struct RecoveredJob {
  std::string id;
  std::string request;  ///< raw request line from the accepted record
  int attempts = 0;     ///< started records seen (execution attempts)
  bool has_terminal = false;
  std::string response;    ///< the terminal record's response line
  bool responded = false;  ///< response line reached the client
};

struct RecoveryPlan {
  /// Jobs in first-accepted order. Responded ⇢ dedupe any resubmission;
  /// terminal but not responded ⇢ re-emit the journaled response
  /// (flagged `replayed`); neither ⇢ re-enqueue.
  std::vector<RecoveredJob> jobs;

  long long lines_total = 0;
  long long lines_corrupt = 0;
  /// First skip reason (located), kept for the recovery summary.
  std::string first_corrupt_error;
  /// Highest sequence number seen (hand to Journal::set_next_seq).
  long long last_seq = 0;
  /// The journal ends with a drain record reporting zero unfinished jobs.
  bool clean_drain = false;
  /// Jobs with neither a terminal nor a `responded` record.
  int unfinished = 0;
};

/// Scans \p path and folds records into per-job outcomes. A missing file
/// is an empty plan (fresh start); an unreadable file is kIoError.
/// Damaged lines are skipped and counted, never fatal.
util::StatusOr<RecoveryPlan> recover_journal(const std::string& path);

}  // namespace ocr::service
