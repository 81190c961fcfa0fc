#pragma once
/// \file journal_io.hpp
/// \brief JSONL codec for the durable job journal.
///
/// The `ocr_served` daemon records every job-state transition as one
/// JSON object per line in an append-only write-ahead log
/// (`src/service/journal.hpp`). This file owns the wire format only —
/// rendering a record to its line and parsing a line back — so the
/// recovery scanner and the fuzz tests share one codec with the rest of
/// `src/io/`.
///
/// Record lifecycle for one job id:
///
/// ```
/// accepted ──► started ──► completed            (clean / partial)
///                 │    └──► failed              (terminal failure)
///                 └──► retry ──► started ──► …  (transient, re-queued)
/// completed/failed ──► responded                (result line delivered)
/// ```
///
/// plus one `drain` record at clean shutdown. Example lines:
///
/// ```json
/// {"event":"accepted","seq":1,"id":"j1","attempt":0,"request":"{...}"}
/// {"event":"started","seq":2,"id":"j1","attempt":0}
/// {"event":"retry","seq":3,"id":"j1","attempt":1,"backoff_ms":12,
///  "error":"[task] execute: injected worker kill"}
/// {"event":"completed","seq":5,"id":"j1","attempt":1,
///  "response":"{\"id\":\"j1\",\"status\":\"clean\",...}"}
/// {"event":"responded","seq":6,"id":"j1"}
/// {"event":"drain","seq":7,"unfinished":0}
/// ```
///
/// Parsing is tolerant of unknown fields (forward compatibility) but
/// strict about structure and types: a truncated or corrupted line is a
/// located `kParseError`, never a crash — recovery counts and skips
/// damaged records (typically the torn tail write of a crash).

#include <string>

#include "util/status.hpp"

namespace ocr::io {

/// One journal state transition. See the file comment for the lifecycle.
enum class JournalEvent {
  kAccepted,   ///< admission accepted the job; `request` holds the line
  kStarted,    ///< a worker began executing an attempt
  kRetry,      ///< a transient attempt failed; re-queued after backoff
  kCompleted,  ///< terminal result, exit_class 0 or 3 (`response` set)
  kFailed,     ///< terminal result, exit_class 1 or 2 (`response` set)
  kResponded,  ///< the response line was delivered to the client
  kDrain,      ///< clean shutdown marker with the unfinished-job count
};

/// "accepted", "started", ... (the wire spellings).
const char* journal_event_name(JournalEvent event);

struct JournalRecord {
  JournalEvent event = JournalEvent::kAccepted;
  /// Monotonic per-journal sequence number (assigned by Journal::append).
  long long seq = 0;
  std::string id;
  long long attempt = 0;
  /// kAccepted: the raw JSONL request line, replayed verbatim on
  /// recovery to rebuild the job.
  std::string request;
  /// kCompleted / kFailed: the response line (io::render_job_response)
  /// the client is sent; recovery re-emits it without re-routing.
  std::string response;
  /// kRetry: human-readable failure reason.
  std::string error;
  /// kRetry: scheduled backoff before the next attempt.
  long long backoff_ms = 0;
  /// kDrain: jobs still unfinished at shutdown (0 for a clean drain).
  long long unfinished = 0;
};

/// Renders \p record as one JSON line (no trailing newline). Only the
/// fields meaningful for the record's event are emitted.
std::string render_journal_record(const JournalRecord& record);

/// Parses one journal line. Unknown fields are ignored; a structurally
/// damaged line or an unknown event name is a kParseError.
util::StatusOr<JournalRecord> parse_journal_record(const std::string& line);

}  // namespace ocr::io
