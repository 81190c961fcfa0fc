#pragma once
/// \file job_io.hpp
/// \brief JSONL codec for routing-service jobs.
///
/// The `ocr_served` daemon speaks a line-oriented protocol: every request
/// is one JSON object per line on stdin (or a unix-socket connection) and
/// every response is one JSON object per line on stdout (or back on the
/// same connection). This file owns both directions: a small strict JSON
/// parser for the flat request schema, and the response renderer.
///
/// Request schema (all fields optional unless noted; unknown keys are a
/// parse error so typos fail loudly):
///
/// ```json
/// {"id":"job-1","example":"ami33","flow":"overcell","partition":"class",
///  "threads":2,"deadline_ms":5000,"net_effort":0,
///  "fail_policy":"degrade","faults":"-","manifest":"out/job-1.json"}
/// ```
///
/// * `id`          — caller-chosen correlation tag echoed in the response.
/// * `example` / `input` — exactly one required: a built-in generator name
///   (`ami33|xerox|ex3|random[:seed]`) or an `.oclay` file path.
/// * `flow`        — `overcell|2layer|4layer|50pct` (default `overcell`).
/// * `partition`   — `class|allb|length=<dbu>` (default `class`).
/// * `threads`     — level-B engine workers for this job (default 1).
/// * `engine_mode` — parallel dispatch for `threads > 1`: `sharded`
///   (default). The retired `speculative` and `auto` are accepted as
///   aliases of `sharded`, so old request lines and journals replay;
///   any other name is rejected.
/// * `deadline_ms` — per-job wall-clock budget, 0 = none.
/// * `net_effort`  — per-net vertex budget, 0 = unlimited.
/// * `fail_policy` — `abort|degrade|partial` (default `degrade`).
/// * `faults`      — fault-injection spec; default `"-"` (disarmed — jobs
///   never inherit `OCR_FAULTS` from the daemon environment).
/// * `manifest`    — path to write this job's RunManifest JSON.
///
/// Response schema (see docs/SERVICE.md for the exit-class contract):
///
/// ```json
/// {"id":"job-1","status":"clean","exit_class":0,"queue_ms":1,"run_ms":42,
///  "wire_length":12345,"vias":67,"unrouted_nets":0,"cancelled_nets":0,
///  "deadline_fired":false,"faults_injected":0,"error":"","manifest":"..."}
/// ```

#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/status.hpp"

namespace ocr::io {

/// One decoded job request: a JSONL line (`ocr_served`) or the job flags
/// of an `ocr_route` command line. Plain data; validation beyond the
/// value types (legal flow names, spec consistency) happens in
/// service::spec_from_request so the codec stays policy-free.
struct JobRequest {
  std::string id;
  std::string example;
  std::string input;
  std::string flow = "overcell";
  std::string partition = "class";
  long long threads = 1;
  std::string engine_mode = "sharded";
  long long deadline_ms = 0;
  long long net_effort = 0;
  std::string fail_policy = "degrade";
  /// "-" disarms injection for this job (the default; an empty spec would
  /// mean "inherit OCR_FAULTS", which a multi-tenant daemon must not do).
  std::string faults = "-";
  std::string manifest;
};

/// One JobRequest field: its JSONL key, its `ocr_route` flag (nullptr
/// for the wire-only `id`) and its member, a string or an integer.
struct JobKnob {
  const char* key;
  const char* flag;
  std::string JobRequest::*text;
  long long JobRequest::*number;
};

/// Every JobRequest field, in the order the codec checks them.
inline constexpr JobKnob kJobKnobs[] = {
    {"id", nullptr, &JobRequest::id, nullptr},
    {"example", "--example", &JobRequest::example, nullptr},
    {"input", "--input", &JobRequest::input, nullptr},
    {"flow", "--flow", &JobRequest::flow, nullptr},
    {"partition", "--partition", &JobRequest::partition, nullptr},
    {"threads", "--threads", nullptr, &JobRequest::threads},
    {"engine_mode", "--engine-mode", &JobRequest::engine_mode, nullptr},
    {"deadline_ms", "--deadline-ms", nullptr, &JobRequest::deadline_ms},
    {"net_effort", "--net-effort", nullptr, &JobRequest::net_effort},
    {"fail_policy", "--fail-policy", &JobRequest::fail_policy, nullptr},
    {"faults", "--faults", &JobRequest::faults, nullptr},
    {"manifest", "--manifest", &JobRequest::manifest, nullptr},
};

/// Parses one JSONL request line. Strict: the line must be a flat JSON
/// object, every key must be known, and values must have the right type.
/// Returns kParseError with a byte offset in the message otherwise.
util::StatusOr<JobRequest> parse_job_request(const std::string& line);

/// The `ocr_route` flag of every knob that has one, each setting its
/// field of \p request. An integer knob rejects text that is not a whole
/// decimal integer with the same kParseError a JSONL line of the wrong
/// type gets.
std::vector<util::Flag> job_knob_flags(JobRequest& request);

/// One job-response line (not yet newline-terminated).
struct JobResponse {
  std::string id;
  std::string status;  ///< clean | partial | failed | rejected
  int exit_class = 0;  ///< 0 clean, 1 failed, 2 rejected/usage, 3 partial
  long long queue_ms = 0;
  long long run_ms = 0;
  long long wire_length = 0;
  int vias = 0;
  int unrouted_nets = 0;
  int cancelled_nets = 0;
  bool deadline_fired = false;
  long long faults_injected = 0;
  int attempts = 1;       ///< execution attempts (>1 when retried)
  bool replayed = false;  ///< synthesized from the journal, not re-routed
  std::string error;      ///< empty when OK
  std::string manifest;   ///< manifest path when one was written
};

/// Renders \p response as one JSON object (single line, no newline).
std::string render_job_response(const JobResponse& response);

/// Parses a response line back into a JobResponse. `ocr_served
/// --recover` re-emits a journaled response line through it, and tests
/// read daemon output with it.
util::StatusOr<JobResponse> parse_job_response(const std::string& line);

}  // namespace ocr::io
