/// \file ocr_served.cpp
/// \brief The routing-service daemon: JSONL jobs in, JSONL results out.
///
/// Examples:
///   ocr_served < jobs.jsonl > results.jsonl       # batch over stdin
///   ocr_served --workers 4 --queue-limit 8
///   ocr_served --journal wal.jsonl --recover      # crash-safe serving
///   ocr_served --socket /tmp/ocr.sock             # serve connections
///
/// Every input line is one job request (io/job_io.hpp schema); every
/// line written back is one result. Responses are emitted as jobs
/// complete, so they may arrive out of submission order — correlate by
/// `id`. Every request produces exactly one response: malformed lines
/// and admission rejections answer immediately with exit_class 2, job
/// failures with exit_class 1. On EOF the daemon drains every accepted
/// job, then exits 0. Socket mode reads each connection the same way,
/// one connection at a time, and answers on it.
///
/// With `--journal PATH` every job-state transition is written ahead to
/// an append-only JSONL log; `--recover` replays it on startup —
/// re-running unfinished jobs, re-emitting journaled responses whose
/// delivery was not recorded (flagged `"replayed":true`), and
/// deduplicating resent ids that already completed. SIGTERM/SIGINT
/// switch either mode to drain mode: stop admitting, finish in-flight
/// work within `--drain-deadline-ms` (abandoned jobs stay journaled for
/// the next `--recover`), and exit 0 on a clean drain, 3 otherwise. A
/// reader that hangs up loses its responses, not the daemon. See
/// docs/SERVICE.md for the full failure model.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "io/job_io.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"

namespace {

using namespace ocr;

void usage() {
  std::puts(
      "usage: ocr_served [--workers N] [--queue-limit N]\n"
      "                  [--max-nets N] [--reject-congestion X]\n"
      "                  [--downtier-congestion X]\n"
      "                  [--downtier-net-effort N]\n"
      "                  [--journal FILE] [--recover]\n"
      "                  [--drain-deadline-ms N]\n"
      "                  [--retry-max N] [--retry-base-ms N]\n"
      "                  [--retry-seed N] [--hang-ms N]\n"
      "                  [--service-faults SPEC] [--manifest FILE]\n"
      "                  [--socket PATH] [--metrics-json FILE] [--verbose]\n"
      "\n"
      "Routing-as-a-service daemon. Reads one JSON job request per line\n"
      "from stdin (or from connections on --socket PATH) and writes one\n"
      "JSON result per line to stdout (or back on the connection) as\n"
      "jobs complete. Results can arrive out of submission order;\n"
      "correlate by the request's \"id\". Request/response schemas are\n"
      "documented in docs/SERVICE.md.\n"
      "\n"
      "--workers N runs N jobs concurrently (default 1). --queue-limit N\n"
      "bounds the pending-job queue (default 16): submissions beyond the\n"
      "bound are rejected immediately (exit_class 2) unless retries are\n"
      "enabled. --max-nets / --reject-congestion reject oversized or\n"
      "hopeless instances before routing; --downtier-congestion admits\n"
      "congested instances with the per-net effort capped at\n"
      "--downtier-net-effort. On stdin EOF the daemon finishes every\n"
      "accepted job and exits 0. --socket PATH serves one connection at\n"
      "a time, each drained before the next is accepted.\n"
      "\n"
      "Crash safety (stdin mode): --journal FILE write-ahead-logs every\n"
      "job transition; --recover replays it on startup (exactly-once per\n"
      "id). --retry-max N re-runs transiently failed jobs up to N total\n"
      "attempts with exponential backoff from --retry-base-ms (jittered\n"
      "deterministically from --retry-seed). --hang-ms N supervises\n"
      "workers: a frozen job is cancelled and retried. In either mode\n"
      "SIGTERM/SIGINT drain within --drain-deadline-ms (default 5000),\n"
      "then exit 0, or 3 when jobs were left unfinished. --manifest FILE\n"
      "writes the run manifest at exit. --service-faults arms\n"
      "service-layer chaos sites (also: OCR_SERVICE_FAULTS env).");
}

struct Args {
  /// The executor's knobs, bound straight to their flags.
  service::JobExecutor::Options executor;
  std::string journal_path;
  bool recover = false;
  long long drain_deadline_ms = 5000;
  std::string service_faults;
  std::string manifest_path;
  std::string socket_path;
  std::string metrics_json;
  bool verbose = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  service::JobExecutor::Options& ex = args.executor;
  bool help = false;
  const util::Status parsed = util::parse_flags(
      argc, argv,
      {util::int_flag("--workers", &ex.workers),
       util::int_flag("--queue-limit", &ex.admission.queue_limit, 1),
       util::int_flag("--max-nets", &ex.admission.max_nets),
       util::real_flag("--reject-congestion", &ex.admission.reject_congestion),
       util::real_flag("--downtier-congestion",
                       &ex.admission.downtier_congestion),
       util::int_flag("--downtier-net-effort",
                      &ex.admission.downtier_net_effort),
       util::text_flag("--journal", &args.journal_path),
       util::switch_flag("--recover", &args.recover),
       util::int_flag("--drain-deadline-ms", &args.drain_deadline_ms),
       util::int_flag("--retry-max", &ex.retry.max_attempts, 1),
       util::int_flag("--retry-base-ms", &ex.retry.base_ms),
       util::int_flag("--retry-seed", &ex.retry.seed),
       util::int_flag("--hang-ms", &ex.hang_ms),
       util::text_flag("--service-faults", &args.service_faults),
       util::text_flag("--manifest", &args.manifest_path),
       util::text_flag("--socket", &args.socket_path),
       util::text_flag("--metrics-json", &args.metrics_json),
       util::switch_flag("--verbose", &args.verbose),
       util::switch_flag("--help", &help),
       util::switch_flag("-h", &help)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return std::nullopt;
  }
  if (help) return std::nullopt;
  if (!args.journal_path.empty() && !args.socket_path.empty()) {
    std::fputs("--journal requires stdin mode (no --socket)\n", stderr);
    return std::nullopt;
  }
  if (args.recover && args.journal_path.empty()) {
    std::fputs("--recover requires --journal\n", stderr);
    return std::nullopt;
  }
  if (args.socket_path.size() >= sizeof(sockaddr_un::sun_path)) {
    std::fprintf(stderr, "ocr_served: socket path too long '%s'\n",
                 args.socket_path.c_str());
    return std::nullopt;
  }
  return args;
}

io::JobResponse error_response(const std::string& id, const char* status,
                               int exit_class, const std::string& error) {
  io::JobResponse response;
  response.id = id;
  response.status = status;
  response.exit_class = exit_class;
  response.error = error;
  return response;
}

/// Writes response lines from worker threads to one fd: stdout, or the
/// connection being served. Lines never interleave.
class ResponseWriter {
 public:
  explicit ResponseWriter(int fd) : fd_(fd) {}

  /// Points the writer at the next connection (no response in flight).
  void set_fd(int fd) {
    const std::lock_guard<std::mutex> lock(mu_);
    fd_ = fd;
  }

  /// Writes \p response as one line; false when it was not delivered
  /// because the reader hung up (SIGPIPE is ignored, so that is EPIPE).
  bool write(const io::JobResponse& response) {
    const std::string line = io::render_job_response(response) + "\n";
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t off = 0; off < line.size();) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        OCR_WARN() << "ocr_served: dropped response for a closed connection";
        return false;
      }
      off += static_cast<std::size_t>(n);
    }
    ++written_;
    return true;
  }

  /// Lines delivered so far.
  long long written() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return written_;
  }

 private:
  mutable std::mutex mu_;
  int fd_;
  long long written_ = 0;
};

/// Shared serving state: the executor, the output, the journal, the
/// request counts, and the per-id exactly-once bookkeeping (journal mode
/// only).
struct ServeState {
  explicit ServeState(service::JobExecutor& e) : executor(e) {}

  service::JobExecutor& executor;
  ResponseWriter writer{STDOUT_FILENO};
  service::Journal* journal = nullptr;  ///< non-null in journal mode

  std::mutex mu;
  std::set<std::string> live;       ///< accepted, response not yet written
  std::set<std::string> responded;  ///< response written (dedupe resends)
  long long requests = 0;
  long long deduped = 0;
  long long replayed = 0;
  long long recovered = 0;

  bool journaling() const { return journal != nullptr; }
};

/// Writes \p response and (journal mode) records its delivery. The
/// `responded` journal record is appended only *after* the line was
/// delivered: a crash in between, or a reader that hung up, leaves the
/// response to be replayed (flagged) by the next --recover, never lost.
void respond(ServeState& state, const io::JobResponse& response) {
  const bool delivered = state.writer.write(response);
  if (!state.journaling() || response.id.empty()) return;
  {
    const std::lock_guard<std::mutex> lock(state.mu);
    state.live.erase(response.id);
    state.responded.insert(response.id);
  }
  if (!delivered) return;
  io::JournalRecord record;
  record.event = io::JournalEvent::kResponded;
  record.id = response.id;
  const util::Status status = state.journal->append(std::move(record));
  if (!status.ok()) {
    OCR_WARN() << "journal responded append failed: " << status.to_string();
  }
}

/// Decodes, validates, materializes and submits one request line.
/// Exactly one response per id is guaranteed: immediately on
/// decode/materialize failure or admission rejection, from a worker
/// otherwise; journal-mode resends of an already-answered or in-flight
/// id are deduplicated.
void handle_line(const std::string& line, ServeState& state) {
  auto request = io::parse_job_request(line);
  if (!request.ok()) {
    respond(state, error_response("", "rejected", 2,
                                  request.status().to_string()));
    return;
  }
  if (state.journaling() && !request->id.empty()) {
    const std::lock_guard<std::mutex> lock(state.mu);
    if (state.responded.count(request->id) != 0 ||
        state.live.count(request->id) != 0) {
      // Already answered (or in flight and about to be): exactly-once
      // per id means a resend is dropped, not double-executed.
      ++state.deduped;
      util::MetricsRegistry::global().counter("service.jobs_deduped").add();
      return;
    }
    state.live.insert(request->id);
  }
  auto spec = service::spec_from_request(*request);
  if (!spec.ok()) {
    respond(state, error_response(request->id, "rejected", 2,
                                  spec.status().to_string()));
    return;
  }
  auto job = service::materialize(*spec);
  if (!job.ok()) {
    // The instance itself is broken (unknown example, unreadable file):
    // that is a job failure, not an admission decision — same contract
    // as the CLI's exit 1.
    respond(state,
            error_response(spec->id, "failed", 1, job.status().to_string()));
    return;
  }
  job->request_line = line;
  state.executor.submit(std::move(job).value(),
                        [&state](service::JobResult r) {
                          respond(state, service::to_response(r));
                        });
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

/// SIGTERM/SIGINT without SA_RESTART, so a blocked read or accept
/// returns EINTR and the serve loop can enter drain mode promptly.
/// SIGPIPE is ignored: a reader that hangs up fails the write of its
/// response instead of killing the daemon and every job in it.
void install_signals() {
  struct sigaction action {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately not SA_RESTART
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

/// Reads \p fd to EOF and hands each non-blank line to handle_line.
/// Returns early when SIGINT/SIGTERM set g_stop, dropping any
/// unterminated last line.
void read_requests(int fd, ServeState& state) {
  std::string line;
  const auto take = [&] {
    if (line.find_first_not_of(" \t\r") != std::string::npos) {
      ++state.requests;
      handle_line(line, state);
    }
    line.clear();
  };
  char buf[4096];
  while (g_stop == 0) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;  // signal: loop re-checks g_stop
    if (n <= 0) {
      if (n < 0) std::perror("ocr_served: read");
      take();
      return;
    }
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') {
        take();
      } else {
        line.push_back(buf[i]);
      }
    }
  }
}

/// A listening unix socket at \p path (a stale file there is replaced),
/// or -1 after printing why not.
int listen_at(const std::string& path) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("ocr_served: socket");
    return -1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("ocr_served: bind/listen");
    ::close(listener);
    return -1;
  }
  return listener;
}

/// Replays the journal on startup: responded ids are remembered for
/// dedupe, a finished job's journaled response is written again
/// (flagged `replayed`, no re-routing), and unfinished jobs re-enter the
/// executor through the normal submission path.
void replay_recovery(const service::RecoveryPlan& plan, ServeState& state) {
  util::MetricsRegistry& global = util::MetricsRegistry::global();
  for (const service::RecoveredJob& job : plan.jobs) {
    if (job.responded) {
      const std::lock_guard<std::mutex> lock(state.mu);
      state.responded.insert(job.id);
      continue;
    }
    if (job.has_terminal) {
      auto response = io::parse_job_response(job.response);
      if (response.ok()) {
        response->replayed = true;
        ++state.replayed;
        global.counter("service.jobs_replayed").add();
        respond(state, *response);
        continue;
      }
      OCR_WARN() << "recovery: job '" << job.id << "' has a damaged response ("
                 << response.status().to_string() << "), re-running it";
    }
    if (job.request.empty()) {
      OCR_WARN() << "recovery: job '" << job.id
                 << "' has no request record, cannot replay";
      continue;
    }
    ++state.recovered;
    global.counter("service.jobs_recovered").add();
    handle_line(job.request, state);
  }
}

/// Serves stdin, or with --socket one connection at a time, each its own
/// batch (drained before the next accept). Then both modes shut down
/// alike: a full drain after EOF, a bounded one after SIGINT/SIGTERM.
int serve(Args args) {
  install_signals();
  service::Journal journal;
  service::RecoveryPlan plan;
  if (!args.journal_path.empty()) {
    if (args.recover) {
      auto recovered = service::recover_journal(args.journal_path);
      if (!recovered.ok()) {
        std::fprintf(stderr, "ocr_served: %s\n",
                     recovered.status().to_string().c_str());
        return 2;
      }
      plan = std::move(recovered).value();
    }
    const util::Status status = journal.open(args.journal_path);
    if (!status.ok()) {
      std::fprintf(stderr, "ocr_served: %s\n", status.to_string().c_str());
      return 2;
    }
    journal.set_next_seq(plan.last_seq);
    args.executor.journal = &journal;
  }
  const int listener =
      args.socket_path.empty() ? -1 : listen_at(args.socket_path);
  if (!args.socket_path.empty() && listener < 0) return 1;

  service::JobExecutor executor(args.executor);
  ServeState state{executor};
  state.journal = args.executor.journal;
  if (args.recover) replay_recovery(plan, state);

  if (listener < 0) read_requests(STDIN_FILENO, state);
  int conn = -1;  // open while a signal ends its batch: the drain answers it
  while (listener >= 0 && g_stop == 0) {
    conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::perror("ocr_served: accept");
      break;
    }
    state.writer.set_fd(conn);
    read_requests(conn, state);
    if (g_stop != 0) break;
    executor.drain();  // every response out before the connection closes
    ::close(conn);
    conn = -1;
  }

  // Drain: complete on EOF, bounded when a signal asked us to stop.
  int unfinished = 0;
  if (g_stop != 0) {
    unfinished = executor.drain_within(args.drain_deadline_ms);
  } else {
    executor.drain();
  }
  if (conn >= 0) ::close(conn);
  if (listener >= 0) {
    ::close(listener);
    ::unlink(args.socket_path.c_str());
  }
  if (journal.is_open()) {
    io::JournalRecord record;
    record.event = io::JournalEvent::kDrain;
    record.unfinished = unfinished;
    const util::Status status = journal.append(std::move(record));
    if (!status.ok()) {
      OCR_WARN() << "journal drain append failed: " << status.to_string();
    }
    journal.close();
  }

  const long long written = state.writer.written();
  if (args.verbose || state.deduped > 0 || state.replayed > 0 ||
      state.recovered > 0) {
    std::fprintf(stderr,
                 "ocr_served: %lld requests, %lld responses, %lld recovered, "
                 "%lld replayed, %lld deduped, %d unfinished\n",
                 state.requests, written, state.recovered, state.replayed,
                 state.deduped, unfinished);
  }

  if (!args.manifest_path.empty()) {
    const service::JobExecutor::Options& ex = args.executor;
    util::RunManifest manifest("ocr_served");
    manifest.add_config("workers", ex.workers);
    manifest.add_config("queue_limit", ex.admission.queue_limit);
    manifest.add_config("journal", args.journal_path);
    manifest.add_config("recover", args.recover);
    manifest.add_config("retry_max", ex.retry.max_attempts);
    manifest.add_config("retry_base_ms", ex.retry.base_ms);
    manifest.add_config("retry_seed", ex.retry.seed);
    manifest.add_config("hang_ms", ex.hang_ms);
    manifest.add_config("drain_deadline_ms", args.drain_deadline_ms);
    manifest.add_provenance("journal_lines", plan.lines_total);
    manifest.add_provenance("journal_corrupt_lines", plan.lines_corrupt);
    if (!plan.first_corrupt_error.empty()) {
      manifest.add_provenance("journal_first_corrupt",
                              plan.first_corrupt_error);
    }
    manifest.add_provenance("recovered_jobs", state.recovered);
    manifest.add_provenance("replayed_responses", state.replayed);
    manifest.add_outcome("requests", state.requests);
    manifest.add_outcome("responses", written);
    manifest.add_outcome("deduped", state.deduped);
    manifest.add_outcome("drained_unfinished", unfinished);
    manifest.add_outcome("signalled", g_stop != 0);
    manifest.capture_metrics(util::MetricsRegistry::global());
    if (!manifest.write_json_file(args.manifest_path)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args.manifest_path.c_str());
    }
  }

  if (g_stop != 0) return unfinished == 0 ? 0 : 3;
  // EOF: every request must have been answered (or deduplicated);
  // replayed and re-executed recovery responses are extra lines on top
  // of `requests`.
  const long long expected =
      state.requests - state.deduped + state.replayed + state.recovered;
  return written == expected ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  if (args->verbose) util::set_log_level(util::LogLevel::kInfo);

  // Arm the service-layer chaos plan once at startup; per-job fault
  // arming (FaultRegistry::global()) never touches this registry.
  {
    const char* env = std::getenv("OCR_SERVICE_FAULTS");
    std::string spec = args->service_faults;
    if (spec.empty() && env != nullptr) spec = env;
    const util::Status status = util::FaultRegistry::service().configure(
        spec, util::kServiceFaultSites);
    if (!status.ok()) {
      std::fprintf(stderr, "ocr_served: %s\n", status.to_string().c_str());
      return 2;
    }
  }

  const int code = serve(*args);

  if (!args->metrics_json.empty()) {
    const util::MetricsSnapshot snapshot =
        util::MetricsRegistry::global().snapshot();
    if (!snapshot.write_json_file(args->metrics_json)) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   args->metrics_json.c_str());
      return 1;
    }
  }
  return code;
}
