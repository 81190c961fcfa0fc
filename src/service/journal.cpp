#include "service/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <utility>

#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/str.hpp"

namespace ocr::service {

using util::Status;
using util::StatusOr;

namespace {

Status errno_status(const char* what, const std::string& path) {
  return Status::io_error(util::format("%s %s: %s", what, path.c_str(),
                                       std::strerror(errno)))
      .with_stage("journal");
}

bool terminal_event(io::JournalEvent event) {
  return event == io::JournalEvent::kCompleted ||
         event == io::JournalEvent::kFailed ||
         event == io::JournalEvent::kDrain;
}

}  // namespace

Journal::~Journal() { close(); }

Status Journal::open(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    return Status::invalid_argument("journal already open").with_stage(
        "journal");
  }
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                        0644);
  if (fd < 0) return errno_status("open journal", path);
  fd_ = fd;
  path_ = path;
  unsynced_ = 0;
  return Status();
}

bool Journal::is_open() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fd_ >= 0;
}

Status Journal::append(io::JournalRecord record) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) {
    return Status::invalid_argument("journal not open").with_stage("journal");
  }
  record.seq = next_seq_++;
  return append_locked(io::render_journal_record(record) + "\n",
                       terminal_event(record.event));
}

Status Journal::append_locked(const std::string& line, bool durable) {
  auto& metrics = util::MetricsRegistry::global();
  if (OCR_SERVICE_FAULT("service.journal.append")) {
    metrics.counter("service.journal_errors").add();
    return Status::io_error("injected journal append failure")
        .with_stage("journal");
  }
  const char* data = line.data();
  std::size_t left = line.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      metrics.counter("service.journal_errors").add();
      return errno_status("write journal", path_);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  metrics.counter("service.journal_appends").add();
  ++unsynced_;
  if (durable || unsynced_ >= kFsyncEvery) return sync_locked();
  return Status();
}

Status Journal::sync() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return Status();
  return sync_locked();
}

Status Journal::sync_locked() {
  if (unsynced_ == 0) return Status();
  if (::fsync(fd_) != 0) {
    util::MetricsRegistry::global().counter("service.journal_errors").add();
    return errno_status("fsync journal", path_);
  }
  util::MetricsRegistry::global().counter("service.journal_fsyncs").add();
  unsynced_ = 0;
  return Status();
}

void Journal::set_next_seq(long long last_seq) {
  const std::lock_guard<std::mutex> lock(mu_);
  next_seq_ = std::max(next_seq_, last_seq + 1);
}

void Journal::close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0) return;
  if (unsynced_ > 0) (void)sync_locked();  // best effort; close anyway
  ::close(fd_);
  fd_ = -1;
}

StatusOr<RecoveryPlan> recover_journal(const std::string& path) {
  RecoveryPlan plan;
  if (::access(path.c_str(), F_OK) != 0) return plan;  // fresh start
  std::ifstream in(path);
  if (!in.is_open()) return errno_status("open journal", path);

  // Fold records per id while remembering first-accepted order.
  std::map<std::string, std::size_t> index;
  bool saw_clean_drain = false;
  std::string line;
  for (long long line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    ++plan.lines_total;
    if (OCR_SERVICE_FAULT_KEY("service.journal.replay", line_no)) {
      // Chaos site: treat this line as if its bytes were damaged on disk.
      line = line.substr(0, line.size() / 2);
    }
    StatusOr<io::JournalRecord> parsed = io::parse_journal_record(line);
    if (!parsed.ok()) {
      ++plan.lines_corrupt;
      if (plan.first_corrupt_error.empty()) {
        Status located = parsed.status();
        located.at(static_cast<int>(line_no));
        plan.first_corrupt_error = located.to_string();
      }
      continue;
    }
    const io::JournalRecord& record = *parsed;
    plan.last_seq = std::max(plan.last_seq, record.seq);

    if (record.event == io::JournalEvent::kDrain) {
      saw_clean_drain = record.unfinished == 0;
      continue;
    }
    saw_clean_drain = false;  // anything after a drain reopens the journal

    auto it = index.find(record.id);
    if (it == index.end()) {
      if (record.event != io::JournalEvent::kAccepted) {
        // started/terminal for an id whose accepted record was lost or
        // corrupted — without the request line the job cannot be
        // replayed, so record it only if it carries its response.
        if (record.event != io::JournalEvent::kCompleted &&
            record.event != io::JournalEvent::kFailed) {
          continue;
        }
      }
      it = index.emplace(record.id, plan.jobs.size()).first;
      plan.jobs.emplace_back();
      plan.jobs.back().id = record.id;
    }
    RecoveredJob& job = plan.jobs[it->second];
    switch (record.event) {
      case io::JournalEvent::kAccepted:
        if (job.request.empty()) job.request = record.request;
        break;
      case io::JournalEvent::kStarted:
        ++job.attempts;
        break;
      case io::JournalEvent::kRetry:
        break;
      case io::JournalEvent::kCompleted:
      case io::JournalEvent::kFailed:
        job.has_terminal = true;
        job.response = record.response;
        break;
      case io::JournalEvent::kResponded:
        job.responded = true;
        break;
      case io::JournalEvent::kDrain:
        break;  // handled above
    }
  }
  if (in.bad()) return errno_status("read journal", path);

  for (const RecoveredJob& job : plan.jobs) {
    if (!job.has_terminal && !job.responded) ++plan.unfinished;
  }
  plan.clean_drain = saw_clean_drain && plan.unfinished == 0;
  return plan;
}

}  // namespace ocr::service
