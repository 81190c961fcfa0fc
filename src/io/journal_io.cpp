#include "io/journal_io.hpp"

#include <map>

#include "io/flat_json.hpp"
#include "util/str.hpp"

namespace ocr::io {

using internal::FlatObjectParser;
using internal::JsonWriter;
using internal::Scalar;
using internal::take_int;
using internal::take_string;
using util::Status;
using util::StatusOr;

const char* journal_event_name(JournalEvent event) {
  switch (event) {
    case JournalEvent::kAccepted: return "accepted";
    case JournalEvent::kStarted: return "started";
    case JournalEvent::kRetry: return "retry";
    case JournalEvent::kCompleted: return "completed";
    case JournalEvent::kFailed: return "failed";
    case JournalEvent::kResponded: return "responded";
    case JournalEvent::kDrain: return "drain";
  }
  return "unknown";
}

namespace {

constexpr JournalEvent kEvents[] = {
    JournalEvent::kAccepted,  JournalEvent::kStarted,
    JournalEvent::kRetry,     JournalEvent::kCompleted,
    JournalEvent::kFailed,    JournalEvent::kResponded,
    JournalEvent::kDrain,
};

bool terminal(JournalEvent event) {
  return event == JournalEvent::kCompleted || event == JournalEvent::kFailed;
}

}  // namespace

std::string render_journal_record(const JournalRecord& record) {
  JsonWriter w;
  w.field("event", std::string(journal_event_name(record.event)));
  w.field("seq", record.seq);
  if (record.event != JournalEvent::kDrain) {
    w.field("id", record.id);
  }
  switch (record.event) {
    case JournalEvent::kAccepted:
      w.field("attempt", record.attempt);
      w.field("request", record.request);
      break;
    case JournalEvent::kStarted:
      w.field("attempt", record.attempt);
      break;
    case JournalEvent::kRetry:
      w.field("attempt", record.attempt);
      w.field("backoff_ms", record.backoff_ms);
      w.field("error", record.error);
      break;
    case JournalEvent::kCompleted:
    case JournalEvent::kFailed:
      w.field("attempt", record.attempt);
      w.field("response", record.response);
      break;
    case JournalEvent::kResponded:
      break;
    case JournalEvent::kDrain:
      w.field("unfinished", record.unfinished);
      break;
  }
  return w.finish();
}

StatusOr<JournalRecord> parse_journal_record(const std::string& line) {
  std::map<std::string, Scalar> fields;
  Status s = FlatObjectParser(line).parse(fields);
  if (!s.ok()) return s;

  std::string event_name;
  if (!(s = take_string(fields, "event", event_name)).ok()) return s;
  JournalRecord record;
  if (!util::parse_name(event_name, kEvents, journal_event_name,
                        &record.event)) {
    return Status::parse_error("unknown journal event '" + event_name + "'")
        .with_stage("journal-io");
  }

  if (!(s = take_int(fields, "seq", record.seq)).ok()) return s;
  if (!(s = take_string(fields, "id", record.id)).ok()) return s;
  if (!(s = take_int(fields, "attempt", record.attempt)).ok()) return s;
  if (!(s = take_string(fields, "request", record.request)).ok()) return s;
  if (!(s = take_string(fields, "response", record.response)).ok()) return s;
  if (!(s = take_string(fields, "error", record.error)).ok()) return s;
  if (!(s = take_int(fields, "backoff_ms", record.backoff_ms)).ok()) return s;
  if (!(s = take_int(fields, "unfinished", record.unfinished)).ok()) return s;
  // Unknown remaining fields are tolerated for forward compatibility.

  if (record.event != JournalEvent::kDrain && record.id.empty()) {
    return Status::parse_error("journal record missing 'id'")
        .with_stage("journal-io");
  }
  if (record.event == JournalEvent::kAccepted && record.request.empty()) {
    return Status::parse_error("accepted record missing 'request'")
        .with_stage("journal-io");
  }
  if (terminal(record.event) && record.response.empty()) {
    // Also every terminal record of a journal written before terminal
    // records carried the response line.
    return Status::parse_error("terminal record missing 'response'")
        .with_stage("journal-io");
  }
  return record;
}

}  // namespace ocr::io
