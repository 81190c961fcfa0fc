#include "io/job_io.hpp"

#include <map>

#include "io/flat_json.hpp"

namespace ocr::io {

using internal::FlatObjectParser;
using internal::JsonWriter;
using internal::Scalar;
using internal::take_bool;
using internal::take_int;
using internal::take_string;
using util::Status;
using util::StatusOr;

StatusOr<JobRequest> parse_job_request(const std::string& line) {
  std::map<std::string, Scalar> fields;
  Status s = FlatObjectParser(line).parse(fields);
  if (!s.ok()) return s;

  JobRequest request;
  for (const JobKnob& knob : kJobKnobs) {
    s = knob.text != nullptr
            ? take_string(fields, knob.key, request.*knob.text)
            : take_int(fields, knob.key, request.*knob.number);
    if (!s.ok()) return s;
  }
  if (!fields.empty()) {
    return Status::parse_error("unknown field '" + fields.begin()->first +
                               "'")
        .with_stage("job-io");
  }
  return request;
}

std::vector<util::Flag> job_knob_flags(JobRequest& request) {
  std::vector<util::Flag> flags;
  for (const JobKnob& knob : kJobKnobs) {
    if (knob.flag == nullptr) continue;
    flags.push_back({knob.flag, [&request, &knob](const std::string& value) {
                       if (knob.text != nullptr) {
                         request.*knob.text = value;
                       } else if (!util::parse_integer(
                                      value, &(request.*knob.number))) {
                         return internal::type_error(knob.key, "number");
                       }
                       return Status();
                     }});
  }
  return flags;
}

std::string render_job_response(const JobResponse& response) {
  JsonWriter w;
  w.field("id", response.id);
  w.field("status", response.status);
  w.field("exit_class", static_cast<long long>(response.exit_class));
  w.field("queue_ms", response.queue_ms);
  w.field("run_ms", response.run_ms);
  w.field("wire_length", response.wire_length);
  w.field("vias", static_cast<long long>(response.vias));
  w.field("unrouted_nets", static_cast<long long>(response.unrouted_nets));
  w.field("cancelled_nets", static_cast<long long>(response.cancelled_nets));
  w.field("deadline_fired", response.deadline_fired);
  w.field("faults_injected", response.faults_injected);
  w.field("attempts", static_cast<long long>(response.attempts));
  if (response.replayed) w.field("replayed", true);
  w.field("error", response.error);
  w.field("manifest", response.manifest);
  return w.finish();
}

StatusOr<JobResponse> parse_job_response(const std::string& line) {
  std::map<std::string, Scalar> fields;
  Status s = FlatObjectParser(line).parse(fields);
  if (!s.ok()) return s;

  JobResponse r;
  long long exit_class = 0, vias = 0, unrouted = 0, cancelled = 0;
  long long attempts = r.attempts;
  if (!(s = take_string(fields, "id", r.id)).ok()) return s;
  if (!(s = take_string(fields, "status", r.status)).ok()) return s;
  if (!(s = take_int(fields, "exit_class", exit_class)).ok()) return s;
  if (!(s = take_int(fields, "queue_ms", r.queue_ms)).ok()) return s;
  if (!(s = take_int(fields, "run_ms", r.run_ms)).ok()) return s;
  if (!(s = take_int(fields, "wire_length", r.wire_length)).ok()) return s;
  if (!(s = take_int(fields, "vias", vias)).ok()) return s;
  if (!(s = take_int(fields, "unrouted_nets", unrouted)).ok()) return s;
  if (!(s = take_int(fields, "cancelled_nets", cancelled)).ok()) return s;
  if (!(s = take_bool(fields, "deadline_fired", r.deadline_fired)).ok()) {
    return s;
  }
  if (!(s = take_int(fields, "faults_injected", r.faults_injected)).ok()) {
    return s;
  }
  if (!(s = take_int(fields, "attempts", attempts)).ok()) return s;
  if (!(s = take_bool(fields, "replayed", r.replayed)).ok()) return s;
  if (!(s = take_string(fields, "error", r.error)).ok()) return s;
  if (!(s = take_string(fields, "manifest", r.manifest)).ok()) return s;
  r.exit_class = static_cast<int>(exit_class);
  r.vias = static_cast<int>(vias);
  r.unrouted_nets = static_cast<int>(unrouted);
  r.cancelled_nets = static_cast<int>(cancelled);
  r.attempts = static_cast<int>(attempts);
  return r;
}

}  // namespace ocr::io
