/// \file job_io_test.cpp
/// \brief JSONL job codec tests: strict request parsing, response
/// round-trips, and the failure modes the daemon relies on to answer
/// malformed lines with exit_class 2 instead of crashing or hanging.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/job_io.hpp"
#include "io/journal_io.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace ocr::io {
namespace {

TEST(JobRequestParse, DefaultsApplyWhenFieldsAreOmitted) {
  const auto request = parse_job_request(R"({"example":"ami33"})");
  ASSERT_TRUE(request.ok()) << request.status().to_string();
  EXPECT_EQ(request->id, "");
  EXPECT_EQ(request->example, "ami33");
  EXPECT_EQ(request->input, "");
  EXPECT_EQ(request->flow, "overcell");
  EXPECT_EQ(request->partition, "class");
  EXPECT_EQ(request->threads, 1);
  EXPECT_EQ(request->deadline_ms, 0);
  EXPECT_EQ(request->net_effort, 0);
  EXPECT_EQ(request->fail_policy, "degrade");
  EXPECT_EQ(request->faults, "-");  // never inherits OCR_FAULTS
  EXPECT_EQ(request->manifest, "");
}

TEST(JobRequestParse, EveryFieldDecodes) {
  const auto request = parse_job_request(
      R"({"id":"j1","input":"chip.oclay","flow":"4layer",)"
      R"("partition":"length=2000","threads":4,"deadline_ms":5000,)"
      R"("net_effort":100,"fail_policy":"abort",)"
      R"("faults":"engine.committer.commit=2","manifest":"out/j1.json"})");
  ASSERT_TRUE(request.ok()) << request.status().to_string();
  EXPECT_EQ(request->id, "j1");
  EXPECT_EQ(request->input, "chip.oclay");
  EXPECT_EQ(request->flow, "4layer");
  EXPECT_EQ(request->partition, "length=2000");
  EXPECT_EQ(request->threads, 4);
  EXPECT_EQ(request->deadline_ms, 5000);
  EXPECT_EQ(request->net_effort, 100);
  EXPECT_EQ(request->fail_policy, "abort");
  EXPECT_EQ(request->faults, "engine.committer.commit=2");
  EXPECT_EQ(request->manifest, "out/j1.json");
}

TEST(JobRequestParse, WhitespaceAndEscapesAreHandled)  {
  const auto request = parse_job_request(
      "  { \"id\" : \"a\\tb\\\"c\" , \"example\" : \"ex3\" }  ");
  ASSERT_TRUE(request.ok()) << request.status().to_string();
  EXPECT_EQ(request->id, "a\tb\"c");
  EXPECT_EQ(request->example, "ex3");
}

TEST(JobRequestParse, RejectsUnknownField) {
  const auto request = parse_job_request(R"({"example":"ami33","typo":1})");
  ASSERT_FALSE(request.ok());
  EXPECT_EQ(request.status().kind(), util::StatusKind::kParseError);
  EXPECT_NE(request.status().message().find("unknown field 'typo'"),
            std::string::npos);
}

TEST(JobRequestParse, RejectsMalformedJson) {
  for (const char* line : {
           "",                               // not an object
           "not json",                       //
           "{\"id\":\"a\"",                  // unterminated object
           R"({"id":"a" "b":1})",            // missing comma
           R"({"id":"a",})",                 // trailing comma
           R"({"id":"a"} extra)",            // trailing garbage
           R"({"id":"a","id":"b"})",         // duplicate key
           R"({"threads":{"nested":1}})",    // nested object
           R"({"threads":[1,2]})",           // array
           R"({"id":"unterminated)",         // unterminated string
           R"({"threads":12.")",             // bad number
       }) {
    const auto request = parse_job_request(line);
    EXPECT_FALSE(request.ok()) << "accepted: " << line;
    if (!request.ok()) {
      EXPECT_EQ(request.status().kind(), util::StatusKind::kParseError)
          << line;
    }
  }
}

TEST(JobRequestParse, RejectsWrongFieldTypes) {
  EXPECT_FALSE(parse_job_request(R"({"threads":"two"})").ok());
  EXPECT_FALSE(parse_job_request(R"({"example":33})").ok());
  EXPECT_FALSE(parse_job_request(R"({"deadline_ms":true})").ok());
}

TEST(JobResponse, RoundTripsThroughRenderAndParse) {
  JobResponse response;
  response.id = "job-42";
  response.status = "partial";
  response.exit_class = 3;
  response.queue_ms = 7;
  response.run_ms = 123;
  response.wire_length = 456789;
  response.vias = 321;
  response.unrouted_nets = 5;
  response.cancelled_nets = 2;
  response.deadline_fired = true;
  response.faults_injected = 1;
  response.error = "deadline: deadline of 5 ms exceeded";
  response.manifest = "out/job-42.json";

  const std::string line = render_job_response(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line

  const auto parsed = parse_job_response(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->id, response.id);
  EXPECT_EQ(parsed->status, response.status);
  EXPECT_EQ(parsed->exit_class, response.exit_class);
  EXPECT_EQ(parsed->queue_ms, response.queue_ms);
  EXPECT_EQ(parsed->run_ms, response.run_ms);
  EXPECT_EQ(parsed->wire_length, response.wire_length);
  EXPECT_EQ(parsed->vias, response.vias);
  EXPECT_EQ(parsed->unrouted_nets, response.unrouted_nets);
  EXPECT_EQ(parsed->cancelled_nets, response.cancelled_nets);
  EXPECT_EQ(parsed->deadline_fired, response.deadline_fired);
  EXPECT_EQ(parsed->faults_injected, response.faults_injected);
  EXPECT_EQ(parsed->error, response.error);
  EXPECT_EQ(parsed->manifest, response.manifest);
}

TEST(JobResponse, RenderEscapesErrorText) {
  JobResponse response;
  response.id = "x";
  response.status = "failed";
  response.exit_class = 1;
  response.error = "line 1\n\"quoted\"\tpath\\seg";

  const auto parsed = parse_job_response(render_job_response(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->error, response.error);
}

TEST(JobResponse, ParseToleratesExtraFieldsForForwardCompat) {
  JobResponse response;
  response.id = "x";
  response.status = "clean";
  std::string line = render_job_response(response);
  line.insert(line.size() - 1, R"(,"future_field":1)");
  const auto parsed = parse_job_response(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->id, "x");
}

TEST(JobResponse, AttemptsAndReplayedRoundTrip) {
  JobResponse response;
  response.id = "r";
  response.status = "clean";
  response.attempts = 3;
  response.replayed = true;
  const std::string line = render_job_response(response);
  EXPECT_NE(line.find("\"replayed\":true"), std::string::npos);
  const auto parsed = parse_job_response(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->attempts, 3);
  EXPECT_TRUE(parsed->replayed);

  // `replayed` is elided when false (the overwhelmingly common case).
  response.replayed = false;
  EXPECT_EQ(render_job_response(response).find("replayed"),
            std::string::npos);
}

/// Satellite fuzz: ~1k truncated or byte-corrupted journal lines. The
/// journal recovery path feeds crash-damaged bytes straight into
/// parse_journal_record, so every mutation must come back as a Status —
/// never a crash, hang or uncaught exception — and damage must never
/// silently pass as a different valid record.
TEST(JournalRecordFuzz, TruncatedAndCorruptedLinesNeverCrash) {
  const std::vector<std::string> seeds = {
      R"({"event":"accepted","seq":1,"id":"job-1","attempt":0,"request":"{\"id\":\"job-1\",\"example\":\"ami33\"}"})",
      R"({"event":"started","seq":2,"id":"job-1","attempt":0})",
      R"({"event":"retry","seq":3,"id":"job-1","attempt":0,"backoff_ms":20,"error":"[cancelled] supervise: worker hung"})",
      R"({"event":"completed","seq":4,"id":"job-1","attempt":1,"response":"{\"id\":\"job-1\",\"status\":\"clean\",\"exit_class\":0,\"wire_length\":399764,\"vias\":1058}"})",
      R"({"event":"failed","seq":5,"id":"job-2","attempt":2,"response":"{\"id\":\"job-2\",\"status\":\"failed\",\"exit_class\":1,\"error\":\"boom\"}"})",
      R"({"event":"responded","seq":6,"id":"job-1"})",
      R"({"event":"drain","seq":7,"unfinished":0})",
  };

  // Every truncation prefix of every seed (the torn-tail shape a SIGKILL
  // mid-write actually produces).
  int fuzzed_lines = 0;
  for (const std::string& seed : seeds) {
    EXPECT_TRUE(parse_journal_record(seed).ok()) << seed;
    for (std::size_t cut = 0; cut < seed.size(); ++cut) {
      // A strict prefix is never a complete record; surviving the call
      // with a Status (not a crash) is the property under test.
      EXPECT_FALSE(parse_journal_record(seed.substr(0, cut)).ok());
      ++fuzzed_lines;
    }
  }
  EXPECT_GT(fuzzed_lines, 600);

  // Random single-byte corruptions (bit flips, deletions, insertions).
  util::Rng rng(20260808);
  for (int round = 0; round < 400; ++round) {
    std::string line = seeds[rng.index(seeds.size())];
    const std::size_t pos = rng.index(line.size());
    switch (rng.uniform_int(0, 2)) {
      case 0:
        line[pos] = static_cast<char>(rng.uniform_int(1, 255));
        break;
      case 1:
        line.erase(pos, 1);
        break;
      default:
        line.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
        break;
    }
    const auto result = parse_journal_record(line);
    if (!result.ok()) {
      // Damage reports carry the codec's parse stage so recovery can
      // locate the bad line in its summary.
      EXPECT_FALSE(result.status().to_string().empty());
    }
  }
}

}  // namespace
}  // namespace ocr::io
