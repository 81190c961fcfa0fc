/// \file journal_test.cpp
/// \brief Durable job-journal tests: record codec round-trips, append
/// durability and sequencing, recovery folding (unfinished / replay /
/// dedupe outcomes), torn-tail tolerance and the journal chaos sites.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/job_io.hpp"
#include "io/journal_io.hpp"
#include "service/journal.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"

namespace ocr::service {
namespace {

/// cwd-relative scratch file, removed on destruction (same idiom as
/// trace_test's WriteJsonFile).
struct ScratchFile {
  explicit ScratchFile(std::string name) : path(std::move(name)) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string path;
};

io::JournalRecord accepted(const std::string& id, const std::string& request) {
  io::JournalRecord r;
  r.event = io::JournalEvent::kAccepted;
  r.id = id;
  r.request = request;
  return r;
}

io::JournalRecord started(const std::string& id, int attempt = 0) {
  io::JournalRecord r;
  r.event = io::JournalEvent::kStarted;
  r.id = id;
  r.attempt = attempt;
  return r;
}

/// A terminal record carrying a clean response with \p wire_length.
io::JournalRecord completed(const std::string& id, long long wire_length) {
  io::JobResponse response;
  response.id = id;
  response.status = "clean";
  response.wire_length = wire_length;
  response.vias = 7;
  response.run_ms = 3;
  io::JournalRecord r;
  r.event = io::JournalEvent::kCompleted;
  r.id = id;
  r.response = io::render_job_response(response);
  return r;
}

/// The wire length in a recovered job's journaled response line.
long long response_wire_length(const RecoveredJob& job) {
  const auto response = io::parse_job_response(job.response);
  EXPECT_TRUE(response.ok()) << job.response;
  return response.ok() ? response->wire_length : -1;
}

/// A terminal record as journals wrote it before terminal records
/// carried the response line: a result digest and no `response`.
std::string digest_terminal(const std::string& id) {
  return R"({"event":"completed","seq":3,"id":")" + id +
         R"(","attempt":0,"status":"clean","exit_class":0,)"
         R"("wire_length":10,"vias":7,"unrouted_nets":0,)"
         R"("cancelled_nets":0,"run_ms":3})";
}

io::JournalRecord responded(const std::string& id) {
  io::JournalRecord r;
  r.event = io::JournalEvent::kResponded;
  r.id = id;
  return r;
}

io::JournalRecord drain(int unfinished) {
  io::JournalRecord r;
  r.event = io::JournalEvent::kDrain;
  r.unfinished = unfinished;
  return r;
}

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(JournalCodec, EveryEventRoundTrips) {
  using io::JournalEvent;
  for (const JournalEvent event :
       {JournalEvent::kAccepted, JournalEvent::kStarted, JournalEvent::kRetry,
        JournalEvent::kCompleted, JournalEvent::kFailed,
        JournalEvent::kResponded, JournalEvent::kDrain}) {
    io::JournalRecord record;
    record.event = event;
    record.seq = 42;
    record.id = event == JournalEvent::kDrain ? "" : "job-1";
    record.attempt = 2;
    record.request = "{\"id\":\"job-1\"}";
    record.response =
        R"({"id":"job-1","status":"failed","exit_class":1,)"
        R"("error":"boom \"quoted\"\\n","manifest":"out/m.json"})";
    record.error = "boom \"quoted\"";
    record.backoff_ms = 20;
    record.unfinished = 3;

    const std::string line = io::render_journal_record(record);
    SCOPED_TRACE(line);
    const auto parsed = io::parse_journal_record(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed->event, event);
    EXPECT_EQ(parsed->seq, 42);
    switch (event) {
      case JournalEvent::kAccepted:
        EXPECT_EQ(parsed->request, record.request);
        EXPECT_EQ(parsed->attempt, 2);
        break;
      case JournalEvent::kRetry:
        EXPECT_EQ(parsed->backoff_ms, 20);
        EXPECT_EQ(parsed->error, record.error);
        break;
      case JournalEvent::kCompleted:
      case JournalEvent::kFailed:
        EXPECT_EQ(parsed->response, record.response);
        EXPECT_EQ(parsed->attempt, 2);
        break;
      case JournalEvent::kDrain:
        EXPECT_EQ(parsed->unfinished, 3);
        break;
      default:
        break;
    }
  }
}

TEST(JournalCodec, RejectsDamagedRecords) {
  // Unknown event name.
  EXPECT_FALSE(io::parse_journal_record(
                   "{\"event\":\"exploded\",\"seq\":1,\"id\":\"a\"}")
                   .ok());
  // Missing id on a non-drain record.
  EXPECT_FALSE(
      io::parse_journal_record("{\"event\":\"started\",\"seq\":1}").ok());
  // Terminal record without its response line.
  EXPECT_FALSE(io::parse_journal_record(
                   "{\"event\":\"completed\",\"seq\":1,\"id\":\"a\"}")
                   .ok());
  EXPECT_FALSE(io::parse_journal_record(
                   R"({"event":"failed","seq":1,"id":"a","response":""})")
                   .ok());
  // Accepted without the request payload cannot be replayed.
  EXPECT_FALSE(io::parse_journal_record(
                   "{\"event\":\"accepted\",\"seq\":1,\"id\":\"a\"}")
                   .ok());
  // Plain JSON damage.
  EXPECT_FALSE(io::parse_journal_record("{\"event\":\"sta").ok());
}

TEST(Journal, AppendsAssignSequenceNumbers) {
  ScratchFile scratch("journal_test_seq.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  ASSERT_TRUE(journal.append(accepted("a", "{}")).ok());
  ASSERT_TRUE(journal.append(started("a")).ok());
  ASSERT_TRUE(journal.append(completed("a", 10)).ok());
  journal.close();

  const auto lines = file_lines(scratch.path);
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto parsed = io::parse_journal_record(lines[i]);
    ASSERT_TRUE(parsed.ok()) << lines[i];
    EXPECT_EQ(parsed->seq, static_cast<long long>(i + 1));
  }
}

TEST(Journal, SetNextSeqContinuesAfterRecovery) {
  ScratchFile scratch("journal_test_seq2.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  journal.set_next_seq(41);
  ASSERT_TRUE(journal.append(accepted("a", "{}")).ok());
  journal.close();
  const auto lines = file_lines(scratch.path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(io::parse_journal_record(lines[0])->seq, 42);
}

TEST(Journal, TerminalRecordsForceFsyncBatchedOnesDoNot) {
  auto& registry = util::MetricsRegistry::global();
  const long long before = registry.counter("service.journal_fsyncs").value();

  ScratchFile scratch("journal_test_fsync.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  // Two batched appends, well short of a batch sync.
  static_assert(Journal::kFsyncEvery > 3);
  ASSERT_TRUE(journal.append(accepted("a", "{}")).ok());
  ASSERT_TRUE(journal.append(started("a")).ok());
  EXPECT_EQ(registry.counter("service.journal_fsyncs").value(), before);

  ASSERT_TRUE(journal.append(completed("a", 10)).ok());  // terminal
  EXPECT_EQ(registry.counter("service.journal_fsyncs").value(), before + 1);
  journal.close();
}

TEST(Journal, FsyncEveryBatchesNonTerminalAppends) {
  auto& registry = util::MetricsRegistry::global();
  const long long before = registry.counter("service.journal_fsyncs").value();

  ScratchFile scratch("journal_test_batch.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  for (int i = 1; i < Journal::kFsyncEvery; ++i) {
    ASSERT_TRUE(journal.append(accepted(std::to_string(i), "{}")).ok());
  }
  EXPECT_EQ(registry.counter("service.journal_fsyncs").value(), before);
  ASSERT_TRUE(journal.append(accepted("last", "{}")).ok());  // batch sync
  EXPECT_EQ(registry.counter("service.journal_fsyncs").value(), before + 1);
  journal.close();
}

TEST(Journal, AppendFaultSiteSurfacesIoError) {
  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.journal.append=2").ok());
  ScratchFile scratch("journal_test_fault.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  EXPECT_TRUE(journal.append(accepted("a", "{}")).ok());
  const util::Status failed = journal.append(started("a"));
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.kind(), util::StatusKind::kIoError);
  EXPECT_TRUE(journal.append(completed("a", 10)).ok());  // keeps serving
  journal.close();
  chaos.clear();
}

TEST(Recovery, MissingFileIsAFreshStart) {
  const auto plan = recover_journal("journal_test_does_not_exist.jsonl");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->jobs.empty());
  EXPECT_EQ(plan->lines_total, 0);
  EXPECT_FALSE(plan->clean_drain);
}

TEST(Recovery, FoldsPerJobOutcomes) {
  ScratchFile scratch("journal_test_fold.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  // finished + responded: dedupe any resend.
  ASSERT_TRUE(journal.append(accepted("done", "{\"id\":\"done\"}")).ok());
  ASSERT_TRUE(journal.append(started("done")).ok());
  ASSERT_TRUE(journal.append(completed("done", 111)).ok());
  ASSERT_TRUE(journal.append(responded("done")).ok());
  // finished, response never delivered: replay the journaled response.
  ASSERT_TRUE(journal.append(accepted("silent", "{\"id\":\"silent\"}")).ok());
  ASSERT_TRUE(journal.append(started("silent")).ok());
  ASSERT_TRUE(journal.append(completed("silent", 222)).ok());
  // accepted + started twice, no terminal: unfinished, re-enqueue.
  ASSERT_TRUE(journal.append(accepted("lost", "{\"id\":\"lost\"}")).ok());
  ASSERT_TRUE(journal.append(started("lost", 0)).ok());
  ASSERT_TRUE(journal.append(started("lost", 1)).ok());
  journal.close();

  const auto plan = recover_journal(scratch.path);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  ASSERT_EQ(plan->jobs.size(), 3u);
  EXPECT_EQ(plan->lines_corrupt, 0);
  EXPECT_EQ(plan->unfinished, 1);
  EXPECT_FALSE(plan->clean_drain);
  EXPECT_EQ(plan->last_seq, 10);

  // First-accepted order is preserved.
  EXPECT_EQ(plan->jobs[0].id, "done");
  EXPECT_TRUE(plan->jobs[0].has_terminal);
  EXPECT_TRUE(plan->jobs[0].responded);
  EXPECT_EQ(response_wire_length(plan->jobs[0]), 111);

  EXPECT_EQ(plan->jobs[1].id, "silent");
  EXPECT_TRUE(plan->jobs[1].has_terminal);
  EXPECT_FALSE(plan->jobs[1].responded);
  EXPECT_EQ(response_wire_length(plan->jobs[1]), 222);

  EXPECT_EQ(plan->jobs[2].id, "lost");
  EXPECT_FALSE(plan->jobs[2].has_terminal);
  EXPECT_EQ(plan->jobs[2].attempts, 2);
  EXPECT_EQ(plan->jobs[2].request, "{\"id\":\"lost\"}");
}

TEST(Recovery, TornTailIsSkippedNotFatal) {
  ScratchFile scratch("journal_test_torn.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  ASSERT_TRUE(journal.append(accepted("a", "{\"id\":\"a\"}")).ok());
  ASSERT_TRUE(journal.append(started("a")).ok());
  ASSERT_TRUE(journal.append(completed("a", 10)).ok());
  journal.close();

  // A SIGKILL mid-write leaves a torn final line: chop the terminal
  // record in half. Recovery must keep the intact prefix and report the
  // damage with a located status, not crash or refuse.
  auto lines = file_lines(scratch.path);
  ASSERT_EQ(lines.size(), 3u);
  std::ofstream out(scratch.path, std::ios::trunc);
  out << lines[0] << "\n" << lines[1] << "\n"
      << lines[2].substr(0, lines[2].size() / 2);
  out.close();

  const auto plan = recover_journal(scratch.path);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->lines_total, 3);
  EXPECT_EQ(plan->lines_corrupt, 1);
  EXPECT_NE(plan->first_corrupt_error.find("line 3"), std::string::npos)
      << plan->first_corrupt_error;
  ASSERT_EQ(plan->jobs.size(), 1u);
  EXPECT_FALSE(plan->jobs[0].has_terminal);  // the torn record is gone
  EXPECT_EQ(plan->unfinished, 1);
}

TEST(Recovery, ReplayFaultSiteDamagesChosenLines) {
  ScratchFile scratch("journal_test_replay_fault.jsonl");
  Journal journal;
  ASSERT_TRUE(journal.open(scratch.path).ok());
  ASSERT_TRUE(journal.append(accepted("a", "{\"id\":\"a\"}")).ok());
  ASSERT_TRUE(journal.append(started("a")).ok());
  ASSERT_TRUE(journal.append(completed("a", 10)).ok());
  journal.close();

  auto& chaos = util::FaultRegistry::service();
  ASSERT_TRUE(chaos.configure("service.journal.replay=@2").ok());
  const auto plan = recover_journal(scratch.path);
  chaos.clear();
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->lines_corrupt, 1);  // line 2 damaged in flight
  ASSERT_EQ(plan->jobs.size(), 1u);
  EXPECT_TRUE(plan->jobs[0].has_terminal);  // terminal line was untouched
}

TEST(Recovery, CleanDrainNeedsTrailingEmptyDrainRecord) {
  ScratchFile scratch("journal_test_drain.jsonl");
  {
    Journal journal;
    ASSERT_TRUE(journal.open(scratch.path).ok());
    ASSERT_TRUE(journal.append(accepted("a", "{\"id\":\"a\"}")).ok());
    ASSERT_TRUE(journal.append(completed("a", 10)).ok());
    ASSERT_TRUE(journal.append(responded("a")).ok());
    ASSERT_TRUE(journal.append(drain(0)).ok());
    journal.close();
  }
  auto plan = recover_journal(scratch.path);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->clean_drain);
  EXPECT_EQ(plan->unfinished, 0);

  // A drain that abandoned jobs is not clean.
  {
    Journal journal;
    ASSERT_TRUE(journal.open(scratch.path).ok());
    ASSERT_TRUE(journal.append(accepted("b", "{\"id\":\"b\"}")).ok());
    ASSERT_TRUE(journal.append(drain(1)).ok());
    journal.close();
  }
  plan = recover_journal(scratch.path);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->clean_drain);
  EXPECT_EQ(plan->unfinished, 1);  // "b" must be re-enqueued
}

TEST(Recovery, DigestTerminalRecordsAreCorrupt) {
  // A terminal record without a response line is skipped as corrupt. A
  // job whose `responded` record survives is still deduplicated; one
  // without it re-runs from its accepted record.
  EXPECT_FALSE(io::parse_journal_record(digest_terminal("x")).ok());
  ScratchFile scratch("journal_test_digest.jsonl");
  {
    Journal journal;
    ASSERT_TRUE(journal.open(scratch.path).ok());
    ASSERT_TRUE(journal.append(accepted("seen", "{\"id\":\"seen\"}")).ok());
    ASSERT_TRUE(journal.append(accepted("unseen", "{\"id\":\"unseen\"}")).ok());
    journal.close();
  }
  {
    std::ofstream out(scratch.path, std::ios::app);
    out << digest_terminal("seen") << "\n"
        << R"({"event":"responded","seq":4,"id":"seen"})" << "\n"
        << digest_terminal("unseen") << "\n";
  }
  const auto plan = recover_journal(scratch.path);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->lines_corrupt, 2);
  ASSERT_EQ(plan->jobs.size(), 2u);
  EXPECT_FALSE(plan->jobs[0].has_terminal);
  EXPECT_TRUE(plan->jobs[0].responded);
  EXPECT_FALSE(plan->jobs[1].has_terminal);
  EXPECT_FALSE(plan->jobs[1].responded);
  EXPECT_EQ(plan->jobs[1].request, "{\"id\":\"unseen\"}");
  EXPECT_EQ(plan->unfinished, 1);  // only "unseen" re-runs
}

TEST(Recovery, TerminalWithoutAcceptedIsKeptForDedupe) {
  // The accepted record can be lost to a torn batch while the terminal
  // record (fsynced) survived. The job cannot be replayed, but its
  // outcome must still be recovered so a client resend is answered from
  // the journaled response instead of re-executed.
  ScratchFile scratch("journal_test_orphan.jsonl");
  {
    Journal journal;
    ASSERT_TRUE(journal.open(scratch.path).ok());
    ASSERT_TRUE(journal.append(completed("orphan", 333)).ok());
    journal.close();
  }
  const auto plan = recover_journal(scratch.path);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->jobs.size(), 1u);
  EXPECT_TRUE(plan->jobs[0].has_terminal);
  EXPECT_TRUE(plan->jobs[0].request.empty());
  EXPECT_EQ(response_wire_length(plan->jobs[0]), 333);
  EXPECT_EQ(plan->unfinished, 0);
}

}  // namespace
}  // namespace ocr::service
