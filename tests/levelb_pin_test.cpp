/// \file levelb_pin_test.cpp
/// \brief Pins the level-B routes of a fixed instance set.
///
/// Every perf change to level B must leave `LevelBResult` bit-identical
/// (ROADMAP: routes stay the same). These tests hold the exact totals,
/// the MBFS vertex count and an FNV-1a hash of every path point for the
/// three paper examples through `flow::run`, the sparse-5000 locality
/// instance with sensitive nets, and four seeds of a congested instance
/// that exercises failures and rip-up. Sharded engine routes (4 threads;
/// 2, 4 and 8 for the congested seeds) must reproduce the same values.
/// The summed per-net `candidates` trace field (distinct candidate paths
/// of each committed search) is pinned for the paper examples and the
/// congested seeds at 1 and 4 threads, holding the distinct-candidate
/// count itself. A PR whose stated purpose is to change routes updates
/// the tables below.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bench_data/levelb_instance.hpp"
#include "bench_data/synthetic.hpp"
#include "engine/engine.hpp"
#include "flow/run.hpp"
#include "levelb/router.hpp"
#include "partition/partition.hpp"
#include "util/hash.hpp"
#include "util/trace.hpp"

namespace ocr {
namespace {

struct Pin {
  int routed = 0;
  int failed = 0;
  long long wire_length = 0;
  int corners = 0;
  long long vertices = 0;
  int ripup_recovered = 0;
  std::uint64_t path_hash = 0;

  friend bool operator==(const Pin&, const Pin&) = default;
};

void PrintTo(const Pin& p, std::ostream* os) {
  *os << "{" << p.routed << ", " << p.failed << ", " << p.wire_length
      << ", " << p.corners << ", " << p.vertices << ", " << p.ripup_recovered
      << ", 0x" << std::hex << p.path_hash << std::dec << "ull}";
}

Pin pin_of(const levelb::LevelBResult& r) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const levelb::NetResult& net : r.nets) {
    h = util::fnv1a_value(net.id, h);
    for (const levelb::Path& path : net.paths) {
      h = util::fnv1a_value(path.points.size(), h);
      for (const geom::Point& p : path.points) {
        h = util::fnv1a_value(p.x, h);
        h = util::fnv1a_value(p.y, h);
      }
    }
  }
  return Pin{r.routed_nets,       r.failed_nets,     r.total_wire_length,
             r.total_corners,     r.vertices_examined, r.ripup_recovered,
             h};
}

/// Level-B result of the over-cell flow on \p spec (class partition),
/// serial or sharded at \p threads; per-net events go to \p trace.
levelb::LevelBResult paper_levelb(const bench_data::SyntheticSpec& spec,
                                  int threads,
                                  util::TraceSink* trace = nullptr) {
  const floorplan::MacroLayout ml = bench_data::generate_macro_layout(spec);
  const netlist::Layout zero = ml.assemble(
      std::vector<geom::Coord>(static_cast<std::size_t>(ml.num_channels()), 0));
  const partition::NetPartition part = partition::partition_by_class(zero);
  flow::FlowArtifacts artifacts;
  flow::RunOptions options;
  options.faults = "-";
  options.artifacts = &artifacts;
  options.flow.levelb_threads = threads;
  options.trace = trace;
  const flow::RunReport report = flow::run(ml, part, options);
  EXPECT_NE(report.status, flow::RunStatus::kFailed);
  return artifacts.levelb;
}

levelb::LevelBResult levelb_route(const bench_data::LevelBSpec& spec,
                                  int threads,
                                  util::TraceSink* trace = nullptr) {
  bench_data::LevelBInstance inst = bench_data::generate_levelb_instance(spec);
  if (threads <= 1) {
    levelb::LevelBOptions options;
    options.trace = trace;
    levelb::LevelBRouter router(inst.grid, options);
    return router.route(inst.nets);
  }
  engine::EngineOptions options;
  options.threads = threads;
  options.levelb.trace = trace;
  engine::RoutingEngine router(inst.grid, options);
  return router.route(inst.nets);
}

bench_data::LevelBSpec sensitive_sparse5000() {
  bench_data::LevelBSpec spec = bench_data::sparse5000_spec();
  spec.sensitive_every = 7;
  return spec;
}

/// 100 uniform nets on a 1000-dbu die: the congested regime, where nets
/// fail and rip-up recovers some of them.
bench_data::LevelBSpec congested_spec(std::uint64_t seed) {
  bench_data::LevelBSpec spec;
  spec.name = "congested-1k";
  spec.seed = seed;
  spec.size = 1000;
  spec.num_nets = 100;
  spec.locality = 0;
  return spec;
}

// Values captured from the linear-scan dup term and the full drained-level
// crossing loop; see the file comment before changing them.
const Pin kAmi33 = {119, 0, 325324, 344, 22325, 0, 0x64d5e2839981e8bfull};
const Pin kXerox = {182, 0, 628370, 622, 42506, 0, 0xc0695f95fa88d60bull};
const Pin kEx3 = {250, 0, 948238, 745, 59925, 0, 0x7573836082a0acbbull};
const Pin kSparse5000 = {1200,  0, 365651, 2164,
                         14143, 0, 0x2afda1316eb8650aull};
const Pin kCongested[4] = {
    {94, 6, 107046, 538, 44290, 2, 0x3d3488a047cae186ull},
    {77, 23, 112698, 576, 111712, 0, 0xbb91857da37ce50aull},
    {79, 21, 106632, 522, 129139, 1, 0x23a4849034f00f5cull},
    {82, 18, 103548, 518, 117549, 0, 0x3d59f43e43a6847full},
};

/// Sum of the `candidates` field over the per-net events in \p trace.
long long candidate_total(const util::TraceSink& trace) {
  long long total = 0;
  for (const util::TraceEvent& ev : trace.events()) {
    if (ev.kind != "net") continue;
    for (const auto& [key, value] : ev.fields) {
      if (key == "candidates") total += std::stoll(value.to_json());
    }
  }
  return total;
}

// Captured from the pairwise-scan distinct count; paper examples in the
// order ami33, Xerox, ex3.
const long long kPaperCandidates[3] = {10740, 20363, 24000};
const long long kCongestedCandidates[4] = {1543, 1331, 1181, 1328};

TEST(LevelBPin, PaperExamplesThroughFlowRun) {
  EXPECT_EQ(pin_of(paper_levelb(bench_data::ami33_spec(), 1)), kAmi33);
  EXPECT_EQ(pin_of(paper_levelb(bench_data::xerox_spec(), 1)), kXerox);
  EXPECT_EQ(pin_of(paper_levelb(bench_data::ex3_spec(), 1)), kEx3);
}

TEST(LevelBPin, PaperExamplesShardedFourThreads) {
  EXPECT_EQ(pin_of(paper_levelb(bench_data::ami33_spec(), 4)), kAmi33);
  EXPECT_EQ(pin_of(paper_levelb(bench_data::xerox_spec(), 4)), kXerox);
  EXPECT_EQ(pin_of(paper_levelb(bench_data::ex3_spec(), 4)), kEx3);
}

TEST(LevelBPin, Sparse5000WithSensitiveNets) {
  EXPECT_EQ(pin_of(levelb_route(sensitive_sparse5000(), 1)), kSparse5000);
  EXPECT_EQ(pin_of(levelb_route(sensitive_sparse5000(), 4)), kSparse5000);
}

TEST(LevelBPin, CongestedSeeds) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    SCOPED_TRACE("seed " + std::to_string(s + 1));
    for (int threads : {1, 2, 4, 8}) {
      EXPECT_EQ(pin_of(levelb_route(congested_spec(s + 1), threads)),
                kCongested[s])
          << "threads=" << threads;
    }
  }
}

TEST(LevelBPin, CandidateTotals) {
  const bench_data::SyntheticSpec paper[3] = {
      bench_data::ami33_spec(), bench_data::xerox_spec(),
      bench_data::ex3_spec()};
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (std::size_t i = 0; i < 3; ++i) {
      util::TraceSink trace;
      paper_levelb(paper[i], threads, &trace);
      EXPECT_EQ(candidate_total(trace), kPaperCandidates[i]) << paper[i].name;
    }
    for (std::uint64_t s = 0; s < 4; ++s) {
      util::TraceSink trace;
      levelb_route(congested_spec(s + 1), threads, &trace);
      EXPECT_EQ(candidate_total(trace), kCongestedCandidates[s])
          << "seed " << s + 1;
    }
  }
}

}  // namespace
}  // namespace ocr
