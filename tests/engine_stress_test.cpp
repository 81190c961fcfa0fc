/// \file engine_stress_test.cpp
/// \brief Threaded stress for the engine: many workers, wide batches,
/// frequent region escapes, repeated runs. Primarily a ThreadSanitizer
/// target (the CI TSan job runs exactly this binary); the assertions
/// double as a determinism check under contention.

#include <gtest/gtest.h>

#include <cstdlib>

#include "clustered_nets.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"

namespace ocr::engine {
namespace {

using geom::Rect;
using levelb::BNet;
using test::clustered_nets;

/// Worker count for the contended cases: OCR_STRESS_THREADS overrides the
/// default (the CI TSan job runs the binary once per matrix entry).
int stress_threads(int fallback) {
  const char* env = std::getenv("OCR_STRESS_THREADS");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  return fallback;
}

tig::TrackGrid make_grid(geom::Coord size) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

/// Routes \p nets on a fresh \p size die with a 1-pitch shard halo: the
/// planner under-declares regions, so batches run several nets in
/// parallel AND some of them escape — TSan then covers both the parallel
/// batch reads and the serial escape re-routes between them.
levelb::LevelBResult stress_route(const std::vector<BNet>& nets,
                                  geom::Coord size, int threads,
                                  EngineStats* stats) {
  tig::TrackGrid grid = make_grid(size);
  EngineOptions options;
  options.threads = threads;
  options.shard_halo_pitches = 1;
  RoutingEngine engine(grid, options);
  levelb::LevelBResult result = engine.route(nets);
  *stats = engine.stats();
  return result;
}

levelb::LevelBResult serial_route(const std::vector<BNet>& nets,
                                  geom::Coord size) {
  tig::TrackGrid grid = make_grid(size);
  levelb::LevelBRouter serial(grid);
  return serial.route(nets);
}

/// Every position lands in exactly one of batch commit, boundary
/// re-route, worker failure and fault re-route; and the run really had
/// both parallel batches and escapes.
void expect_contended(const EngineStats& stats, std::size_t n) {
  EXPECT_EQ(stats.sharded_commits + stats.boundary_nets +
                stats.worker_failures + stats.fault_reroutes,
            static_cast<long long>(n));
  EXPECT_GT(stats.max_batch_size, 1);
  EXPECT_GT(stats.boundary_nets, 0);
}

TEST(EngineStress, RepeatedContendedRunsStayDeterministic) {
  const std::vector<BNet> nets = clustered_nets(9, 900, 60, 80, true);
  const levelb::LevelBResult expected = serial_route(nets, 900);
  for (int iteration = 0; iteration < 3; ++iteration) {
    EngineStats stats;
    EXPECT_EQ(stress_route(nets, 900, stress_threads(8), &stats), expected)
        << "iteration " << iteration;
    expect_contended(stats, nets.size());
  }
}

TEST(EngineStress, WideLookaheadManyThreads) {
  const std::vector<BNet> nets = clustered_nets(33, 1200, 80, 80, true);
  EngineStats stats;
  EXPECT_EQ(stress_route(nets, 1200, stress_threads(8), &stats),
            serial_route(nets, 1200));
  expect_contended(stats, nets.size());
}

TEST(EngineStress, SixteenWorkersWithOverlaysMatchSerial) {
  // More workers than most batches have members: every worker's overlay
  // braces terminals over the shared live grid while the others read it.
  const std::vector<BNet> nets = clustered_nets(55, 900, 60, 80, true);
  EngineStats stats;
  EXPECT_EQ(stress_route(nets, 900, stress_threads(16), &stats),
            serial_route(nets, 900));
  expect_contended(stats, nets.size());
}

}  // namespace
}  // namespace ocr::engine
