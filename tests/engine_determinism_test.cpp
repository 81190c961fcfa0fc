/// \file engine_determinism_test.cpp
/// \brief The engine's core contract: for a fixed net ordering, the
/// parallel engine's LevelBResult is bit-identical to the serial
/// LevelBRouter's, for any thread count.

#include <gtest/gtest.h>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/figure1.hpp"
#include "levelb/router.hpp"
#include "util/rng.hpp"

namespace ocr::engine {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Rect;
using levelb::BNet;
using levelb::LevelBResult;

tig::TrackGrid make_grid(geom::Coord size) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

/// The bench generator (bench_data::uniform_random_nets); every fifth
/// net is sensitive so batches also close on sensitive commits.
std::vector<BNet> random_nets(std::uint64_t seed, geom::Coord size,
                              int count, bool with_sensitive) {
  util::Rng rng(seed);
  std::vector<BNet> nets = bench_data::uniform_random_nets(rng, size, count);
  for (BNet& net : nets) net.sensitive = with_sensitive && net.id % 5 == 2;
  return nets;
}

LevelBResult serial_route(tig::TrackGrid grid, const std::vector<BNet>& nets,
                          const levelb::LevelBOptions& options = {}) {
  levelb::LevelBRouter router(grid, options);
  return router.route(nets);
}

LevelBResult engine_route(tig::TrackGrid grid, const std::vector<BNet>& nets,
                          int threads, EngineStats* stats = nullptr,
                          EngineOptions options = {}) {
  options.threads = threads;
  RoutingEngine engine(grid, options);
  LevelBResult result = engine.route(nets);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

TEST(EngineDeterminism, Figure1MatchesSerial) {
  const auto instance = levelb::make_figure1_instance();
  const std::vector<BNet> nets = {BNet{1, {instance.b1, instance.b2}}};
  const LevelBResult serial = serial_route(instance.grid, nets);
  ASSERT_TRUE(serial.nets[0].complete);
  for (int threads : {2, 4, 8, 16}) {
    EXPECT_EQ(engine_route(instance.grid, nets, threads), serial)
        << "threads=" << threads;
  }
}

TEST(EngineDeterminism, RandomSweepMatchesSerial) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<BNet> nets = random_nets(seed, 600, 30, false);
    const LevelBResult serial = serial_route(make_grid(600), nets);
    for (int threads : {2, 4, 8, 16}) {
      EXPECT_EQ(engine_route(make_grid(600), nets, threads), serial)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(EngineDeterminism, SensitiveNetsMatchSerial) {
  // Sensitive nets close their batches (the w24 registry is read without
  // touching the grid); the results must still land exactly on the serial
  // answer, and every position is accounted for exactly once.
  const std::vector<BNet> nets = random_nets(7, 500, 25, true);
  const LevelBResult serial = serial_route(make_grid(500), nets);
  for (int threads : {2, 4}) {
    EngineStats stats;
    EXPECT_EQ(engine_route(make_grid(500), nets, threads, &stats), serial)
        << "threads=" << threads;
    EXPECT_EQ(stats.sharded_commits + stats.boundary_nets +
                  stats.worker_failures + stats.fault_reroutes,
              static_cast<long long>(nets.size()));
  }
}

TEST(EngineDeterminism, SingleThreadIsTheSerialRouter) {
  const std::vector<BNet> nets = random_nets(4, 300, 10, true);
  EngineStats stats;
  EXPECT_EQ(engine_route(make_grid(300), nets, 1, &stats),
            serial_route(make_grid(300), nets));
  EXPECT_EQ(stats.threads, 1);
  EXPECT_EQ(stats.batches, 0);
  EXPECT_EQ(stats.sharded_commits, 0);
}

TEST(EngineDeterminism, GridCarriesIdenticalWiring) {
  // The caller's grid must hold the same committed occupancy afterwards:
  // probe every track's blocked spans via is-free queries on a lattice.
  const std::vector<BNet> nets = random_nets(9, 300, 15, false);
  tig::TrackGrid serial_grid = make_grid(300);
  tig::TrackGrid engine_grid = make_grid(300);
  levelb::LevelBRouter router(serial_grid);
  router.route(nets);
  EngineOptions options;
  options.threads = 4;
  RoutingEngine engine(engine_grid, options);
  engine.route(nets);
  for (int i = 0; i < serial_grid.num_h(); ++i) {
    for (geom::Coord x = 0; x < 300; x += 7) {
      EXPECT_EQ(serial_grid.is_free({kH, i}, geom::Interval(x, x + 6)),
                engine_grid.is_free({kH, i}, geom::Interval(x, x + 6)))
          << "h track " << i << " at x=" << x;
    }
  }
  for (int j = 0; j < serial_grid.num_v(); ++j) {
    for (geom::Coord y = 0; y < 300; y += 7) {
      EXPECT_EQ(serial_grid.is_free({kV, j}, geom::Interval(y, y + 6)),
                engine_grid.is_free({kV, j}, geom::Interval(y, y + 6)))
          << "v track " << j << " at y=" << y;
    }
  }
}

TEST(EngineDeterminism, TraceRecordsEveryNet) {
  const std::vector<BNet> nets = random_nets(13, 300, 12, false);
  util::TraceSink trace;
  EngineOptions options;
  options.levelb.trace = &trace;
  tig::TrackGrid grid = make_grid(300);

  EXPECT_EQ(engine_route(grid, nets, 4, nullptr, options),
            serial_route(make_grid(300), nets));
  // Exactly one "net" event per net; run totals live in EngineStats.
  EXPECT_EQ(trace.size(), nets.size());
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"mode\":\"sharded\""), std::string::npos);
  EXPECT_NE(json.find("\"order\""), std::string::npos);
  EXPECT_NE(json.find("\"escaped\""), std::string::npos);
  EXPECT_NE(json.find("\"search_us\""), std::string::npos);
}

}  // namespace
}  // namespace ocr::engine
