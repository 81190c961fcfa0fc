/// \file sharded_engine_test.cpp
/// \brief The sharded engine's contract: bit-identical to the serial
/// router at any thread count, with no wasted work for intra-batch nets.
/// Region escapes surface as boundary_nets and are recovered serially,
/// never as wrong wiring.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "clustered_nets.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "util/metrics.hpp"

namespace ocr::engine {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Rect;
using levelb::BNet;
using levelb::LevelBResult;
using test::clustered_nets;

tig::TrackGrid make_grid(geom::Coord size) {
  return tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
}

LevelBResult serial_route(tig::TrackGrid grid,
                          const std::vector<BNet>& nets) {
  levelb::LevelBRouter router(grid);
  return router.route(nets);
}

LevelBResult sharded_route(tig::TrackGrid grid,
                           const std::vector<BNet>& nets, int threads,
                           EngineStats* stats = nullptr,
                           EngineOptions options = {}) {
  options.threads = threads;
  RoutingEngine engine(grid, options);
  LevelBResult result = engine.route(nets);
  if (stats != nullptr) *stats = engine.stats();
  return result;
}

/// The per-position accounting: every position lands in exactly one of
/// {batch commit, boundary re-route} on a fault-free run.
void expect_sharded_accounting(const EngineStats& stats, std::size_t n) {
  EXPECT_GT(stats.threads, 1);
  EXPECT_EQ(stats.worker_failures, 0);
  EXPECT_EQ(stats.fault_reroutes, 0);
  EXPECT_EQ(stats.sharded_commits + stats.boundary_nets,
            static_cast<long long>(n));
  EXPECT_GE(stats.batches, 1);
  EXPECT_GE(stats.max_batch_size, 1);
}

TEST(ShardedEngine, ClusteredMatchesSerialAtEveryThreadCount) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<BNet> nets = clustered_nets(seed, 2000, 60, 50, false);
    const LevelBResult serial = serial_route(make_grid(2000), nets);
    for (int threads : {2, 4, 8}) {
      EngineStats stats;
      EXPECT_EQ(sharded_route(make_grid(2000), nets, threads, &stats),
                serial)
          << "seed=" << seed << " threads=" << threads;
      expect_sharded_accounting(stats, nets.size());
    }
  }
}

TEST(ShardedEngine, ClusteredPlanExposesParallelism) {
  const std::vector<BNet> nets = clustered_nets(4, 3000, 80, 40, false);
  EngineStats stats;
  const LevelBResult serial = serial_route(make_grid(3000), nets);
  EXPECT_EQ(sharded_route(make_grid(3000), nets, 4, &stats), serial);
  expect_sharded_accounting(stats, nets.size());
  EXPECT_LT(stats.batches, static_cast<long long>(nets.size()));
  EXPECT_GT(stats.max_batch_size, 1);
}

TEST(ShardedEngine, SensitiveNetsMatchSerial) {
  // Sensitive nets close their batches, so workers read the in-place
  // registry only before any same-batch commit updates it; the serial
  // w24 penalties must come out exactly. Under TSan this is the race
  // check for that registry.
  const std::vector<BNet> nets = clustered_nets(7, 1500, 50, 60, true);
  const LevelBResult serial = serial_route(make_grid(1500), nets);
  for (int threads : {2, 4}) {
    EngineStats stats;
    EXPECT_EQ(sharded_route(make_grid(1500), nets, threads, &stats),
              serial)
        << "threads=" << threads;
    expect_sharded_accounting(stats, nets.size());
  }
}

TEST(ShardedEngine, TinyHaloStillMatchesSerial) {
  // A 1-pitch halo under-declares regions aggressively: escapes become
  // likely, and every one must be caught by the footprint check and
  // recovered to the exact serial result.
  const std::vector<BNet> nets = clustered_nets(9, 900, 60, 80, true);
  const LevelBResult serial = serial_route(make_grid(900), nets);
  EngineOptions options;
  options.shard_halo_pitches = 1;
  EngineStats stats;
  EXPECT_EQ(sharded_route(make_grid(900), nets, 4, &stats, options),
            serial);
  expect_sharded_accounting(stats, nets.size());
}

TEST(ShardedEngine, DenseOverlapDegradesGracefully) {
  // Nets spanning most of the die: batches collapse toward singletons,
  // and the result must still be the serial one (the dispatch overhead is
  // the only cost).
  const std::vector<BNet> nets = clustered_nets(11, 400, 25, 400, true);
  const LevelBResult serial = serial_route(make_grid(400), nets);
  EngineStats stats;
  EXPECT_EQ(sharded_route(make_grid(400), nets, 4, &stats), serial);
  expect_sharded_accounting(stats, nets.size());
}

TEST(ShardedEngine, AutoPicksShardedOnLocalWorkload) {
  // "auto" survives only as an accepted alias of the sharded engine.
  const std::vector<BNet> nets = clustered_nets(13, 3000, 80, 40, false);
  EngineOptions options;
  options.threads = 4;
  ASSERT_TRUE(parse_engine_mode("auto", &options.mode));
  tig::TrackGrid grid = make_grid(3000);
  RoutingEngine engine(grid, options);
  const LevelBResult result = engine.route(nets);
  EXPECT_EQ(engine.stats().threads, 4);
  expect_sharded_accounting(engine.stats(), nets.size());
  EXPECT_EQ(result, serial_route(make_grid(3000), nets));
}

TEST(ShardedEngine, SingleThreadIsTheSerialRouter) {
  // threads == 1 bypasses the batch dispatch entirely.
  const std::vector<BNet> nets = clustered_nets(17, 600, 20, 60, true);
  EngineStats stats;
  EXPECT_EQ(sharded_route(make_grid(600), nets, 1, &stats),
            serial_route(make_grid(600), nets));
  EXPECT_EQ(stats.threads, 1);
  EXPECT_EQ(stats.batches, 0);
}

TEST(ShardedEngine, GridCarriesIdenticalWiring) {
  const std::vector<BNet> nets = clustered_nets(19, 800, 30, 70, false);
  tig::TrackGrid serial_grid = make_grid(800);
  tig::TrackGrid sharded_grid = make_grid(800);
  levelb::LevelBRouter router(serial_grid);
  router.route(nets);
  EngineOptions options;
  options.threads = 4;
  RoutingEngine engine(sharded_grid, options);
  engine.route(nets);
  for (int i = 0; i < serial_grid.num_h(); ++i) {
    for (geom::Coord x = 0; x < 800; x += 7) {
      EXPECT_EQ(serial_grid.is_free({kH, i}, geom::Interval(x, x + 6)),
                sharded_grid.is_free({kH, i}, geom::Interval(x, x + 6)))
          << "h track " << i << " at x=" << x;
    }
  }
  for (int j = 0; j < serial_grid.num_v(); ++j) {
    for (geom::Coord y = 0; y < 800; y += 7) {
      EXPECT_EQ(serial_grid.is_free({kV, j}, geom::Interval(y, y + 6)),
                sharded_grid.is_free({kV, j}, geom::Interval(y, y + 6)))
          << "v track " << j << " at y=" << y;
    }
  }
}

TEST(ShardedEngine, TraceRecordsEveryNetWithBatchFields) {
  const std::vector<BNet> nets = clustered_nets(21, 1200, 25, 50, false);
  util::TraceSink trace;
  EngineOptions options;
  options.levelb.trace = &trace;
  EXPECT_EQ(sharded_route(make_grid(1200), nets, 4, nullptr, options),
            serial_route(make_grid(1200), nets));
  // Exactly one "net" event per net; run totals live in EngineStats.
  EXPECT_EQ(trace.size(), nets.size());
  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"mode\":\"sharded\""), std::string::npos);
  EXPECT_NE(json.find("\"order\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
  EXPECT_NE(json.find("\"escaped\""), std::string::npos);
  // Fields of the retired speculative engine are gone.
  EXPECT_EQ(json.find("\"speculative\""), std::string::npos);
  EXPECT_EQ(json.find("\"queue_wait_us\""), std::string::npos);
  EXPECT_EQ(json.find("\"grid_copies\""), std::string::npos);
}

/// The `net` events of a traced run, indexed by their `order` field.
std::vector<util::TraceEvent> net_events_by_order(
    const util::TraceSink& trace) {
  std::vector<util::TraceEvent> events;
  for (const util::TraceEvent& ev : trace.events()) {
    if (ev.kind == "net") events.push_back(ev);
  }
  const auto order = [](const util::TraceEvent& ev) {
    for (const auto& [key, value] : ev.fields) {
      if (key == "order") return std::stoll(value.to_json());
    }
    return -1LL;
  };
  std::stable_sort(events.begin(), events.end(),
                   [&](const util::TraceEvent& a, const util::TraceEvent& b) {
                     return order(a) < order(b);
                   });
  return events;
}

/// Field \p key of \p ev rendered as JSON ("" when absent).
std::string field(const util::TraceEvent& ev, const std::string& key) {
  for (const auto& [k, value] : ev.fields) {
    if (k == key) return value.to_json();
  }
  return "";
}

TEST(ShardedEngine, NetEventsMatchSerialFieldForField) {
  // Both paths build their `net` event in the one commit step, so the
  // routing fields agree position by position; only the sharded events
  // carry the batch fields.
  const std::vector<BNet> nets = clustered_nets(21, 1200, 25, 50, false);
  util::TraceSink serial_trace;
  util::TraceSink sharded_trace;
  EngineOptions options;
  options.levelb.trace = &serial_trace;
  sharded_route(make_grid(1200), nets, 1, nullptr, options);
  options.levelb.trace = &sharded_trace;
  sharded_route(make_grid(1200), nets, 4, nullptr, options);

  const std::vector<util::TraceEvent> serial =
      net_events_by_order(serial_trace);
  const std::vector<util::TraceEvent> sharded =
      net_events_by_order(sharded_trace);
  ASSERT_EQ(serial.size(), nets.size());
  ASSERT_EQ(sharded.size(), nets.size());
  const std::vector<std::string> batch_fields = {
      "batch", "batch_size", "escaped", "footprint_tracks"};
  for (std::size_t k = 0; k < nets.size(); ++k) {
    EXPECT_EQ(field(serial[k], "order"), std::to_string(k));
    for (const char* key :
         {"net", "order", "complete", "wire_length", "corners",
          "vertices_examined", "window_growths", "candidates"}) {
      EXPECT_EQ(field(sharded[k], key), field(serial[k], key))
          << "order=" << k << " field=" << key;
    }
    EXPECT_EQ(field(serial[k], "mode"), "\"serial\"");
    EXPECT_EQ(field(sharded[k], "mode"), "\"sharded\"");
    for (const std::string& key : batch_fields) {
      EXPECT_EQ(field(serial[k], key), "") << "order=" << k << " " << key;
      EXPECT_NE(field(sharded[k], key), "") << "order=" << k << " " << key;
    }
  }
}

TEST(ShardedEngine, ObservesTheSerialPerNetHistograms) {
  // One levelb.net_* observation per net on both paths; per-net vertex
  // counts are deterministic, so the vertex buckets match too.
  const std::vector<BNet> nets = clustered_nets(21, 1200, 25, 50, false);
  const util::NetSearchHistograms hists = util::net_search_histograms();
  const auto filled_by = [&](int threads) {
    std::vector<long long> filled{-hists.search_us.count()};
    for (std::size_t i = 0; i <= hists.vertices.bounds().size(); ++i) {
      filled.push_back(-hists.vertices.bucket_count(i));
    }
    sharded_route(make_grid(1200), nets, threads);
    filled[0] += hists.search_us.count();
    for (std::size_t i = 1; i < filled.size(); ++i) {
      filled[i] += hists.vertices.bucket_count(i - 1);
    }
    return filled;
  };
  const std::vector<long long> serial = filled_by(1);
  EXPECT_EQ(serial[0], static_cast<long long>(nets.size()));
  EXPECT_EQ(filled_by(4), serial);
}

TEST(ShardedEngine, ModeNamesRoundTrip) {
  EngineMode mode = EngineMode::kSharded;
  ASSERT_TRUE(parse_engine_mode("sharded", &mode));
  EXPECT_EQ(mode, EngineMode::kSharded);
  // The retired mode names stay accepted as aliases, so old request lines
  // and journals keep replaying.
  for (const char* alias : {"speculative", "auto"}) {
    EXPECT_TRUE(parse_engine_mode(alias, &mode)) << alias;
    EXPECT_EQ(mode, EngineMode::kSharded) << alias;
  }
  EXPECT_FALSE(parse_engine_mode("bogus", &mode));
  EXPECT_FALSE(parse_engine_mode("", &mode));
  EXPECT_FALSE(parse_engine_mode("Sharded", &mode));
}

}  // namespace
}  // namespace ocr::engine
