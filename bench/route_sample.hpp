#pragma once
/// \file route_sample.hpp
/// \brief The one full-route measurement of bench_mbfs and bench_scaling,
/// and the one writer of their route rows (`mbfs_route`,
/// `engine_compare`, `memory`).
///
/// A level-B route is timed in one place, measure_route(), with one
/// policy: an untimed warm-up (it absorbs first-touch page faults and
/// allocator growth), then `repeat` timed routes whose median is the
/// row's wall time. The deterministic work counters come from the last
/// route, and every route row carries them through add_route_fields().

#include <string>
#include <utility>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "util/trace.hpp"

namespace ocr::bench {

/// \p count uniformly random nets (seed \p seed) over a \p size x \p size
/// die with uniform 9/11 track pitches: the fully-conflicting instance of
/// both bench tools (`sparse-1000` is size 1000, 100 nets, seed 5).
bench_data::LevelBInstance uniform_instance(std::string name,
                                            geom::Coord size, int count,
                                            std::uint64_t seed = 5);

/// One measured route configuration.
struct RouteSample {
  double wall_ms = 0.0;           ///< median of the timed routes
  levelb::LevelBResult result{};  ///< the last route's result
  engine::EngineStats stats{};    ///< the last route's engine counters
  /// `levelb.*` registry counter growth of the last route, prefix
  /// dropped (sharded routes include the work of re-routed searches).
  std::vector<std::pair<std::string, long long>> work{};
  long long grid_bytes = 0;   ///< routed grid's occupancy bytes
  long long peak_rss_kb = 0;  ///< process high-water RSS after the first
                              ///< (cold) route; later routes only measure
                              ///< allocator reuse, not the router
};

/// Routes a fresh copy of \p inst's grid through the engine at \p threads
/// (1 is the serial LevelBRouter): one untimed warm-up, then \p repeat
/// timed routes. When \p trace is set, it holds the last route's per-net
/// events on return.
RouteSample measure_route(const bench_data::LevelBInstance& inst,
                          int threads, int repeat,
                          util::TraceSink* trace = nullptr);

/// Adds every EngineStats field to \p ev under its registry name, minus
/// the `engine.` prefix.
void add_engine_stats(util::TraceEvent& ev, const engine::EngineStats& stats);

/// The row writer: appends the fields every route row carries to \p ev
/// after the row's own identity keys — `wall_ms`, `identical` and
/// `speedup_vs_1t` against \p serial (the same instance at one thread),
/// `routed_nets`, `failed_nets`, `vertices`, the work counters, the
/// engine counters (add_engine_stats), `grid_bytes` and `peak_rss_kb`.
void add_route_fields(util::TraceEvent& ev, const RouteSample& row,
                      const RouteSample& serial);

}  // namespace ocr::bench
