#include "route_sample.hpp"

#include <algorithm>
#include <chrono>
#include <string_view>

#include "util/mem.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace ocr::bench {

bench_data::LevelBInstance uniform_instance(std::string name,
                                            geom::Coord size, int count,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  return {std::move(name),
          tig::TrackGrid::uniform(geom::Rect(0, 0, size, size), 9, 11),
          bench_data::uniform_random_nets(rng, size, count)};
}

RouteSample measure_route(const bench_data::LevelBInstance& inst,
                          int threads, int repeat, util::TraceSink* trace) {
  const util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  RouteSample out;
  std::vector<double> walls;
  for (int r = 0; r <= repeat; ++r) {  // r == 0 is the warm-up
    tig::TrackGrid grid = inst.grid;
    engine::EngineOptions options;
    options.threads = threads;
    options.levelb.trace = trace;
    if (trace != nullptr) trace->clear();
    engine::RoutingEngine router(grid, options);
    const util::MetricsSnapshot before = metrics.snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    out.result = router.route(inst.nets);
    const double wall = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    out.work = metrics.snapshot().counters_since(before, "levelb.");
    out.stats = router.stats();
    out.grid_bytes = static_cast<long long>(grid.grid_bytes());
    if (r == 0) {
      out.peak_rss_kb = util::peak_rss_kb();
    } else {
      walls.push_back(wall);
    }
  }
  // Lower median: deterministic for an even repeat count.
  std::sort(walls.begin(), walls.end());
  out.wall_ms = walls.empty() ? 0.0 : walls[(walls.size() - 1) / 2];
  return out;
}

void add_engine_stats(util::TraceEvent& ev, const engine::EngineStats& stats) {
  constexpr std::string_view kPrefix = "engine.";
  for (const engine::EngineStatField& f : engine::kEngineStatFields) {
    ev.add(std::string(f.name).substr(kPrefix.size()), stats.*f.member);
  }
}

void add_route_fields(util::TraceEvent& ev, const RouteSample& row,
                      const RouteSample& serial) {
  ev.add("wall_ms", row.wall_ms)
      .add("identical", row.result == serial.result)
      .add("speedup_vs_1t",
           row.wall_ms > 0.0 ? serial.wall_ms / row.wall_ms : 0.0)
      .add("routed_nets", row.result.routed_nets)
      .add("failed_nets", row.result.failed_nets)
      .add("vertices", static_cast<long long>(row.result.vertices_examined));
  for (const auto& [name, value] : row.work) ev.add(name, value);
  add_engine_stats(ev, row.stats);
  ev.add("grid_bytes", row.grid_bytes).add("peak_rss_kb", row.peak_rss_kb);
}

}  // namespace ocr::bench
