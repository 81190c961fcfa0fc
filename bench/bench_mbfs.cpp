/// \file bench_mbfs.cpp
/// \brief MBFS hot-path microbenchmark harness: connect-level throughput
/// of the level-B path finder (paper §3.1/§3.2) on synthetic and
/// ami33-derived instances.
///
/// Two measurement families:
///
/// * **Connect sweep** — the grid is first routed to its final occupancy,
///   then every net's two-terminal connections are re-searched against
///   that congested state. Each PathFinder::connect call is timed
///   individually, giving connects/sec, MBFS vertices/sec and p50/p95
///   per-connect latency (nearest-rank percentiles). The sweep also runs
///   on 2/4/8 threads (one private grid copy per thread, as the parallel
///   engine's workers do) to expose allocator contention in the hot path;
///   the threaded percentiles pool every thread's samples.
/// * **Full route** — wall clock of the serial router and the sharded
///   engine at 2/4/8 workers (4 in quick mode), measured by
///   bench::measure_route, with a bit-identity check against the serial
///   result on every engine run.
/// * **Per-net growth** — a serial route of the sparse-100k generator cut
///   to 16k nets. Its µs/net over sparse-100k-ci's (the same generator at
///   4k nets) must stay flat; CI fails the build above 1.5.
///
/// `--repeat N` (default 3) runs each timed section N times after one
/// warm-up and reports the lower median. `--quick` shrinks the instance set and
/// repeats for CI smoke use. `--json` writes BENCH_mbfs.json. `--label S`
/// tags every JSON record (used to distinguish before/after captures).
/// `--connect-only` skips the full-route rows and `--only NAME` runs one
/// instance, both profiling aids.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_data/synthetic.hpp"
#include "floorplan/macro_layout.hpp"
#include "levelb/workspace.hpp"
#include "netlist/layout.hpp"
#include "route_sample.hpp"
#include "util/flags.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"
#include "util/str.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace ocr;
using geom::Point;

double ms_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Lower median of a sample (deterministic for even sizes), as
/// bench::measure_route takes it.
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[(v.size() - 1) / 2];
}

/// Nearest-rank percentile of a sorted sample, q in [0, 1].
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

/// A pristine routing instance (grid + nets, never mutated in place) and
/// the rows it gets.
struct Instance : bench_data::LevelBInstance {
  /// Skip the connect sweep (full-route rows only) — used for the large
  /// scaling instances, whose sweep would dominate quick-mode runtime
  /// without measuring anything the smaller instances don't.
  bool route_only = false;
  /// Serial full-route row only (no connect sweep, no engine rows).
  bool serial_only = false;
};

/// The ami33-derived instance: the Table-1 synthetic ami33 floorplan
/// assembled with fixed channel heights, all signal nets routed over-cell.
Instance ami33_instance() {
  const floorplan::MacroLayout ml =
      bench_data::generate_macro_layout(bench_data::ami33_spec());
  const std::vector<geom::Coord> heights(
      static_cast<std::size_t>(ml.num_channels()), 60);
  const netlist::Layout layout = ml.assemble(heights);
  const geom::DesignRules& rules = layout.rules();
  tig::TrackGrid grid = tig::TrackGrid::uniform(
      layout.die(), rules.rule(geom::Layer::kMetal3).pitch(),
      rules.rule(geom::Layer::kMetal4).pitch());
  for (const netlist::Obstacle& ob : layout.obstacles()) {
    if (ob.blocks_metal3) grid.block_region_h(ob.region);
    if (ob.blocks_metal4) grid.block_region_v(ob.region);
  }
  Instance inst{{"ami33", std::move(grid), {}}};
  for (std::size_t n = 0; n < layout.nets().size(); ++n) {
    if (layout.nets()[n].net_class != netlist::NetClass::kSignal) continue;
    auto pins = layout.net_pin_positions(
        netlist::NetId(static_cast<std::uint32_t>(n)));
    if (pins.size() < 2) continue;
    inst.nets.push_back(
        levelb::BNet{static_cast<int>(n), std::move(pins), false});
  }
  return inst;
}

// ---- connect sweep ------------------------------------------------------

/// Final-occupancy grid plus the snapped terminals that produced it.
struct Prepared {
  tig::TrackGrid grid;
  std::vector<std::vector<Point>> snapped;  ///< by ordering position
};

/// Routes the instance serially through levelb::RouteRun, committing
/// every position but never calling finish() (so no rip-up), so the sweep
/// queries run against realistic end-state congestion.
Prepared prepare_final_occupancy(const Instance& inst) {
  Prepared p{inst.grid, {}};
  const levelb::LevelBOptions options;
  levelb::RouteRun run(p.grid, options, inst.nets);
  for (std::size_t k = 0; k < run.size(); ++k) {
    run.commit(k, run.route_serial(k));
    p.snapped.push_back(*run.terminals()[k]);
  }
  return p;
}

/// One two-terminal search of the sweep.
struct Query {
  std::size_t net = 0;  ///< ordering position (its terminals are unblocked
                        ///< around the connect, like a real retry)
  Point a;
  Point b;
};

std::vector<Query> make_queries(const Prepared& p) {
  std::vector<Query> queries;
  for (std::size_t n = 0; n < p.snapped.size(); ++n) {
    // Consecutive distinct snapped terminal pairs.
    std::vector<Point> distinct;
    for (const Point& t : p.snapped[n]) {
      if (std::find(distinct.begin(), distinct.end(), t) == distinct.end()) {
        distinct.push_back(t);
      }
    }
    for (std::size_t t = 0; t + 1 < distinct.size(); ++t) {
      queries.push_back(Query{n, distinct[t], distinct[t + 1]});
    }
  }
  return queries;
}

struct SweepResult {
  double wall_ms = 0.0;
  long long vertices = 0;
  long long found = 0;  ///< determinism checksum (connects that succeeded)
  std::vector<double> latencies_us;  ///< per-connect, latency pass only
};

/// Runs every query once against \p grid (a private copy of the prepared
/// occupancy). \p record_latency additionally captures per-call times.
SweepResult run_sweep(const Prepared& p, const std::vector<Query>& queries,
                      tig::TrackGrid& grid, bool record_latency) {
  SweepResult out;
  if (record_latency) out.latencies_us.reserve(queries.size());
  const levelb::PathFinder finder(grid, levelb::PathFinderOptions{});
  const levelb::CostContext ctx = levelb::make_cost_context(grid, nullptr);
  // Caller-owned scratch, reused across the whole sweep — the same
  // lifecycle the serial router and engine workers use.
  levelb::SearchWorkspace ws;
  const auto t0 = std::chrono::steady_clock::now();
  for (const Query& q : queries) {
    for (const Point& t : p.snapped[q.net]) {
      levelb::unblock_terminal(grid, t);
    }
    const auto s = std::chrono::steady_clock::now();
    const levelb::PathFinder::Result r = finder.connect(q.a, q.b, ctx, ws);
    if (record_latency) out.latencies_us.push_back(ms_since(s) * 1000.0);
    out.vertices += r.stats.vertices_examined;
    out.found += r.found ? 1 : 0;
    for (const Point& t : p.snapped[q.net]) {
      levelb::block_terminal(grid, t);
    }
  }
  out.wall_ms = ms_since(t0);
  return out;
}

struct ConnectRow {
  int threads = 1;
  long long connects = 0;
  double wall_ms = 0.0;          ///< median across repeats
  double connects_per_sec = 0.0;
  double vertices_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
};

/// Single-thread sweep with repeats + latency percentiles.
ConnectRow connect_serial(const Prepared& p,
                          const std::vector<Query>& queries, int repeat) {
  ConnectRow row;
  row.connects = static_cast<long long>(queries.size());
  std::vector<double> walls;
  long long vertices = 0;
  std::vector<double> latencies;
  for (int r = 0; r <= repeat; ++r) {
    tig::TrackGrid grid = p.grid;
    SweepResult sweep = run_sweep(p, queries, grid, r == repeat);
    if (r == 0) continue;  // warm-up
    walls.push_back(sweep.wall_ms);
    vertices = sweep.vertices;
    if (!sweep.latencies_us.empty()) latencies = std::move(sweep.latencies_us);
  }
  row.wall_ms = median(walls);
  const double secs = row.wall_ms / 1000.0;
  row.connects_per_sec =
      secs > 0.0 ? static_cast<double>(row.connects) / secs : 0.0;
  row.vertices_per_sec =
      secs > 0.0 ? static_cast<double>(vertices) / secs : 0.0;
  std::sort(latencies.begin(), latencies.end());
  row.p50_us = percentile(latencies, 0.50);
  row.p95_us = percentile(latencies, 0.95);
  return row;
}

/// Multi-thread sweep: each thread runs the whole query list on its own
/// grid copy (the engine worker pattern); wall = slowest thread. The last
/// repeat records per-connect latencies on every thread; the percentiles
/// come from the pooled samples, so p50/p95 reflect what any one connect
/// experienced under contention rather than a single thread's view.
ConnectRow connect_parallel(const Prepared& p,
                            const std::vector<Query>& queries, int threads,
                            int repeat) {
  ConnectRow row;
  row.threads = threads;
  row.connects = static_cast<long long>(queries.size()) * threads;
  std::vector<double> walls;
  long long vertices = 0;
  std::vector<double> latencies;
  for (int r = 0; r <= repeat; ++r) {
    const bool record_latency = r == repeat;
    std::vector<tig::TrackGrid> grids(static_cast<std::size_t>(threads),
                                      p.grid);
    std::vector<SweepResult> results(static_cast<std::size_t>(threads));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        results[static_cast<std::size_t>(t)] =
            run_sweep(p, queries, grids[static_cast<std::size_t>(t)],
                      record_latency);
      });
    }
    for (std::thread& t : pool) t.join();
    const double wall = ms_since(t0);
    if (r == 0) continue;
    walls.push_back(wall);
    vertices = 0;
    for (SweepResult& sr : results) {
      vertices += sr.vertices;
      latencies.insert(latencies.end(), sr.latencies_us.begin(),
                       sr.latencies_us.end());
    }
  }
  row.wall_ms = median(walls);
  const double secs = row.wall_ms / 1000.0;
  row.connects_per_sec =
      secs > 0.0 ? static_cast<double>(row.connects) / secs : 0.0;
  row.vertices_per_sec =
      secs > 0.0 ? static_cast<double>(vertices) / secs : 0.0;
  std::sort(latencies.begin(), latencies.end());
  row.p50_us = percentile(latencies, 0.50);
  row.p95_us = percentile(latencies, 0.95);
  return row;
}

// ---- full route ---------------------------------------------------------

struct Config {
  bool quick = false;
  bool json = false;
  int repeat = 3;
  std::string label = "current";
  bool connect_only = false;  ///< skip full-route rows (profiling aid)
};

/// Full-route comparison: the serial router, then the sharded engine
/// across the thread sweep. Every engine run is identity-checked against
/// the serial result, and its speedup_vs_1t is the serial wall over its
/// own, which is what the CI scaling gate reads.
void run_route_rows(const Instance& inst, const Config& cfg,
                    util::TraceSink* json) {
  util::TextTable route_table;
  route_table.set_header({"Mode", "Threads", "Wall ms", "Speedup",
                          "Identical", "Routed", "Batches", "Boundary"});
  const bench::RouteSample serial = bench::measure_route(inst, 1, cfg.repeat);
  const auto add_row = [&](const bench::RouteSample& row) {
    const bool sharded = row.stats.threads > 1;
    route_table.add_row(
        {sharded ? "sharded" : "serial",
         util::format("%lld", row.stats.threads),
         util::format("%.1f", row.wall_ms),
         util::format("%.2fx", serial.wall_ms / row.wall_ms),
         !sharded ? "-" : row.result == serial.result ? "yes" : "NO",
         util::format("%d", row.result.routed_nets),
         sharded ? util::format("%lld", row.stats.batches) : "-",
         sharded ? util::format("%lld", row.stats.boundary_nets) : "-"});
    if (json == nullptr) return;
    const int nets = static_cast<int>(inst.nets.size());
    util::TraceEvent ev("mbfs_route");
    ev.add("label", cfg.label)
        .add("instance", inst.name)
        .add("mode", sharded ? "sharded" : "serial")
        .add("nets", nets)
        .add("us_per_net", nets > 0 ? row.wall_ms * 1e3 / nets : 0.0);
    bench::add_route_fields(ev, row, serial);
    json->record(std::move(ev));
  };
  add_row(serial);
  long long peak_rss_kb = serial.peak_rss_kb;
  const std::vector<int> engine_threads =
      inst.serial_only ? std::vector<int>{}
      : cfg.quick      ? std::vector<int>{4}
                       : std::vector<int>{2, 4, 8};
  for (const int threads : engine_threads) {
    const bench::RouteSample row =
        bench::measure_route(inst, threads, cfg.repeat);
    add_row(row);
    peak_rss_kb = row.peak_rss_kb;
  }
  std::printf("Full route (%d repeats, median)\n", cfg.repeat);
  std::fputs(route_table.render().c_str(), stdout);
  std::printf("memory: %s grid bytes (serial), %s KB peak RSS\n",
              util::with_commas(serial.grid_bytes).c_str(),
              util::with_commas(peak_rss_kb).c_str());
}

void bench_instance(const Instance& inst, const Config& cfg,
                    util::TraceSink* json) {
  std::printf("\n=== %s: %d nets, grid %d x %d ===\n", inst.name.c_str(),
              static_cast<int>(inst.nets.size()), inst.grid.num_h(),
              inst.grid.num_v());

  if (inst.route_only || inst.serial_only) {
    run_route_rows(inst, cfg, json);
    return;
  }

  // Connect sweep.
  const Prepared prepared = prepare_final_occupancy(inst);
  const std::vector<Query> queries = make_queries(prepared);
  const std::vector<int> sweep_threads =
      cfg.quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  util::TextTable sweep_table;
  sweep_table.set_header({"Threads", "Connects", "Wall ms", "Connects/s",
                          "MVertices/s", "p50 us", "p95 us"});
  double sweep_1t_rate = 0.0;
  for (const int threads : sweep_threads) {
    const ConnectRow row =
        threads == 1
            ? connect_serial(prepared, queries, cfg.repeat)
            : connect_parallel(prepared, queries, threads, cfg.repeat);
    if (threads == 1) sweep_1t_rate = row.connects_per_sec;
    // Aggregate throughput per connect: >1x means the threads route more
    // connects per second together than one thread does alone.
    const double speedup_vs_1t =
        sweep_1t_rate > 0.0 ? row.connects_per_sec / sweep_1t_rate : 0.0;
    sweep_table.add_row(
        {util::format("%d", threads), util::format("%lld", row.connects),
         util::format("%.2f", row.wall_ms),
         util::format("%.0f", row.connects_per_sec),
         util::format("%.2f", row.vertices_per_sec / 1e6),
         util::format("%.1f", row.p50_us),
         util::format("%.1f", row.p95_us)});
    if (json != nullptr) {
      util::TraceEvent ev("mbfs_connect");
      ev.add("label", cfg.label)
          .add("instance", inst.name)
          .add("threads", threads)
          .add("connects", row.connects)
          .add("wall_ms", row.wall_ms)
          .add("connects_per_sec", row.connects_per_sec)
          .add("vertices_per_sec", row.vertices_per_sec)
          .add("p50_us", row.p50_us)
          .add("p95_us", row.p95_us)
          .add("speedup_vs_1t", speedup_vs_1t);
      json->record(std::move(ev));
    }
  }
  std::printf("Connect sweep (final-occupancy grid, %d repeats, median)\n",
              cfg.repeat);
  std::fputs(sweep_table.render().c_str(), stdout);
  if (cfg.connect_only) return;

  run_route_rows(inst, cfg, json);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  long long repeat = cfg.repeat;
  std::string only;  ///< run this one instance (profiling aid)
  const util::Status parsed = util::parse_flags(
      argc, argv,
      {// --quick resets the repeat count; a later --repeat overrides it.
       {"--quick",
        [&](const std::string&) {
          cfg.quick = true;
          repeat = 1;
          return util::Status();
        },
        true},
       util::switch_flag("--json", &cfg.json),
       util::int_flag("--repeat", &repeat, 1),
       util::text_flag("--label", &cfg.label),
       util::switch_flag("--connect-only", &cfg.connect_only),
       util::text_flag("--only", &only)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    std::fputs("usage: bench_mbfs [--quick] [--json] [--repeat N] "
               "[--label S] [--connect-only] [--only NAME]\n",
               stderr);
    return 2;
  }
  cfg.repeat = static_cast<int>(repeat);

  util::TraceSink json;
  util::TraceSink* sink = cfg.json ? &json : nullptr;
  if (sink != nullptr) {
    util::TraceEvent meta("mbfs_meta");
    meta.add("label", cfg.label)
        .add("quick", cfg.quick)
        .add("repeat", cfg.repeat);
    sink->record(std::move(meta));
  }

  std::vector<Instance> instances;
  instances.push_back({bench::uniform_instance("sparse-1000", 1000, 100)});
  if (!cfg.quick) {
    instances.push_back({bench::uniform_instance("dense-700", 700, 140, 7)});
  }
  instances.push_back(ami33_instance());
  // The scaling headliner: ~1.2k local nets on a 5000-dbu die. Full-route
  // rows only, in quick mode too — the CI sharded-speedup gate reads it.
  instances.push_back({bench_data::generate_levelb_instance(
                           bench_data::sparse5000_spec()),
                       /*route_only=*/true});
  // The large-*grid* datapoint: the 200k-dbu die (~40k tracks) with a
  // CI-affordable net count. It stays affordable because a grid holds
  // records only for the track families it blocks, each record being its
  // free-gap list (DESIGN.md §11), and sharded workers read the live grid
  // through overlays that copy only the records they touch, never the
  // grid. bench-smoke reads its peak RSS.
  instances.push_back({bench_data::generate_levelb_instance(
                           bench_data::sparse100k_ci_spec()),
                       /*route_only=*/true});
  // The per-net growth row: the same generator at 16k nets, serial only
  // (the engine sweep would add minutes without measuring growth).
  {
    bench_data::LevelBSpec spec = bench_data::sparse100k_spec();
    spec.name = "sparse-100k-16k";
    spec.num_nets = 16000;
    instances.push_back({bench_data::generate_levelb_instance(spec),
                         /*route_only=*/false, /*serial_only=*/true});
  }
  for (const Instance& inst : instances) {
    if (!only.empty() && inst.name != only) continue;
    bench_instance(inst, cfg, sink);
  }

  if (cfg.json) {
    const std::string path = "BENCH_mbfs.json";
    if (!json.write_json_file(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", path.c_str(), json.size());

    // Companion run manifest: configuration + provenance + the metrics
    // the routed instances accumulated, so a captured number can be
    // traced back to the exact build and settings that produced it.
    util::RunManifest manifest("bench_mbfs");
    manifest.add_config("quick", cfg.quick);
    manifest.add_config("repeat", cfg.repeat);
    manifest.add_config("label", cfg.label);
    manifest.add_config("connect_only", cfg.connect_only);
    manifest.add_outcome("records", static_cast<long long>(json.size()));
    manifest.capture_metrics(util::MetricsRegistry::global());
    const std::string mpath = "BENCH_mbfs.manifest.json";
    if (!manifest.write_json_file(mpath)) {
      std::fprintf(stderr, "error: cannot write %s\n", mpath.c_str());
      return 1;
    }
    std::printf("wrote %s (run manifest)\n", mpath.c_str());
  }
  return 0;
}
