/// \file bench_scaling.cpp
/// \brief Scaling studies: the paper's §3.4 complexity claims (storage
/// O(h*v), time O(n*h*v)) plus the engine's thread-scaling behaviour —
/// serial router vs the sharded parallel engine at 2/4/8 workers,
/// with a bit-identity check on every comparison.
///
/// `--json` additionally writes BENCH_scaling.json (scaling rows + the
/// engine comparison, including per-net effort aggregated from the
/// engine's trace events) for CI consumption. `--repeat N` times each
/// route configuration N times after one untimed warm-up and reports the
/// median (bench::measure_route) — the warm-up absorbs first-touch page
/// faults and allocator growth, the median rejects scheduler noise.
///
/// `--large` extends the memory study to the full 100k-net sparse-100k
/// instance (minutes of serial routing; default is the CI-bounded
/// sparse-100k-ci, same 200k-dbu die with 4000 nets).
///
/// `--label S` tags every JSON record (default "current"), so before/after
/// captures can be appended to the committed file as they are.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "route_sample.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"
#include "util/manifest.hpp"
#include "util/metrics.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace {

using namespace ocr;

/// `--label S`, carried by every JSON record.
std::string g_label = "current";

/// A JSON record of \p kind, tagged with the run's label.
util::TraceEvent bench_record(const char* kind) {
  util::TraceEvent ev(kind);
  ev.add("label", g_label);
  return ev;
}

std::vector<std::pair<geom::Coord, int>> scaling_instances() {
  return {{500, 25}, {1000, 25}, {2000, 25}, {1000, 50}, {1000, 100}};
}

void print_scaling_table(util::TraceSink* json) {
  util::TextTable table;
  table.set_header({"Grid (h x v)", "Nets", "Vertices examined",
                    "examined / (n*sqrt(hv))", "Completion"});
  for (const auto& [size, nets] : scaling_instances()) {
    bench_data::LevelBInstance inst = bench::uniform_instance("", size, nets);
    tig::TrackGrid& grid = inst.grid;
    levelb::LevelBRouter router(grid);
    const auto result = router.route(inst.nets);
    const double hv = static_cast<double>(grid.num_h()) * grid.num_v();
    // The windowed MBFS touches ~O(h + v) track segments per connection in
    // practice — far below the worst-case O(h*v) bound.
    const double norm = static_cast<double>(result.vertices_examined) /
                        (nets * std::sqrt(hv));
    table.add_row({util::format("%d x %d", grid.num_h(), grid.num_v()),
                   util::format("%d", nets),
                   util::format("%lld", result.vertices_examined),
                   util::format("%.2f", norm),
                   util::format("%.3f", result.completion_rate())});
    if (json != nullptr) {
      util::TraceEvent ev = bench_record("scaling");
      ev.add("grid_h", grid.num_h())
          .add("grid_v", grid.num_v())
          .add("nets", nets)
          .add("vertices_examined",
               static_cast<long long>(result.vertices_examined))
          .add("normalized", norm)
          .add("completion", result.completion_rate());
      json->record(std::move(ev));
    }
  }
  std::puts("\nScaling study (paper §3.4: time O(n*h*v) worst case)");
  std::fputs(table.render().c_str(), stdout);
  std::puts("A flat normalized column means the windowed search behaves "
            "like O(n*sqrt(h*v))\non sparse instances — comfortably inside "
            "the paper's O(n*h*v) bound.");
}

/// Reads an integer field back out of a recorded trace event (the sink
/// stores JSON-ready values; integers round-trip exactly).
long long trace_field(const util::TraceEvent& ev, const char* key) {
  for (const auto& [k, v] : ev.fields) {
    if (k == key) return std::strtoll(v.to_json().c_str(), nullptr, 10);
  }
  return 0;
}

/// Serial router vs the sharded engine on the uniform 1000-dbu instance:
/// wall clock, identity of the results, batch counters, and the slowest
/// net's search time from the route's trace stream.
void print_engine_comparison(const bench_data::LevelBInstance& inst,
                             util::TraceSink* json, int repeat) {
  util::TextTable table;
  table.set_header({"Mode", "Threads", "Wall ms", "Speedup", "Identical",
                    "Committed", "Re-routed", "Max net us"});

  // The nets here are uniformly random (no locality), so the shard planner
  // mostly degrades to singleton batches — the interesting contrast with
  // bench_mbfs's sparse-5000, where locality gives sharding wide batches.
  bench::RouteSample serial;
  for (const int threads : {1, 2, 4, 8}) {
    util::TraceSink trace;
    const bench::RouteSample row =
        bench::measure_route(inst, threads, repeat, &trace);
    if (threads == 1) serial = row;
    long long max_net_us = 0;
    for (const util::TraceEvent& ev : trace.events()) {
      max_net_us = std::max(max_net_us, trace_field(ev, "search_us"));
    }
    const bool sharded = threads > 1;
    const char* mode = sharded ? "sharded" : "serial";
    table.add_row(
        {mode, util::format("%d", threads), util::format("%.1f", row.wall_ms),
         util::format("%.2fx", serial.wall_ms / row.wall_ms),
         !sharded ? "-" : row.result == serial.result ? "yes" : "NO",
         sharded ? util::format("%lld", row.stats.sharded_commits) : "-",
         sharded ? util::format("%lld", row.stats.boundary_nets) : "-",
         util::format("%lld", max_net_us)});
    if (json != nullptr) {
      util::TraceEvent ev = bench_record("engine_compare");
      ev.add("mode", mode)
          .add("engine_mode", mode)
          .add("serial_ms", serial.wall_ms)
          .add("max_net_search_us", max_net_us);
      bench::add_route_fields(ev, row, serial);
      json->record(std::move(ev));
    }
  }
  std::printf("\nEngine comparison (grid 1000, %zu nets, %d repeat%s, "
              "median; identity checked against the serial router)\n",
              inst.nets.size(), repeat, repeat == 1 ? "" : "s");
  std::fputs(table.render().c_str(), stdout);
}

/// Fault-tolerance study: the same instance with injected faults and an
/// effort budget, measuring how much the degradation ladder recovers.
/// Counters land in BENCH_scaling.json so CI can track regressions in
/// the recovery behaviour, not just the happy path.
void print_resilience_table(const bench_data::LevelBInstance& inst,
                            util::TraceSink* json) {
  util::TextTable table;
  table.set_header({"Scenario", "Threads", "Complete", "Reroutes",
                    "Recovered", "Drops", "Budget", "Faults"});
  struct Scenario {
    const char* name;
    const char* faults;
    long long budget;
    int threads;
  };
  const Scenario scenarios[] = {
      {"clean", "", 0, 4},
      {"commit faults 10%", "engine.committer.commit=~0.1;seed=1", 0, 4},
      {"worker faults 10%", "engine.worker.route=~0.1;seed=1", 0, 4},
      {"apply faults 5%", "engine.committer.apply=~0.05;seed=1", 0, 4},
      {"tight budget", "", 400, 4},
      {"connect faults 5%", "levelb.connect=~0.05;seed=1", 0, 1},
  };
  for (const Scenario& s : scenarios) {
    util::FaultRegistry& registry = util::FaultRegistry::global();
    if (registry.configure(s.faults).ok() == false) continue;
    tig::TrackGrid grid = inst.grid;
    engine::EngineOptions options;
    options.threads = s.threads;
    options.levelb.net_vertex_budget = s.budget;
    engine::RoutingEngine router(grid, options);
    const levelb::LevelBResult result = router.route(inst.nets);
    const engine::EngineStats& stats = router.stats();
    const long long fired = registry.fired_count();
    registry.clear();

    table.add_row({s.name, util::format("%d", s.threads),
                   util::format("%d/%zu", result.routed_nets,
                                inst.nets.size()),
                   util::format("%lld",
                                stats.fault_reroutes + stats.worker_failures),
                   util::format("%d", result.ripup_recovered),
                   util::format("%lld", stats.fault_drops),
                   util::format("%d", result.budget_nets),
                   util::format("%lld", fired)});
    if (json != nullptr) {
      util::TraceEvent ev = bench_record("resilience");
      ev.add("scenario", s.name)
          .add("routed_nets", result.routed_nets)
          .add("failed_nets", result.failed_nets)
          .add("ripup_recovered", result.ripup_recovered)
          .add("budget_nets", result.budget_nets)
          .add("cancelled_nets", result.cancelled_nets)
          .add("faults_injected", fired);
      bench::add_engine_stats(ev, stats);
      json->record(std::move(ev));
    }
  }
  std::puts("\nResilience study (injected faults vs the degradation "
            "ladder; same instance as above)");
  std::fputs(table.render().c_str(), stdout);
}

/// Large-instance memory study: routes a 200k-dbu-die instance
/// (sparse-100k-ci by default; `--large` swaps in the full 100k-net
/// sparse-100k) serially and through the 4-thread sharded engine, recording
/// wall clock, routed nets, the grid's occupancy bytes, the high-water
/// bytes of the search workspaces' extra visited segments
/// (`levelb.visited_more_high_water_bytes`) and the process peak RSS. The die
/// carries ~40k tracks, and a routed grid holds one record for each.
void print_memory_table(util::TraceSink* json, int repeat, bool large) {
  util::TextTable table;
  table.set_header({"Instance", "Nets", "Mode", "Wall ms", "Routed",
                    "Identical", "Grid MB", "Visited KB", "Peak RSS MB"});

  // One instance per invocation: `--large` swaps the CI-bounded instance
  // for the full 100k-net one instead of adding it, so a `--memory-only
  // --large` capture measures the big instance in a fresh process.
  const bench_data::LevelBInstance inst = bench_data::generate_levelb_instance(
      large ? bench_data::sparse100k_spec()
            : bench_data::sparse100k_ci_spec());

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  // Workspaces raise these to their high-water marks (a max over the
  // process), so each mode starts them from zero and reads them after.
  util::Gauge& visited_hw =
      metrics.gauge("levelb.visited_more_high_water_bytes");
  util::Gauge& visited_reserved =
      metrics.gauge("levelb.visited_more_reserved_bytes");
  bench::RouteSample serial;
  for (const int threads : {1, 4}) {
    visited_hw.reset();
    visited_reserved.reset();
    const bench::RouteSample row = bench::measure_route(inst, threads, repeat);
    if (threads == 1) serial = row;
    const char* mode = threads == 1 ? "serial" : "sharded-4t";
    table.add_row({inst.name, util::format("%zu", inst.nets.size()), mode,
                   util::format("%.1f", row.wall_ms),
                   util::format("%d", row.result.routed_nets),
                   threads == 1                   ? "-"
                   : row.result == serial.result ? "yes"
                                                 : "NO",
                   util::format("%.2f", row.grid_bytes / 1e6),
                   util::format("%lld", visited_hw.value() / 1024),
                   util::format("%.1f", row.peak_rss_kb / 1024.0)});
    if (json != nullptr) {
      util::TraceEvent ev = bench_record("memory");
      ev.add("instance", inst.name)
          .add("nets", static_cast<int>(inst.nets.size()))
          .add("grid_h", inst.grid.num_h())
          .add("grid_v", inst.grid.num_v())
          .add("mode", mode)
          .add("visited_more_high_water_bytes", visited_hw.value())
          .add("visited_more_reserved_bytes", visited_reserved.value());
      bench::add_route_fields(ev, row, serial);
      json->record(std::move(ev));
    }
  }
  std::printf("\nLarge-instance memory study (200k-dbu die, ~40k tracks; "
              "%s)\n",
              large ? "full 100k-net instance (--large)"
                    : "CI-bounded net count; --large swaps in the 100k-net "
                      "instance");
  std::fputs(table.render().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  bool large = false;
  // Run just the memory study in a fresh process, so its peak-RSS rows
  // are not inflated by the preceding studies' footprints — this is how
  // comparable before/after capture runs are made.
  bool memory_only = false;
  long long repeat = 1;
  const util::Status parsed = util::parse_flags(
      argc, argv,
      {util::switch_flag("--json", &write_json),
       util::switch_flag("--large", &large),
       util::switch_flag("--memory-only", &memory_only),
       util::int_flag("--repeat", &repeat, 1),
       util::text_flag("--label", &g_label)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    std::fputs("usage: bench_scaling [--json] [--repeat N] [--label S] "
               "[--memory-only] [--large]\n",
               stderr);
    return 2;
  }

  util::TraceSink json;
  util::TraceSink* sink = write_json ? &json : nullptr;
  if (!memory_only) {
    // The 1000-dbu, 100-net uniform instance of the engine comparison and
    // the resilience study.
    const bench_data::LevelBInstance uniform =
        bench::uniform_instance("sparse-1000", 1000, 100);
    print_scaling_table(sink);
    print_engine_comparison(uniform, sink, repeat);
    print_resilience_table(uniform, sink);
  }
  print_memory_table(sink, repeat, large);
  if (write_json) {
    const std::string path = "BENCH_scaling.json";
    if (!json.write_json_file(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("\nwrote %s (%zu records)\n", path.c_str(), json.size());

    // Companion run manifest (see docs/OBSERVABILITY.md): config,
    // provenance and the metrics accumulated across every table run.
    util::RunManifest manifest("bench_scaling");
    manifest.add_config("label", g_label);
    manifest.add_config("repeat", repeat);
    manifest.add_config("large", large);
    manifest.add_config("memory_only", memory_only);
    manifest.add_outcome("records", static_cast<long long>(json.size()));
    manifest.capture_metrics(util::MetricsRegistry::global());
    const std::string mpath = "BENCH_scaling.manifest.json";
    if (!manifest.write_json_file(mpath)) {
      std::fprintf(stderr, "error: cannot write %s\n", mpath.c_str());
      return 1;
    }
    std::printf("wrote %s (run manifest)\n", mpath.c_str());
  }
  return 0;
}
