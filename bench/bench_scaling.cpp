/// \file bench_scaling.cpp
/// \brief Scaling studies: the paper's §3.4 complexity claims (storage
/// O(h*v), time O(n*h*v)) plus the engine's thread-scaling behaviour —
/// serial router vs the sharded parallel engine at 1/2/4/8 workers,
/// with a bit-identity check on every comparison.
///
/// `--json` additionally writes BENCH_scaling.json (scaling rows + the
/// engine comparison, including per-net effort aggregated from the
/// engine's trace events) for CI consumption. `--repeat N` times each
/// engine-comparison configuration N times (after one untimed warm-up)
/// and reports the median — the warm-up absorbs first-touch page faults
/// and allocator growth, the median rejects scheduler noise.
///
/// `--large` extends the memory study to the full 100k-net sparse-100k
/// instance (minutes of serial routing; default is the CI-bounded
/// sparse-100k-ci, same 200k-dbu die with 4000 nets).
///
/// `--service` switches to the job-service study instead: a batch of
/// materialized jobs through service::JobExecutor at 1/2/4 workers,
/// reporting jobs/sec and p50/p95 end-to-end latency (submit to
/// completion callback), with a determinism check across every result.
/// Combines with `--json`/`--repeat` the same way.
///
/// `--label S` tags every JSON record (default "current"), so before/after
/// captures can be appended to the committed file as they are.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_data/levelb_instance.hpp"
#include "engine/engine.hpp"
#include "levelb/router.hpp"
#include "service/executor.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/fault.hpp"
#include "util/flags.hpp"
#include "util/manifest.hpp"
#include "util/mem.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace ocr;
using geom::Rect;

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
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    auto bnets = bench_data::uniform_random_nets(rng, size, nets);
    levelb::LevelBRouter router(grid);
    const auto result = router.route(bnets);
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

/// Adds every EngineStats field to \p ev under its registry name, minus
/// the `engine.` prefix.
void add_engine_stats(util::TraceEvent& ev, const engine::EngineStats& stats) {
  constexpr std::string_view kPrefix = "engine.";
  for (const engine::EngineStatField& f : engine::kEngineStatFields) {
    ev.add(std::string(f.name).substr(kPrefix.size()), stats.*f.member);
  }
}

/// Runs \p body `repeat` times after one untimed warm-up (skipped when
/// repeat == 1, preserving the single-shot behaviour) and returns the
/// median of the wall times \p body reports. \p body does its own setup
/// and timing so only the intended region is measured. The warm-up
/// absorbs first-touch page faults and allocator growth; the median
/// rejects scheduler noise. Every iteration computes identical results,
/// so the last iteration's side effects are as good as any.
template <typename Body>
double median_wall_ms(int repeat, Body&& body) {
  if (repeat > 1) body();  // warm-up
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) ms.push_back(body());
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

/// Serial vs engine on the largest scaling instance: wall clock, identity
/// of the results, batch counters, and per-net effort aggregated from the
/// engine's trace stream.
void print_engine_comparison(util::TraceSink* json, int repeat) {
  const geom::Coord size = 1000;
  const int nets = 100;
  const auto make_instance = [&] {
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    return std::make_pair(std::move(grid),
                          bench_data::uniform_random_nets(rng, size, nets));
  };

  levelb::LevelBResult expected;
  const double serial_ms = median_wall_ms(repeat, [&] {
    auto [grid, nets_copy] = make_instance();
    levelb::LevelBRouter serial(grid);
    const auto t0 = std::chrono::steady_clock::now();
    expected = serial.route(nets_copy);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  });

  util::TextTable table;
  table.set_header({"Mode", "Threads", "Wall ms", "Speedup", "Identical",
                    "Committed", "Re-routed", "Max net us"});
  table.add_row({"serial", "1", util::format("%.1f", serial_ms), "1.00x",
                 "-", "-", "-", "-"});

  // The nets here are uniformly random (no locality), so the shard planner
  // mostly degrades to singleton batches — the interesting contrast with
  // bench_mbfs's sparse-5000, where locality gives sharding wide batches.
  const char* mode_name = "sharded";
  double engine_1t_ms = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    levelb::LevelBResult result;
    engine::EngineStats stats;
    long long max_net_us = 0;
    const double ms = median_wall_ms(repeat, [&] {
      auto [grid, nets_copy] = make_instance();
      util::TraceSink trace;
      engine::EngineOptions options;
      options.threads = threads;
      options.levelb.trace = &trace;
      engine::RoutingEngine router(grid, options);
      const auto start = std::chrono::steady_clock::now();
      result = router.route(nets_copy);
      const double wall = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      stats = router.stats();
      // Trace consumption: fold the per-net events into run aggregates.
      max_net_us = 0;
      for (const util::TraceEvent& ev : trace.events()) {
        max_net_us = std::max(max_net_us, trace_field(ev, "search_us"));
      }
      return wall;
    });
    if (threads == 1) engine_1t_ms = ms;
    const bool identical = result == expected;
    table.add_row(
        {mode_name, util::format("%d", threads),
         util::format("%.1f", ms), util::format("%.2fx", serial_ms / ms),
         identical ? "yes" : "NO",
         threads > 1 ? util::format("%lld", stats.sharded_commits) : "-",
         threads > 1 ? util::format("%lld", stats.boundary_nets) : "-",
         util::format("%lld", max_net_us)});
    if (json != nullptr) {
      util::TraceEvent ev = bench_record("engine_compare");
      ev.add("mode", mode_name)
          .add("engine_mode", threads > 1 ? "sharded" : "serial")
          .add("wall_ms", ms)
          .add("serial_ms", serial_ms)
          .add("speedup_vs_1t",
               ms > 0.0 && engine_1t_ms > 0.0 ? engine_1t_ms / ms : 0.0)
          .add("identical", identical)
          .add("max_net_search_us", max_net_us)
          .add("failed_nets", result.failed_nets);
      add_engine_stats(ev, stats);
      json->record(std::move(ev));
    }
  }
  std::printf("\nEngine comparison (grid %lld, %d nets, %d repeat%s, "
              "median; identity checked against the serial router)\n",
              static_cast<long long>(size), nets, repeat,
              repeat == 1 ? "" : "s");
  std::fputs(table.render().c_str(), stdout);
}

/// Fault-tolerance study: the same instance with injected faults and an
/// effort budget, measuring how much the degradation ladder recovers.
/// Counters land in BENCH_scaling.json so CI can track regressions in
/// the recovery behaviour, not just the happy path.
void print_resilience_table(util::TraceSink* json) {
  const geom::Coord size = 1000;
  const int nets = 100;

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
    util::Rng rng(5);
    auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
    auto bnets = bench_data::uniform_random_nets(rng, size, nets);
    engine::EngineOptions options;
    options.threads = s.threads;
    options.levelb.net_vertex_budget = s.budget;
    engine::RoutingEngine router(grid, options);
    const levelb::LevelBResult result = router.route(bnets);
    const engine::EngineStats& stats = router.stats();
    const long long fired = registry.fired_count();
    registry.clear();

    table.add_row({s.name, util::format("%d", s.threads),
                   util::format("%d/%d", result.routed_nets, nets),
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
      add_engine_stats(ev, stats);
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
/// (`levelb.arena_high_water_bytes`) and the process peak RSS. The die
/// carries ~40k tracks, and a routed grid holds one record for each.
void print_memory_table(util::TraceSink* json, int repeat, bool large) {
  util::TextTable table;
  table.set_header({"Instance", "Nets", "Mode", "Wall ms", "Routed",
                    "Identical", "Grid MB", "Arena KB", "Peak RSS MB"});

  // One spec per invocation: `--large` swaps the CI-bounded instance for
  // the full 100k-net one instead of adding it, so a `--memory-only
  // --large` capture measures the big instance in a fresh process.
  std::vector<bench_data::LevelBSpec> specs;
  specs.push_back(large ? bench_data::sparse100k_spec()
                        : bench_data::sparse100k_ci_spec());

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  // Workspaces raise these to their high-water marks (a max over the
  // process), so each mode starts them from zero and reads them after.
  util::Gauge& arena_hw = metrics.gauge("levelb.arena_high_water_bytes");
  util::Gauge& arena_reserved = metrics.gauge("levelb.arena_reserved_bytes");
  struct Row {
    const char* mode;
    double wall_ms = 0.0;
    levelb::LevelBResult result{};
    engine::EngineStats stats{};
    long long grid_bytes = 0;
    long long rss_kb = 0;  ///< process peak after this mode's first (cold)
                           ///< route (monotonic: includes what ran before)
    /// `levelb.*` registry counter growth of the last route, prefix dropped.
    std::vector<std::pair<std::string, long long>> work{};
    long long arena_hw = 0;
    long long arena_reserved = 0;
  };
  for (const bench_data::LevelBSpec& spec : specs) {
    const bench_data::LevelBInstance inst =
        bench_data::generate_levelb_instance(spec);

    // One mode: the engine at \p threads (1 is the serial router).
    const auto run_mode = [&](const char* mode, int threads) {
      Row row{mode};
      arena_hw.reset();
      arena_reserved.reset();
      row.wall_ms = median_wall_ms(repeat, [&] {
        tig::TrackGrid grid = inst.grid;
        engine::EngineOptions options;
        options.threads = threads;
        engine::RoutingEngine router(grid, options);
        const util::MetricsSnapshot before = metrics.snapshot();
        const auto t0 = std::chrono::steady_clock::now();
        row.result = router.route(inst.nets);
        const double wall = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        row.work = metrics.snapshot().counters_since(before, "levelb.");
        row.grid_bytes = static_cast<long long>(grid.grid_bytes());
        row.stats = router.stats();
        // Peak RSS of the *first* (cold) route: later iterations only
        // measure allocator reuse/fragmentation, not the router.
        if (row.rss_kb == 0) row.rss_kb = util::peak_rss_kb();
        return wall;
      });
      row.arena_hw = arena_hw.value();
      row.arena_reserved = arena_reserved.value();
      return row;
    };
    const Row rows[] = {run_mode("serial", 1), run_mode("sharded-4t", 4)};
    for (const Row& row : rows) {
      const bool serial = row.stats.threads == 1;
      const bool identical = row.result == rows[0].result;
      table.add_row({spec.name, util::format("%d", spec.num_nets), row.mode,
                     util::format("%.1f", row.wall_ms),
                     util::format("%d", row.result.routed_nets),
                     serial ? "-" : identical ? "yes" : "NO",
                     util::format("%.2f", row.grid_bytes / 1e6),
                     util::format("%lld", row.arena_hw / 1024),
                     util::format("%.1f", row.rss_kb / 1024.0)});
      if (json != nullptr) {
        util::TraceEvent ev = bench_record("memory");
        ev.add("instance", spec.name)
            .add("storage", "flat")
            .add("nets", spec.num_nets)
            .add("grid_h", inst.grid.num_h())
            .add("grid_v", inst.grid.num_v())
            .add("mode", row.mode)
            .add("wall_ms", row.wall_ms)
            .add("routed_nets", row.result.routed_nets)
            .add("identical", identical)
            .add("grid_bytes", row.grid_bytes)
            .add("batches", row.stats.batches)
            .add("boundary_nets", row.stats.boundary_nets)
            .add("vertices", row.result.vertices_examined);
        for (const auto& [name, value] : row.work) ev.add(name, value);
        ev.add("arena_high_water_bytes", row.arena_hw)
            .add("arena_reserved_bytes", row.arena_reserved)
            .add("peak_rss_kb", row.rss_kb);
        json->record(std::move(ev));
      }
    }
  }
  std::printf("\nLarge-instance memory study (200k-dbu die, ~40k tracks; "
              "%s)\n",
              large ? "full 100k-net instance (--large)"
                    : "CI-bounded net count; --large swaps in the 100k-net "
                      "instance");
  std::fputs(table.render().c_str(), stdout);
}

/// Service throughput study (`--service`): a fixed batch of ami33 jobs
/// through the JobExecutor at 1/2/4 workers. Latency is end-to-end per
/// job — submit() to the completion callback, so queue wait counts —
/// and the determinism column checks that every job of every repeat at
/// every worker count produced the same clean wire length.
void print_service_table(util::TraceSink* json, int repeat) {
  constexpr int kJobs = 24;

  util::TextTable table;
  table.set_header({"Workers", "Journal", "Jobs", "Wall ms", "Jobs/sec",
                    "p50 ms", "p95 ms", "Identical"});

  long long wire = -1;  // first clean result; shared across all rows
  for (const int workers : {1, 2, 4}) {
  for (const bool journaled : {false, true}) {
    // The recovery datapoint: the same batch with the write-ahead job
    // journal on, measuring what fsync-batched durability costs.
    const std::string journal_path =
        util::format("bench_scaling_journal_w%d.jsonl", workers);
    std::vector<double> latencies;  // pooled over the timed repeats
    std::vector<double> walls;
    bool identical = true;
    const int runs = repeat > 1 ? repeat + 1 : repeat;  // +1 warm-up
    for (int r = 0; r < runs; ++r) {
      const bool warmup = repeat > 1 && r == 0;

      service::JobSpec spec;
      spec.example = "ami33";
      std::vector<service::RoutingJob> jobs;
      jobs.reserve(kJobs);
      for (int i = 0; i < kJobs; ++i) {
        auto job = service::materialize(spec);
        if (!job.ok()) {
          std::fprintf(stderr, "error: materialize: %s\n",
                       job.status().to_string().c_str());
          std::exit(1);
        }
        jobs.push_back(std::move(job).value());
      }

      std::remove(journal_path.c_str());
      service::Journal journal;
      if (journaled) {
        const util::Status opened = journal.open(journal_path);
        if (!opened.ok()) {
          std::fprintf(stderr, "error: %s\n", opened.to_string().c_str());
          std::exit(1);
        }
      }
      service::JobExecutor::Options options;
      options.workers = workers;
      options.admission.queue_limit = kJobs;  // the study never rejects
      options.journal = journaled ? &journal : nullptr;
      service::JobExecutor executor(options);

      std::mutex mu;
      std::vector<double> batch;
      batch.reserve(kJobs);
      const auto t0 = std::chrono::steady_clock::now();
      for (auto& job : jobs) {
        const auto submitted = std::chrono::steady_clock::now();
        executor.submit(
            std::move(job), [&, submitted](service::JobResult result) {
              const double ms =
                  std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - submitted)
                      .count();
              const long long w = result.report.metrics.wire_length;
              std::lock_guard<std::mutex> lock(mu);
              batch.push_back(ms);
              if (result.exit_class() != 0) identical = false;
              if (wire < 0) wire = w;
              if (w != wire) identical = false;
            });
      }
      executor.drain();
      const double wall = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      journal.close();
      std::remove(journal_path.c_str());
      if (warmup) continue;
      walls.push_back(wall);
      latencies.insert(latencies.end(), batch.begin(), batch.end());
    }

    std::sort(walls.begin(), walls.end());
    std::sort(latencies.begin(), latencies.end());
    const double wall_ms = walls[walls.size() / 2];
    const double jobs_per_sec = wall_ms > 0.0 ? kJobs * 1000.0 / wall_ms : 0.0;
    const double p50 = latencies[latencies.size() / 2];
    const double p95 = latencies[latencies.size() * 95 / 100];
    table.add_row({util::format("%d", workers), journaled ? "on" : "off",
                   util::format("%d", kJobs), util::format("%.1f", wall_ms),
                   util::format("%.2f", jobs_per_sec),
                   util::format("%.1f", p50), util::format("%.1f", p95),
                   identical ? "yes" : "NO"});
    if (json != nullptr) {
      util::TraceEvent ev = bench_record("service");
      ev.add("workers", workers)
          .add("journal", journaled)
          .add("jobs", kJobs)
          .add("repeat", repeat)
          .add("wall_ms", wall_ms)
          .add("jobs_per_sec", jobs_per_sec)
          .add("p50_ms", p50)
          .add("p95_ms", p95)
          .add("identical", identical)
          .add("wire_length", wire);
      json->record(std::move(ev));
    }
  }
  }
  std::puts("\nService study (ami33 jobs through the executor; latency "
            "is submit -> completion,\nso queue wait counts; journal rows "
            "pay the write-ahead log's fsync batching;\nidentity checked "
            "across every result)");
  std::fputs(table.render().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  bool service_mode = false;
  bool large = false;
  // Run just the memory study in a fresh process, so its peak-RSS rows
  // are not inflated by the preceding studies' footprints — this is how
  // comparable before/after capture runs are made.
  bool memory_only = false;
  long long repeat = 1;
  const util::Status parsed = util::parse_flags(
      argc, argv,
      {util::switch_flag("--json", &write_json),
       util::switch_flag("--service", &service_mode),
       util::switch_flag("--large", &large),
       util::switch_flag("--memory-only", &memory_only),
       util::int_flag("--repeat", &repeat, 1),
       util::text_flag("--label", &g_label)});
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    std::fputs("usage: bench_scaling [--json] [--repeat N] [--label S] "
               "[--service] [--memory-only] [--large]\n",
               stderr);
    return 2;
  }

  util::TraceSink json;
  util::TraceSink* sink = write_json ? &json : nullptr;
  if (service_mode) {
    print_service_table(sink, repeat);
  } else if (memory_only) {
    print_memory_table(sink, repeat, large);
  } else {
    print_scaling_table(sink);
    print_engine_comparison(sink, repeat);
    print_resilience_table(sink);
    print_memory_table(sink, repeat, large);
  }
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
    manifest.add_config("service", service_mode);
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
