#pragma once
/// \file engine.hpp
/// \brief RoutingEngine: the level-B router, with nets searched in
/// parallel batches yet committed in deterministic net order.
///
/// With threads == 1 the engine IS the serial LevelBRouter. With N > 1
/// worker threads it shards: a geometry pre-pass (partition.hpp) groups
/// consecutive ordering positions with disjoint search regions into
/// batches, each batch routes in parallel against the live grid at its
/// start (the exact serial prefix), and this thread commits the results in
/// position order through the serial router's own commit step
/// (levelb::RouteRun). A member whose recorded reads touch wiring an
/// earlier member of its batch committed escaped its region and takes the
/// serial step on the live grid instead. Results are bit-identical to the
/// serial router for a fixed ordering (see DESIGN.md "Engine architecture"
/// for the argument).

#include <string>
#include <vector>

#include "levelb/net_core.hpp"
#include "tig/track_grid.hpp"

namespace ocr::engine {

/// Parallel dispatch strategy for threads > 1. Sharded batches are the
/// only one; the enum stays so callers can name it.
enum class EngineMode { kSharded };

/// Parses a mode name: "sharded", and the retired "speculative" and
/// "auto", which old request lines and scripts still carry, all mean
/// kSharded. False (and *mode untouched) on any other name.
bool parse_engine_mode(const std::string& name, EngineMode* mode);

struct EngineOptions {
  levelb::LevelBOptions levelb;
  /// Worker thread count. 1 = serial; <= 0 = one per hardware thread.
  int threads = 1;
  /// Parallel dispatch strategy (see EngineMode).
  EngineMode mode = EngineMode::kSharded;
  /// Sharded planning: declared-region inflation in routing pitches
  /// (partition.hpp). Tunes the escape rate, never correctness.
  int shard_halo_pitches = 16;
};

/// Counters from the last route() call (a serial run reports zero
/// batches). The engine only counts; flow::run publishes `engine.*`
/// through kEngineStatFields.
struct EngineStats {
  long long threads = 1;  ///< resolved worker count; > 1 means sharded
  long long batches = 0;          ///< shard batches dispatched
  long long max_batch_size = 0;   ///< widest batch (parallelism ceiling)
  long long sharded_commits = 0;  ///< batch results committed untouched
  long long boundary_nets = 0;    ///< reads escaped the declared region;
                                  ///  re-routed serially on the prefix
  long long sharded_wasted_vertices = 0;   ///< discarded escape searches
  long long sharded_wasted_search_us = 0;  ///< time of those searches
  // Robustness counters (degradation ladder; see DESIGN.md "Failure
  // model"). All zero on a fault-free run. On a sharded run every
  // position lands in exactly one of sharded_commits, boundary_nets,
  // worker_failures and fault_reroutes.
  long long fault_reroutes = 0;   ///< rung 1: commit faults re-routed
                                  ///  serially on the live grid
  long long fault_drops = 0;      ///< rung 3: apply faults; net dropped
                                  ///  and marked unrouted
  long long worker_failures = 0;  ///< batch positions a worker left
                                  ///  unrouted, recovered serially
  long long pool_task_failures = 0;  ///< worker tasks that threw
};

/// How the metrics registry folds an EngineStats field across runs: a
/// gauge keeps the last run's value, a counter sums every run's.
enum class StatKind { kCounter, kGauge };

/// An EngineStats field and the registry instrument it is published as.
struct EngineStatField {
  const char* name;  ///< `engine.` + the field's name in bench rows
  StatKind kind;
  long long EngineStats::*member;
};

/// The one list of EngineStats fields: the `engine.*` publisher and the
/// bench_scaling rows loop over it.
inline constexpr EngineStatField kEngineStatFields[] = {
    {"engine.threads", StatKind::kGauge, &EngineStats::threads},
    {"engine.max_batch_size", StatKind::kGauge, &EngineStats::max_batch_size},
    {"engine.batches", StatKind::kCounter, &EngineStats::batches},
    {"engine.sharded_commits", StatKind::kCounter,
     &EngineStats::sharded_commits},
    {"engine.boundary_nets", StatKind::kCounter, &EngineStats::boundary_nets},
    {"engine.sharded_wasted_vertices", StatKind::kCounter,
     &EngineStats::sharded_wasted_vertices},
    {"engine.sharded_wasted_search_us", StatKind::kCounter,
     &EngineStats::sharded_wasted_search_us},
    {"engine.fault_reroutes", StatKind::kCounter, &EngineStats::fault_reroutes},
    {"engine.fault_drops", StatKind::kCounter, &EngineStats::fault_drops},
    {"engine.worker_failures", StatKind::kCounter,
     &EngineStats::worker_failures},
    {"engine.pool_task_failures", StatKind::kCounter,
     &EngineStats::pool_task_failures},
};

class RoutingEngine {
 public:
  /// Routes over \p grid, which must outlive the engine and carries the
  /// committed wiring after route() returns (same contract as
  /// LevelBRouter).
  RoutingEngine(tig::TrackGrid& grid, EngineOptions options);

  /// Routes all nets. Safe to call once per engine instance per grid
  /// state; the result is bit-identical to
  /// LevelBRouter(grid, options.levelb).route(nets) for any thread count.
  levelb::LevelBResult route(const std::vector<levelb::BNet>& nets);

  const EngineStats& stats() const { return stats_; }

  /// The thread count a configured value resolves to (handles <= 0).
  static int resolve_threads(int requested);

 private:
  levelb::LevelBResult route_sharded(const std::vector<levelb::BNet>& nets,
                                     int threads);

  tig::TrackGrid& grid_;
  EngineOptions options_;
  EngineStats stats_;
};

}  // namespace ocr::engine
