#include "engine/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "engine/partition.hpp"
#include "levelb/router.hpp"
#include "levelb/workspace.hpp"
#include "tig/overlay.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"
#include "util/thread_pool.hpp"

namespace ocr::engine {
namespace {

using geom::Point;
using levelb::BNet;
using levelb::Committed;
using levelb::LevelBResult;
using levelb::NetResult;

long long micros_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Largest track pitch of the grid — the unit the shard halo scales with.
geom::Coord grid_pitch(const tig::TrackGrid& grid) {
  geom::Coord pitch = 1;
  if (grid.num_h() >= 2) {
    pitch = std::max(pitch, grid.h_y(1) - grid.h_y(0));
  }
  if (grid.num_v() >= 2) {
    pitch = std::max(pitch, grid.v_x(1) - grid.v_x(0));
  }
  return pitch;
}

/// One batch position's worker outcome.
struct BatchItem {
  levelb::RoutedNet net;
  /// Exact read set of the search — what the commit loop checks against
  /// same-batch predecessors' wiring to catch region escapes.
  levelb::SearchFootprint footprint;
  /// False until a worker completes the search: a position left unrouted
  /// (injected fault, thrown search, dead worker task) is recovered
  /// serially.
  bool routed = false;
};

/// One worker's scratch, kept for the whole run: the overlay that carries
/// its terminal braces over the live grid (rebased at each batch start)
/// and the workspace of its searches.
struct WorkerSlot {
  tig::GridOverlay overlay;
  levelb::SearchWorkspace workspace;
};

/// True when \p footprint reads wiring that batch positions [begin, k)
/// committed.
bool reads_batch_wiring(const levelb::RouteRun& run, std::size_t begin,
                        std::size_t k,
                        const levelb::SearchFootprint& footprint) {
  for (std::size_t j = begin; j < k; ++j) {
    for (const Committed& c : run.committed(j)) {
      if (footprint.intersects(c.track, c.extent)) return true;
    }
  }
  return false;
}

}  // namespace

bool parse_engine_mode(const std::string& name, EngineMode* mode) {
  if (name != "sharded" && name != "speculative" && name != "auto") {
    return false;
  }
  *mode = EngineMode::kSharded;
  return true;
}

RoutingEngine::RoutingEngine(tig::TrackGrid& grid, EngineOptions options)
    : grid_(grid), options_(std::move(options)) {}

int RoutingEngine::resolve_threads(int requested) {
  if (requested > 0) return requested;
  return util::ThreadPool::hardware_threads();
}

LevelBResult RoutingEngine::route(const std::vector<BNet>& nets) {
  const int threads = resolve_threads(options_.threads);
  stats_ = EngineStats{};
  stats_.threads = threads;
  if (threads > 1) return route_sharded(nets, threads);
  return levelb::LevelBRouter(grid_, options_.levelb).route(nets);
}

LevelBResult RoutingEngine::route_sharded(const std::vector<BNet>& nets,
                                          int threads) {
  // The serial router's run loop. Its prologue (ordering, snapped terminal
  // reservations, unrouted-suffix index) fixes everything a net's search
  // depends on besides grid occupancy; terminal reservation mutates the
  // grid, so it runs exactly once, before planning.
  levelb::RouteRun run(grid_, options_.levelb, nets, "sharded");

  ShardPlanOptions popt;
  popt.pitch = grid_pitch(grid_);
  popt.halo_pitches = options_.shard_halo_pitches;
  const ShardPlan plan =
      build_shard_plan(run.nets(), run.terminals(), popt);
  stats_.batches = static_cast<long long>(plan.batches.size());
  stats_.max_batch_size = static_cast<long long>(plan.max_batch());

  // Zero grid copies: workers read the engine's LIVE grid through private
  // overlays. Batches phase-separate reads from writes — this thread only
  // commits after pool.wait_idle(), and workers only read before that
  // barrier — so the live grid at batch start IS the exact serial prefix,
  // with no snapshot, no commit log, and no replay. The same barrier lets
  // workers read the run's sensitive registry while commits update it in
  // place. Occupancy reads never write (block/unblock keep every track
  // record's gaps current), so concurrent const reads are pure.
  std::vector<WorkerSlot> slots(static_cast<std::size_t>(threads));
  std::vector<BatchItem> items;
  std::size_t begin = 0;
  std::atomic<std::size_t> cursor{0};

  // The worker loop: claims batch positions until the cursor drains.
  // Same-batch nets cannot influence each other's reads unless a search
  // escapes its declared region, which the commit loop catches.
  const auto search = [&](WorkerSlot& slot) {
    slot.overlay.rebase(&grid_);
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      const std::size_t k = begin + i;
      BatchItem& item = items[i];
      if (OCR_FAULT_KEY("engine.worker.route", run.nets()[k]->id)) continue;
      try {
        const std::vector<Point>& terminals = *run.terminals()[k];
        for (const Point& p : terminals) {
          levelb::unblock_terminal(slot.overlay, p);
        }
        const auto start = std::chrono::steady_clock::now();
        {
          OCR_SPAN("engine.search");
          item.net.result = levelb::route_single_net(
              slot.overlay, options_.levelb, run.request(k),
              item.net.committed, item.net.stats, &item.footprint,
              &slot.workspace);
        }
        item.net.search_us = micros_since(start);
        for (const Point& p : terminals) {
          levelb::block_terminal(slot.overlay, p);
        }
        item.routed = true;
      } catch (...) {
        // Leave the item unrouted for serial recovery and drop the
        // possibly half-mutated overlay.
        item = BatchItem{};
        slot.overlay.rebase(&grid_);
      }
    }
  };

  // Declared after everything its tasks touch, so its destructor drains
  // and joins them first on every exit path.
  util::ThreadPool pool(threads, "engine.pool");
  util::Histogram& batch_hist = util::MetricsRegistry::global().histogram(
      "engine.batch_size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64});

  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const ShardBatch& batch = plan.batches[b];
    batch_hist.observe(batch.size());
    begin = batch.begin;
    items.clear();
    items.resize(batch.size());
    cursor.store(0, std::memory_order_relaxed);
    const std::size_t workers =
        std::min(static_cast<std::size_t>(threads), batch.size());
    if (workers > 1) {
      for (std::size_t t = 0; t < workers; ++t) {
        pool.submit([&search, &slot = slots[t]] { search(slot); });
      }
      // The barrier that makes batch commits single-writer: items are
      // only read after the pool quiesces.
      pool.wait_idle();
    } else {
      // Singleton batches skip the pool round-trip.
      search(slots[0]);
    }

    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::size_t k = batch.begin + i;
      BatchItem& item = items[i];
      bool accepted = false;
      bool escaped = false;
      if (!item.routed) {
        ++stats_.worker_failures;
      } else if (OCR_FAULT("engine.committer.commit")) {
        ++stats_.fault_reroutes;
      } else {
        // Exact escape check: the batch result is the serial result iff
        // none of its reads touch wiring a same-batch predecessor
        // committed (the batch-start grid is missing exactly that wiring,
        // and commits are block-only). Predecessors are final here —
        // accepted ones are serial by induction, escaped ones were
        // re-routed serially — so this compares against the true serial
        // prefix. Disjoint declared regions make a hit rare; far free-gap
        // and blockage-distance reads make it possible.
        escaped = reads_batch_wiring(run, batch.begin, k, item.footprint);
        accepted = !escaped;
        if (escaped) ++stats_.boundary_nets;
      }
      if (accepted) {
        ++stats_.sharded_commits;
      } else if (item.routed) {
        stats_.sharded_wasted_vertices += item.net.stats.vertices_examined;
        stats_.sharded_wasted_search_us += item.net.search_us;
      }
      const auto footprint_tracks = static_cast<long long>(
          accepted ? item.footprint.tracks() : 0);

      // Serial recovery runs the serial step on the live grid — which at
      // position k IS the serial prefix (order-convex batches, in-order
      // commits): no overlay, no log replay, no rollback.
      levelb::RoutedNet routed =
          accepted ? std::move(item.net) : run.route_serial(k);

      // Rung 3 of the degradation ladder: an apply fault is unrecoverable
      // for this net — drop its wiring entirely (committing none of it
      // keeps flow::check clean) and mark it unrouted; a later rip-up
      // round may still rescue it.
      if (OCR_FAULT("engine.committer.apply")) {
        ++stats_.fault_drops;
        routed.result = NetResult{};
        routed.result.id = run.nets()[k]->id;
        routed.result.outcome = util::StatusKind::kFaultInjected;
        routed.result.failed_connections = std::max(
            0, static_cast<int>(run.terminals()[k]->size()) - 1);
        routed.committed.clear();
      }

      run.commit(k, std::move(routed),
                 {{"batch", static_cast<long long>(b)},
                  {"batch_size", static_cast<long long>(batch.size())},
                  {"escaped", escaped},
                  {"footprint_tracks", footprint_tracks}});
    }
  }

  stats_.pool_task_failures =
      static_cast<long long>(pool.task_failures().size());
  for (WorkerSlot& slot : slots) slot.workspace.publish_metrics();
  return run.finish();
}

}  // namespace ocr::engine
