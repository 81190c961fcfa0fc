#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "engine/parallel_search.hpp"
#include "engine/partition.hpp"
#include "levelb/router.hpp"
#include "levelb/workspace.hpp"
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
using levelb::SearchStats;

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
  // The serial router's prologue: the ordering, the snapped terminal
  // reservations and the unrouted-suffix index fix everything a net's
  // search depends on besides grid occupancy. Terminal reservation
  // mutates the grid, so it runs exactly once, before planning.
  const std::vector<std::size_t> order =
      levelb::order_nets(nets, options_.levelb.ordering);
  const std::vector<std::vector<Point>> snapped =
      levelb::snap_and_reserve_terminals(grid_, nets);
  const levelb::UnroutedSuffix unrouted(
      snapped, order, levelb::unrouted_bucket_edge(grid_, options_.levelb));
  const std::size_t n = order.size();
  std::vector<const BNet*> nets_by_position(n);
  std::vector<const std::vector<Point>*> terminals_by_position(n);
  for (std::size_t k = 0; k < n; ++k) {
    nets_by_position[k] = &nets[order[k]];
    terminals_by_position[k] = &snapped[order[k]];
  }

  ShardPlanOptions popt;
  popt.pitch = grid_pitch(grid_);
  popt.halo_pitches = options_.shard_halo_pitches;
  const ShardPlan plan =
      build_shard_plan(nets_by_position, terminals_by_position, popt);
  stats_.batches = static_cast<long long>(plan.batches.size());
  stats_.max_batch_size = static_cast<long long>(plan.max_batch());

  // Zero grid copies: workers read the engine's LIVE grid through private
  // overlays. Batches phase-separate reads from writes — this thread only
  // commits after pool.wait_idle(), and workers only read between
  // start_batch and that barrier — so the live grid at batch start IS the
  // exact serial prefix, with no snapshot, no commit log, and no replay.
  // The only subtlety is the gap cache's lazy memos: mutations patch
  // entries in place (so they stay valid), and warm_gap_cache() below
  // materializes anything still pending before each multi-worker batch,
  // making concurrent const reads pure.
  BatchSearch search(options_.levelb, nets_by_position,
                     terminals_by_position, unrouted);
  util::ThreadPool pool(threads, "engine.pool");

  std::vector<NetResult> results(n);
  std::vector<std::vector<Committed>> net_committed(n);
  SearchStats stats;
  levelb::SearchWorkspace workspace;
  // Committed sensitive wiring, copy-on-write so a batch's workers keep
  // reading the registry they started with. The shard planner puts a
  // sensitive net last in its batch, so the batch-start registry is
  // position-exact for every batch member (no sensitive net precedes a
  // member inside its batch).
  auto sensitive = std::make_shared<const levelb::SensitiveRuns>();

  const util::NetSearchHistograms net_hists = util::net_search_histograms();
  util::Histogram& batch_hist = util::MetricsRegistry::global().histogram(
      "engine.batch_size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64});

  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const ShardBatch& batch = plan.batches[b];
    batch_hist.observe(batch.size());
    search.start_batch(&grid_, batch.begin, batch.end, sensitive);
    const int workers = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(threads),
                              batch.size()));
    if (workers > 1) {
      {
        // Materialize the gap cache's lazy memos so the parallel phase's
        // concurrent const reads never race on them. Entries stay valid
        // across commits (mutations patch in place), so this re-warms
        // only what the previous batch's commits touched — near O(tracks)
        // of predictable skips, not a grid copy.
        OCR_SPAN("engine.warm");
        grid_.warm_gap_cache();
      }
      for (int t = 0; t < workers; ++t) {
        pool.submit([&search] { search.run_worker(); });
      }
      // The barrier that makes batch commits single-writer: items() is
      // only read after the pool quiesces.
      pool.wait_idle();
    } else {
      // Singleton batches skip the pool round-trip (and the warm: a
      // single-threaded read may fill memos safely).
      search.run_worker();
    }

    std::vector<BatchSearch::Item>& items = search.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::size_t k = batch.begin + i;
      BatchSearch::Item& item = items[i];
      const BNet* net = nets_by_position[k];
      bool accepted = false;
      bool escaped = false;
      if (!item.routed) {
        ++stats_.worker_failures;
      } else if (OCR_FAULT("engine.committer.commit")) {
        ++stats_.fault_reroutes;
        stats_.sharded_wasted_vertices += item.stats.vertices_examined;
        stats_.sharded_wasted_search_us += item.search_us;
      } else {
        // Exact escape check: the batch result is the serial result iff
        // none of its reads touch wiring a same-batch predecessor
        // committed (the batch-start snapshot is missing exactly that
        // wiring, and commits are block-only). Predecessors are final
        // here — accepted ones are serial by induction, escaped ones
        // were re-routed serially — so this compares against the true
        // serial prefix. Disjoint declared regions make a hit rare; far
        // free-gap and blockage-distance reads make it possible.
        accepted = true;
        for (std::size_t j = batch.begin; accepted && j < k; ++j) {
          for (const Committed& c : net_committed[j]) {
            if (item.footprint.intersects(c.track, c.extent)) {
              accepted = false;
              break;
            }
          }
        }
        if (!accepted) {
          escaped = true;
          ++stats_.boundary_nets;
          stats_.sharded_wasted_vertices += item.stats.vertices_examined;
          stats_.sharded_wasted_search_us += item.search_us;
        }
      }

      if (accepted) {
        ++stats_.sharded_commits;
      } else {
        // Serial recovery directly on the live grid — which at position k
        // IS the serial prefix (order-convex batches, in-order commits),
        // so this is literally the serial router's step for net k: no
        // overlay, no log replay, no rollback.
        OCR_SPAN("engine.reroute");
        const std::vector<Point>& terminals =
            *terminals_by_position[k];
        for (const Point& p : terminals) {
          levelb::unblock_terminal(grid_, p);
        }
        item.committed.clear();
        item.stats = SearchStats{};
        item.footprint.clear();
        const auto start = std::chrono::steady_clock::now();
        item.result = levelb::route_single_net(
            grid_, options_.levelb,
            levelb::NetRouteRequest{net->id, &terminals,
                                    unrouted.suffix(k),
                                    sensitive.get()},
            item.committed, item.stats, nullptr, &workspace);
        item.search_us = micros_since(start);
        for (const Point& p : terminals) {
          levelb::block_terminal(grid_, p);
        }
      }

      results[k] = std::move(item.result);
      net_committed[k] = std::move(item.committed);
      stats.vertices_examined += item.stats.vertices_examined;
      stats.candidates += item.stats.candidates;
      stats.window_growths += item.stats.window_growths;

      // Rung 3 of the degradation ladder: an apply fault is unrecoverable
      // for this net — drop its wiring entirely (committing none of it
      // keeps flow::check clean) and mark it unrouted; a later rip-up
      // round may still rescue it.
      if (OCR_FAULT("engine.committer.apply")) {
        ++stats_.fault_drops;
        NetResult dropped;
        dropped.id = net->id;
        dropped.complete = false;
        dropped.outcome = util::StatusKind::kFaultInjected;
        dropped.failed_connections = std::max(
            0,
            static_cast<int>(terminals_by_position[k]->size()) - 1);
        results[k] = std::move(dropped);
        net_committed[k].clear();
      }

      net_hists.search_us.observe(item.search_us);
      net_hists.vertices.observe(item.stats.vertices_examined);
      {
        // Direct live-grid commit: gap-cache entries are patched in
        // place by each block, so the next batch's warm is incremental.
        OCR_SPAN("engine.commit");
        levelb::commit_extents(grid_, net_committed[k]);
      }
      if (net->sensitive && !net_committed[k].empty()) {
        auto next = std::make_shared<levelb::SensitiveRuns>(*sensitive);
        for (const Committed& c : net_committed[k]) {
          if (c.track.orient == geom::Orientation::kHorizontal) {
            next->add_h(c.track.index, c.extent);
          } else {
            next->add_v(c.track.index, c.extent);
          }
        }
        sensitive = std::move(next);
      }

      if (options_.levelb.trace != nullptr) {
        util::TraceEvent ev("net");
        ev.add("net", net->id)
            .add("order", static_cast<long long>(k))
            .add("mode", "sharded")
            .add("batch", static_cast<long long>(b))
            .add("batch_size", static_cast<long long>(batch.size()))
            .add("escaped", escaped)
            .add("complete", results[k].complete)
            .add("wire_length",
                 static_cast<long long>(results[k].wire_length))
            .add("corners", results[k].corners)
            .add("footprint_tracks",
                 static_cast<long long>(item.footprint.tracks()))
            .add("vertices_examined", item.stats.vertices_examined)
            .add("window_growths", item.stats.window_growths)
            .add("candidates", item.stats.candidates)
            .add("search_us", item.search_us);
        options_.levelb.trace->record(std::move(ev));
      }
    }
  }

  // Single-threaded epilogue on the live grid, same as the serial router.
  std::vector<std::vector<Point>> snapped_by_order(n);
  std::vector<BNet> nets_by_order(n);
  for (std::size_t k = 0; k < n; ++k) {
    snapped_by_order[k] = snapped[order[k]];
    nets_by_order[k] = nets[order[k]];
  }
  const int recovered = [&] {
    OCR_SPAN("engine.ripup");
    return levelb::run_ripup_rounds(
        grid_, options_.levelb, nets_by_order, snapped_by_order, results,
        net_committed, stats, &workspace);
  }();
  stats_.pool_task_failures =
      static_cast<long long>(pool.task_failures().size());
  workspace.publish_metrics();

  LevelBResult result = levelb::assemble_result(std::move(results), stats);
  result.ripup_recovered = recovered;
  return result;
}

}  // namespace ocr::engine
