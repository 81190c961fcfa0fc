#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "engine/committer.hpp"
#include "engine/parallel_search.hpp"
#include "engine/partition.hpp"
#include "engine/scheduler.hpp"
#include "geom/rect.hpp"
#include "levelb/router.hpp"
#include "levelb/workspace.hpp"
#include "tig/snapshot.hpp"
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

/// Folds the run's EngineStats into the global registry (`engine.*`
/// counters accumulate across route() calls in one process; the thread
/// count is a gauge). One call per route(), never in the hot loop.
void publish_engine_metrics(const EngineStats& s) {
  util::MetricsRegistry& reg = util::MetricsRegistry::global();
  reg.counter("engine.routes").add();
  reg.gauge("engine.threads").set(s.threads);
  reg.gauge("engine.lookahead_peak").set(s.lookahead_peak);
  reg.counter("engine.speculative_commits").add(s.speculative_commits);
  reg.counter("engine.speculation_aborts").add(s.speculation_aborts);
  reg.counter("engine.wasted_vertices").add(s.wasted_vertices);
  reg.counter("engine.wasted_search_us").add(s.wasted_search_us);
  reg.counter("engine.queue_wait_us").add(s.queue_wait_us);
  reg.counter("engine.grid_copies").add(s.grid_copies);
  // Sharded-dispatch counters: kept apart from the speculative ones so
  // wasted work stays attributable to a dispatch strategy.
  reg.counter("engine.batches").add(s.batches);
  reg.counter("engine.sharded_commits").add(s.sharded_commits);
  reg.counter("engine.boundary_nets").add(s.boundary_nets);
  reg.counter("engine.sharded_wasted_vertices")
      .add(s.sharded_wasted_vertices);
  reg.counter("engine.sharded_wasted_search_us")
      .add(s.sharded_wasted_search_us);
  reg.counter("engine.fault_reroutes").add(s.fault_reroutes);
  reg.counter("engine.fault_drops").add(s.fault_drops);
  reg.counter("engine.worker_failures").add(s.worker_failures);
  reg.counter("engine.pool_task_failures").add(s.pool_task_failures);
  reg.counter("engine.ripup_recovered").add(s.ripup_recovered);
}

util::Histogram& net_search_us_histogram() {
  return util::MetricsRegistry::global().histogram(
      "engine.net_search_us",
      {50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000});
}

/// Largest track pitch of the grid — the unit the shard halo and the
/// speculative conflict hints scale with.
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

const char* engine_mode_name(EngineMode mode) {
  switch (mode) {
    case EngineMode::kSpeculative: return "speculative";
    case EngineMode::kSharded: return "sharded";
    case EngineMode::kAuto: return "auto";
  }
  return "speculative";
}

bool parse_engine_mode(const std::string& name, EngineMode* mode) {
  if (name == "speculative") {
    *mode = EngineMode::kSpeculative;
  } else if (name == "sharded") {
    *mode = EngineMode::kSharded;
  } else if (name == "auto") {
    *mode = EngineMode::kAuto;
  } else {
    return false;
  }
  return true;
}

/// The parallel prologue, identical to the serial router's: the ordering,
/// the snapped terminal reservations, and the unrouted-suffix views fix
/// everything a net's search depends on besides grid occupancy. Built
/// exactly once per route() — terminal reservation mutates the grid, and
/// the shard plan must be derived from the same snapped terminals both
/// dispatch strategies will route.
struct RoutingEngine::Prepared {
  std::vector<std::size_t> order;
  std::vector<std::vector<Point>> snapped;
  std::vector<const BNet*> nets_by_position;
  std::vector<const std::vector<Point>*> terminals_by_position;
  std::optional<levelb::UnroutedSuffix> unrouted;
  ShardPlan plan;       ///< meaningful iff planned
  bool planned = false;
};

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
  if (threads <= 1) {
    levelb::LevelBRouter serial(grid_, options_.levelb);
    levelb::LevelBResult result = serial.route(nets);
    stats_.ripup_recovered = result.ripup_recovered;
    publish_engine_metrics(stats_);
    return result;
  }

  Prepared prep;
  prep.order = levelb::order_nets(nets, options_.levelb.ordering);
  prep.snapped = levelb::snap_and_reserve_terminals(grid_, nets);
  prep.unrouted.emplace(prep.snapped, prep.order,
                        levelb::unrouted_bucket_edge(grid_, options_.levelb));
  const std::size_t n = prep.order.size();
  prep.nets_by_position.resize(n);
  prep.terminals_by_position.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    prep.nets_by_position[k] = &nets[prep.order[k]];
    prep.terminals_by_position[k] = &prep.snapped[prep.order[k]];
  }

  bool sharded = options_.mode == EngineMode::kSharded;
  if (options_.mode != EngineMode::kSpeculative) {
    ShardPlanOptions popt;
    popt.pitch = grid_pitch(grid_);
    popt.halo_pitches = options_.shard_halo_pitches;
    prep.plan = build_shard_plan(prep.nets_by_position,
                                 prep.terminals_by_position, popt);
    prep.planned = true;
    if (options_.mode == EngineMode::kAuto) {
      const EngineAutoHint& hint = options_.auto_hint;
      if (hint.valid) {
        // Trust the measurement: repeat a sharded dispatch that stayed
        // clean, abandon a speculative one that thrashed.
        stats_.auto_source = "manifest";
        sharded = hint.measured_sharded
                      ? hint.escape_rate <= options_.auto_max_escape_rate
                      : hint.abort_rate >= options_.auto_min_abort_rate;
      } else {
        stats_.auto_source = "static";
        sharded = prep.plan.mean_batch() >= options_.auto_min_mean_batch;
      }
    }
  }

  LevelBResult result = sharded ? route_sharded(nets, prep, threads)
                                : route_parallel(nets, prep, threads);
  publish_engine_metrics(stats_);
  return result;
}

LevelBResult RoutingEngine::route_parallel(const std::vector<BNet>& nets,
                                           const Prepared& prep,
                                           int threads) {
  stats_.mode = "speculative";
  const std::size_t n = prep.order.size();
  const std::vector<const BNet*>& nets_by_position = prep.nets_by_position;
  const std::vector<const std::vector<Point>*>& terminals_by_position =
      prep.terminals_by_position;
  const levelb::UnroutedSuffix& unrouted = *prep.unrouted;

  // Snapshots refresh incrementally every few commits (workers bridge the
  // lag from the commit log through their overlays); the log reservation
  // makes record_at lock-free for the workers' replay reads.
  constexpr std::uint64_t kSnapshotRefreshInterval = 16;
  tig::VersionedGrid versioned(grid_, /*expected_commits=*/n,
                               kSnapshotRefreshInterval);
  Committer committer(versioned);
  const std::size_t lookahead =
      options_.lookahead > 0 ? static_cast<std::size_t>(options_.lookahead)
                             : static_cast<std::size_t>(threads);
  NetScheduler scheduler(n, lookahead,
                         options_.levelb.trace != nullptr);
  // Conflict hints: a position's terminal bounding box inflated by the
  // expected search halo (the first window-growth step). Overlapping
  // boxes of earlier uncommitted positions predict invalidation, so the
  // scheduler claims likely-independent nets first. Purely a performance
  // hint — the committer's validation decides correctness either way.
  {
    const geom::Coord halo =
        grid_pitch(grid_) *
        static_cast<geom::Coord>(
            std::max(1, options_.levelb.finder.window_margin * 4));
    std::vector<geom::Rect> bounds(n);
    for (std::size_t k = 0; k < n; ++k) {
      if (!terminals_by_position[k]->empty()) {
        bounds[k] =
            geom::bounding_box(*terminals_by_position[k]).inflated(halo);
      }
    }
    scheduler.set_conflict_hints(std::move(bounds));
    scheduler.set_max_lookahead(
        std::max(lookahead, static_cast<std::size_t>(threads) * 4));
  }
  SpeculationSlots slots(n);
  ParallelSearch search(versioned, committer, scheduler, slots,
                        options_.levelb, nets_by_position,
                        terminals_by_position, unrouted);

  // Workers must be torn down before anything they reference: the pool is
  // declared last, so its destructor joins them first.
  util::ThreadPool pool(threads, "engine.pool");
  for (int t = 0; t < threads; ++t) {
    pool.submit([&search] { search.run_worker(); });
  }

  // Committer loop: this thread is the engine's single writer.
  std::vector<NetResult> results(n);
  std::vector<std::vector<Committed>> net_committed(n);
  SearchStats stats;
  // Scratch for the serial-fallback re-routes and the rip-up epilogue.
  levelb::SearchWorkspace workspace;
  // The fallback re-routes run on the committer's own overlay over the
  // published snapshot — caught up from the commit log to the exact live
  // epoch (== k, one batch per position) — instead of deep-copying the
  // grid per abort.
  tig::GridOverlay exact;
  std::shared_ptr<const tig::GridSnapshot> exact_base;
  std::uint64_t exact_applied = 0;
  util::Histogram& search_us_hist = net_search_us_histogram();
  for (std::size_t k = 0; k < n; ++k) {
    Speculation spec = [&] {
      OCR_SPAN("engine.claim");
      return slots.take(k, [&pool] { return !pool.first_failure().ok(); });
    }();
    stats_.queue_wait_us += spec.queue_wait_us;

    // Degradation ladder, rung 1: anything that invalidates the
    // speculation — a racing commit, a poisoned worker, or an injected
    // committer fault — falls back to a serial re-route on the live
    // state. The live grid at epoch k is exactly the serial grid after k
    // commits, so the accepted result is always the serial one.
    bool accepted = false;
    if (spec.poisoned) {
      ++stats_.worker_failures;
    } else if (OCR_FAULT("engine.committer.commit")) {
      ++stats_.fault_reroutes;
      stats_.wasted_vertices += spec.stats.vertices_examined;
      stats_.wasted_search_us += spec.search_us;
    } else {
      accepted = committer.validate(spec.epoch, k, spec.footprint);
      if (!accepted) {
        ++stats_.speculation_aborts;
        stats_.wasted_vertices += spec.stats.vertices_examined;
        stats_.wasted_search_us += spec.search_us;
      }
    }
    if (accepted) {
      ++stats_.speculative_commits;
    } else {
      OCR_SPAN("engine.reroute");
      const std::shared_ptr<const tig::GridSnapshot> snap =
          versioned.snapshot();
      if (exact_base != snap) {
        exact.rebase(&snap->grid);
        exact_base = snap;
        exact_applied = snap->epoch;
      }
      // This thread is the writer: the log holds exactly epochs [0, k).
      while (exact_applied < k) {
        const tig::CommitRecord* record =
            versioned.log().record_at(exact_applied);
        for (const tig::CommitOp& op : record->ops) {
          exact.apply(op);
        }
        ++exact_applied;
      }
      const std::vector<Point>& terminals = *terminals_by_position[k];
      for (const Point& p : terminals) levelb::unblock_terminal(exact, p);
      const long long queue_wait_us = spec.queue_wait_us;
      spec = Speculation{};
      spec.queue_wait_us = queue_wait_us;
      spec.epoch = k;
      const auto start = std::chrono::steady_clock::now();
      spec.result = levelb::route_single_net(
          exact, options_.levelb,
          levelb::NetRouteRequest{nets_by_position[k]->id, &terminals,
                                  unrouted.suffix(k),
                                  committer.sensitive_snapshot().get()},
          spec.committed, spec.stats, nullptr, &workspace);
      spec.search_us = micros_since(start);
      for (const Point& p : terminals) levelb::block_terminal(exact, p);
    }

    results[k] = std::move(spec.result);
    net_committed[k] = std::move(spec.committed);
    stats.vertices_examined += spec.stats.vertices_examined;
    stats.candidates += spec.stats.candidates;
    stats.window_growths += spec.stats.window_growths;

    // Rung 3: an apply fault is unrecoverable for this net — drop its
    // wiring entirely (committing none of it keeps flow::check clean)
    // and mark it unrouted; a later rip-up round may still rescue it.
    if (OCR_FAULT("engine.committer.apply")) {
      ++stats_.fault_drops;
      NetResult dropped;
      dropped.id = nets_by_position[k]->id;
      dropped.complete = false;
      dropped.outcome = util::StatusKind::kFaultInjected;
      dropped.failed_connections = std::max(
          0, static_cast<int>(terminals_by_position[k]->size()) - 1);
      results[k] = std::move(dropped);
      net_committed[k].clear();
    }

    search_us_hist.observe(spec.search_us);
    {
      OCR_SPAN("engine.commit");
      committer.commit(net_committed[k], nets_by_position[k]->sensitive);
    }
    scheduler.on_committed(k + 1, accepted);

    if (options_.levelb.trace != nullptr) {
      util::TraceEvent ev("net");
      ev.add("net", nets_by_position[k]->id)
          .add("order", static_cast<long long>(k))
          .add("mode", "engine")
          .add("epoch", static_cast<long long>(spec.epoch))
          .add("speculative", accepted)
          .add("retries", accepted ? 0 : 1)
          .add("complete", results[k].complete)
          .add("wire_length",
               static_cast<long long>(results[k].wire_length))
          .add("corners", results[k].corners)
          .add("footprint_tracks",
               static_cast<long long>(spec.footprint.tracks()))
          .add("vertices_examined", spec.stats.vertices_examined)
          .add("window_growths", spec.stats.window_growths)
          .add("candidates", spec.stats.candidates)
          .add("search_us", spec.search_us)
          .add("queue_wait_us", spec.queue_wait_us);
      options_.levelb.trace->record(std::move(ev));
    }
  }

  // All positions committed: claim() now drains, workers exit.
  pool.wait_idle();

  stats_.grid_copies = static_cast<long long>(versioned.snapshot_copies());
  stats_.lookahead_peak = static_cast<int>(scheduler.peak_lookahead());

  if (options_.levelb.trace != nullptr) {
    // Run-level totals: where the parallel phase's effort went. Wasted
    // time/vertices are the discarded speculative searches (aborted,
    // fault-rerouted); queue wait is the summed claim blocking.
    util::TraceEvent ev("engine");
    ev.add("threads", stats_.threads)
        .add("engine_mode", stats_.mode)
        .add("speculative_commits", stats_.speculative_commits)
        .add("speculation_aborts", stats_.speculation_aborts)
        .add("worker_failures", stats_.worker_failures)
        .add("wasted_vertices", stats_.wasted_vertices)
        .add("wasted_search_us", stats_.wasted_search_us)
        .add("queue_wait_us", stats_.queue_wait_us)
        .add("grid_copies", stats_.grid_copies)
        .add("lookahead_peak", stats_.lookahead_peak);
    options_.levelb.trace->record(std::move(ev));
  }

  // Single-threaded epilogue on the live grid, same as the serial router.
  std::vector<std::vector<Point>> snapped_by_order(n);
  std::vector<BNet> nets_by_order(n);
  for (std::size_t k = 0; k < n; ++k) {
    snapped_by_order[k] = prep.snapped[prep.order[k]];
    nets_by_order[k] = nets[prep.order[k]];
  }
  const int recovered = [&] {
    OCR_SPAN("engine.ripup");
    return levelb::run_ripup_rounds(
        versioned.exclusive_grid(), options_.levelb, nets_by_order,
        snapped_by_order, results, net_committed, stats, &workspace);
  }();
  stats_.ripup_recovered = recovered;
  stats_.pool_task_failures =
      static_cast<long long>(pool.task_failures().size());
  workspace.publish_metrics();

  LevelBResult result = levelb::assemble_result(std::move(results), stats);
  result.ripup_recovered = recovered;
  return result;
}

LevelBResult RoutingEngine::route_sharded(const std::vector<BNet>& nets,
                                          const Prepared& prep,
                                          int threads) {
  stats_.mode = "sharded";
  const std::size_t n = prep.order.size();
  const ShardPlan& plan = prep.plan;
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
  BatchSearch search(options_.levelb, prep.nets_by_position,
                     prep.terminals_by_position, *prep.unrouted);
  util::ThreadPool pool(threads, "engine.pool");

  std::vector<NetResult> results(n);
  std::vector<std::vector<Committed>> net_committed(n);
  SearchStats stats;
  levelb::SearchWorkspace workspace;
  // Committed sensitive wiring, copy-on-write like the speculative
  // committer's registry. The shard planner puts a sensitive net last in
  // its batch, so the batch-start registry is position-exact for every
  // batch member (no sensitive net precedes a member inside its batch).
  auto sensitive = std::make_shared<const levelb::SensitiveRuns>();

  util::Histogram& search_us_hist = net_search_us_histogram();
  util::Histogram& batch_hist = util::MetricsRegistry::global().histogram(
      "engine.batch_size", {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64});

  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    const ShardBatch& batch = plan.batches[b];
    batch_hist.observe(static_cast<double>(batch.size()));
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
      const BNet* net = prep.nets_by_position[k];
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
            *prep.terminals_by_position[k];
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
                                    prep.unrouted->suffix(k),
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

      // Rung 3 of the degradation ladder, same as the speculative path:
      // an apply fault drops the net's wiring and marks it unrouted.
      if (OCR_FAULT("engine.committer.apply")) {
        ++stats_.fault_drops;
        NetResult dropped;
        dropped.id = net->id;
        dropped.complete = false;
        dropped.outcome = util::StatusKind::kFaultInjected;
        dropped.failed_connections = std::max(
            0,
            static_cast<int>(prep.terminals_by_position[k]->size()) - 1);
        results[k] = std::move(dropped);
        net_committed[k].clear();
      }

      search_us_hist.observe(static_cast<double>(item.search_us));
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
            .add("speculative", accepted)
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
            .add("search_us", item.search_us)
            .add("queue_wait_us", 0LL);
        options_.levelb.trace->record(std::move(ev));
      }
    }
  }

  // The sharded path's headline: the grid is never copied, at any thread
  // count — workers share the live grid between commit phases.
  stats_.grid_copies = 0;

  if (options_.levelb.trace != nullptr) {
    util::TraceEvent ev("engine");
    ev.add("threads", stats_.threads)
        .add("engine_mode", stats_.mode)
        .add("batches", stats_.batches)
        .add("max_batch_size", stats_.max_batch_size)
        .add("sharded_commits", stats_.sharded_commits)
        .add("boundary_nets", stats_.boundary_nets)
        .add("worker_failures", stats_.worker_failures)
        .add("sharded_wasted_vertices", stats_.sharded_wasted_vertices)
        .add("sharded_wasted_search_us", stats_.sharded_wasted_search_us)
        .add("wasted_vertices", stats_.wasted_vertices)
        .add("wasted_search_us", stats_.wasted_search_us)
        .add("queue_wait_us", stats_.queue_wait_us)
        .add("grid_copies", stats_.grid_copies)
        .add("lookahead_peak", stats_.lookahead_peak);
    options_.levelb.trace->record(std::move(ev));
  }

  // Single-threaded epilogue on the live grid, same as the serial router.
  std::vector<std::vector<Point>> snapped_by_order(n);
  std::vector<BNet> nets_by_order(n);
  for (std::size_t k = 0; k < n; ++k) {
    snapped_by_order[k] = prep.snapped[prep.order[k]];
    nets_by_order[k] = nets[prep.order[k]];
  }
  const int recovered = [&] {
    OCR_SPAN("engine.ripup");
    return levelb::run_ripup_rounds(
        grid_, options_.levelb, nets_by_order, snapped_by_order, results,
        net_committed, stats, &workspace);
  }();
  stats_.ripup_recovered = recovered;
  stats_.pool_task_failures =
      static_cast<long long>(pool.task_failures().size());
  workspace.publish_metrics();

  LevelBResult result = levelb::assemble_result(std::move(results), stats);
  result.ripup_recovered = recovered;
  return result;
}

}  // namespace ocr::engine
