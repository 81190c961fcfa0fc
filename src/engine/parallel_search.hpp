#pragma once
/// \file parallel_search.hpp
/// \brief The engine's reader side: worker threads that route one shard
/// batch of nets against the batch-start grid, for the engine thread to
/// check and commit in position order.

#include <atomic>
#include <memory>
#include <vector>

#include "levelb/net_core.hpp"
#include "tig/overlay.hpp"

namespace ocr::engine {

/// The engine's worker loop (engine.cpp route_sharded): one batch of
/// consecutive ordering positions with disjoint declared regions, routed
/// in parallel against the shared batch-start grid — no snapshots, no
/// commit log, no epochs. The base is the engine's LIVE grid: batches
/// phase-separate reads from writes (the committer only commits after
/// every worker finished), so sharing it costs zero grid copies.
/// The committer must warm_gap_cache() before each multi-worker batch so
/// concurrent base reads are pure (see GapCache's thread contract).
/// Workers pull positions from an atomic cursor; the committer harvests
/// items() after the pool quiesces (wait_idle is the synchronization
/// point) and commits them in position order.
class BatchSearch {
 public:
  /// One batch position's routing result.
  struct Item {
    levelb::NetResult result;
    std::vector<levelb::Committed> committed;
    /// Exact read set of the search — what the committer checks against
    /// same-batch predecessors' wiring to catch region escapes.
    levelb::SearchFootprint footprint;
    levelb::SearchStats stats;
    long long search_us = 0;
    /// False until a worker completes the search: a position left
    /// unrouted (injected fault, thrown search, dead worker task) is
    /// recovered serially by the committer.
    bool routed = false;
  };

  BatchSearch(const levelb::LevelBOptions& options,
              const std::vector<const levelb::BNet*>& nets_by_position,
              const std::vector<const std::vector<geom::Point>*>&
                  terminals_by_position,
              const levelb::UnroutedSuffix& unrouted)
      : options_(options), nets_(nets_by_position),
        terminals_(terminals_by_position), unrouted_(unrouted) {}

  /// Arms positions [begin, end) against \p base (the live grid at the
  /// batch-start state — exactly the serial prefix [0, begin)) with the
  /// batch-start sensitive registry. \p base must not be mutated and its
  /// gap cache must be warm while workers run. Single-threaded; call
  /// before submitting workers.
  void start_batch(const tig::TrackGrid* base, std::size_t begin,
                   std::size_t end,
                   std::shared_ptr<const levelb::SensitiveRuns> sensitive);

  /// Claims and routes batch positions until the cursor drains. Safe from
  /// any number of threads; also callable inline on the committer thread
  /// for singleton batches.
  void run_worker();

  /// Items of the current batch, indexed by position - begin. Only valid
  /// after every worker finished (pool quiescence).
  std::vector<Item>& items() { return items_; }

 private:
  const levelb::LevelBOptions& options_;
  const std::vector<const levelb::BNet*>& nets_;
  const std::vector<const std::vector<geom::Point>*>& terminals_;
  const levelb::UnroutedSuffix& unrouted_;

  const tig::TrackGrid* base_ = nullptr;
  std::shared_ptr<const levelb::SensitiveRuns> sensitive_;
  std::size_t begin_ = 0;
  std::vector<Item> items_;
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace ocr::engine
