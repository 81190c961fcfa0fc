#include "engine/parallel_search.hpp"

#include <chrono>
#include <utility>

#include "levelb/workspace.hpp"
#include "util/fault.hpp"
#include "util/profile.hpp"

namespace ocr::engine {

using geom::Point;

void BatchSearch::start_batch(
    const tig::TrackGrid* base, std::size_t begin, std::size_t end,
    std::shared_ptr<const levelb::SensitiveRuns> sensitive) {
  base_ = base;
  sensitive_ = std::move(sensitive);
  begin_ = begin;
  items_.clear();
  items_.resize(end - begin);
  cursor_.store(0, std::memory_order_relaxed);
}

void BatchSearch::run_worker() {
  // No rebase, no log replay: the batch-start grid is exact, and the
  // planner guarantees same-batch nets cannot influence each other's
  // reads (escapes are caught by the committer's footprint check). The
  // overlay only carries this worker's terminal braces.
  tig::GridOverlay overlay(base_);
  levelb::SearchWorkspace workspace;
  for (;;) {
    const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= items_.size()) {
      workspace.publish_metrics();
      return;
    }
    const std::size_t k = begin_ + i;
    Item& item = items_[i];
    if (OCR_FAULT_KEY("engine.worker.route", nets_[k]->id)) continue;
    try {
      const std::vector<Point>& terminals = *terminals_[k];
      for (const Point& p : terminals) {
        levelb::unblock_terminal(overlay, p);
      }
      const auto start = std::chrono::steady_clock::now();
      {
        OCR_SPAN("engine.search");
        item.result = levelb::route_single_net(
            overlay, options_,
            levelb::NetRouteRequest{nets_[k]->id, &terminals,
                                    unrouted_.suffix(k), sensitive_.get()},
            item.committed, item.stats, &item.footprint, &workspace);
      }
      item.search_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      for (const Point& p : terminals) {
        levelb::block_terminal(overlay, p);
      }
      item.routed = true;
    } catch (...) {
      // Leave the item unrouted for serial recovery and drop the possibly
      // half-mutated overlay.
      item = Item{};
      overlay.rebase(base_);
    }
  }
}

}  // namespace ocr::engine
