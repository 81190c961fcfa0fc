#include "engine/parallel_search.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "levelb/workspace.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/profile.hpp"

namespace ocr::engine {

using geom::Point;

void SpeculationSlots::publish(std::size_t position, Speculation spec) {
  OCR_ASSERT(position < size_, "slot position out of range");
  Slot& slot = slots_[position];
  OCR_ASSERT(!slot.ready.load(std::memory_order_relaxed),
             "slot published twice");
  slot.spec = std::move(spec);
  slot.ready.store(true, std::memory_order_release);
  slot.ready.notify_all();
}

Speculation SpeculationSlots::take(std::size_t position) {
  OCR_ASSERT(position < size_, "slot position out of range");
  Slot& slot = slots_[position];
  slot.ready.wait(false, std::memory_order_acquire);
  return std::move(slot.spec);
}

Speculation SpeculationSlots::take(
    std::size_t position, const std::function<bool()>& abandoned) {
  OCR_ASSERT(position < size_, "slot position out of range");
  Slot& slot = slots_[position];
  // Fast path: spin briefly — in the steady state the worker is already
  // done or about to be.
  for (int spin = 0; spin < 256; ++spin) {
    if (slot.ready.load(std::memory_order_acquire)) {
      return std::move(slot.spec);
    }
    std::this_thread::yield();
  }
  // Slow path: sleep-poll so a dead worker (which will never set the
  // flag) cannot strand us, checking the abandonment predicate once per
  // sleep instead of per spin (it may take a lock).
  for (;;) {
    if (slot.ready.load(std::memory_order_acquire)) {
      return std::move(slot.spec);
    }
    if (abandoned()) {
      // Worker died before publishing; hand back a poisoned placeholder
      // so the committer recomputes this position on the live grid.
      Speculation spec;
      spec.poisoned = true;
      return spec;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

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
      // Same contract as a poisoned speculation: leave the item unrouted
      // for serial recovery and drop the possibly half-mutated overlay.
      item = Item{};
      overlay.rebase(base_);
    }
  }
}

void ParallelSearch::run_worker() {
  // The worker's view of the routing surface: the shared immutable
  // snapshot plus a private overlay. The overlay accumulates the
  // commit-log batches newer than the snapshot (so claims between
  // snapshot refreshes never copy the grid) and carries the terminal
  // braces around each search — which are unblocked before and re-blocked
  // after, a structural no-op on the interval sets, so the overlay stays
  // equal to "snapshot + replayed commits" across claims.
  tig::GridOverlay overlay;
  std::shared_ptr<const tig::GridSnapshot> base;
  std::uint64_t applied = 0;  // commit epochs [0, applied) are reflected
  // Per-worker scratch buffers, reused across every claim this worker
  // serves (workspaces never affect results).
  levelb::SearchWorkspace workspace;

  while (const auto claim = scheduler_.claim()) {
    const std::size_t k = claim->position;

    Speculation spec;
    spec.queue_wait_us = claim->queue_wait_us;

    // A degraded claim (injected scheduler fault) skips the search
    // entirely; the committer recovers the position serially.
    if (claim->degraded ||
        OCR_FAULT_KEY("engine.worker.route", nets_[k]->id)) {
      spec.poisoned = true;
      slots_.publish(k, std::move(spec));
      continue;
    }

    try {
      // Published epoch+sensitive first, snapshot second. The pair is
      // read atomically; the snapshot may then be NEWER than the
      // published epoch (a commit landed in between), in which case the
      // extra blocks it contains sit inside the validation gap
      // [pub.epoch, k) — the commit check re-examines them, so the worst
      // case is a conservative abort, never a wrong accept. A snapshot
      // OLDER than the published epoch is caught up from the commit log
      // below.
      const Committer::Published pub = committer_.published();
      {
        OCR_SPAN("engine.rebase");
        const std::shared_ptr<const tig::GridSnapshot> snap =
            grid_.snapshot();
        if (base != snap) {
          overlay.rebase(&snap->grid);
          base = snap;
          applied = snap->epoch;
        }
        // Replay commit batches [applied, pub.epoch) onto the overlay.
        // record_at is lock-free here: the committer published pub.epoch
        // only after appending every record below it. Batches are
        // block-only during the parallel phase, so replay interleaving
        // with this worker's own braces is immaterial (set union
        // commutes with re-adding a blocked crossing).
        const std::uint64_t target = std::max<std::uint64_t>(applied,
                                                             pub.epoch);
        while (applied < target) {
          const tig::CommitRecord* record = grid_.log().record_at(applied);
          if (record == nullptr) break;  // unreachable; fail conservative
          for (const tig::CommitOp& op : record->ops) {
            overlay.apply(op.track, op.span, op.block);
          }
          ++applied;
        }
      }
      // The epoch the validation gap starts from must not exceed what
      // the sensitive registry covers (pub.epoch) nor what the overlay
      // actually reflects (applied) — a sensitive or footprint-touching
      // batch between the two is then re-checked at commit time.
      spec.epoch = std::min<std::uint64_t>(applied, pub.epoch);

      const std::vector<Point>& terminals = *terminals_[k];
      for (const Point& p : terminals) {
        levelb::unblock_terminal(overlay, p);
      }

      const auto start = std::chrono::steady_clock::now();
      OCR_SPAN("engine.search");
      spec.result = levelb::route_single_net(
          overlay, options_,
          levelb::NetRouteRequest{nets_[k]->id, &terminals,
                                  unrouted_.suffix(k), pub.sensitive.get()},
          spec.committed, spec.stats, &spec.footprint, &workspace);
      spec.search_us =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count();

      for (const Point& p : terminals) {
        levelb::block_terminal(overlay, p);
      }
    } catch (...) {
      // Claim boundary: a throwing search must not strand its slot (the
      // committer blocks on it) or kill the worker. Poison the position
      // — the committer recomputes it serially — and drop the overlay
      // state, which may be half-mutated (the next claim rebases from a
      // fresh snapshot).
      spec = Speculation{};
      spec.queue_wait_us = claim->queue_wait_us;
      spec.poisoned = true;
      base.reset();
      applied = 0;
    }

    slots_.publish(k, std::move(spec));
  }
  workspace.publish_metrics();
}

}  // namespace ocr::engine
