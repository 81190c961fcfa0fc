#include "levelb/net_core.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "geom/rect.hpp"
#include "levelb/workspace.hpp"
#include "util/assert.hpp"
#include "util/fault.hpp"
#include "util/log.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;

/// A routed leg of the current net, used for closest-point attachment.
struct GeomLeg {
  tig::TrackRef track;
  Coord fixed = 0;      ///< the track's coordinate (y for H, x for V)
  Interval extent;      ///< varying-coordinate extent
};

Coord leg_distance(const GeomLeg& leg, const Point& p) {
  const Orientation o = leg.track.orient;
  const Coord at = std::clamp(geom::along(p, o), leg.extent.lo, leg.extent.hi);
  return geom::manhattan(p, geom::on_track(o, at, leg.fixed));
}

/// Closest grid crossing on \p leg to \p p. Legs start and end at
/// crossings, so a valid crossing always exists within the extent.
Point leg_closest_crossing(const tig::GridView& grid, const GeomLeg& leg,
                           const Point& p) {
  const Orientation o = leg.track.orient;
  const Coord v = geom::along(p, o);
  const Coord clamped = std::clamp(v, leg.extent.lo, leg.extent.hi);
  const Orientation perp = geom::perpendicular(o);
  Coord at = grid.coords(perp)[static_cast<std::size_t>(
      grid.nearest(perp, clamped))];
  if (!leg.extent.contains(at)) {
    // Snapped off the leg (short leg): fall back to the nearer endpoint.
    at = (std::abs(v - leg.extent.lo) <= std::abs(v - leg.extent.hi))
             ? leg.extent.lo
             : leg.extent.hi;
  }
  return geom::on_track(o, at, leg.fixed);
}

/// Bucket edge for an unrouted index built without one: about sqrt(n)
/// buckets along the larger side of the points' bounding box.
Coord spread_bucket_edge(const std::vector<Point>& points) {
  if (points.empty()) return 1;
  const geom::Rect box = geom::bounding_box(points);
  const auto side = static_cast<double>(std::max(box.width(), box.height()));
  const double buckets =
      std::ceil(std::sqrt(static_cast<double>(points.size())));
  return std::max<Coord>(1, static_cast<Coord>(side / buckets));
}

void block_terminals(tig::TrackGrid& grid, const std::vector<Point>& pts) {
  for (const Point& p : pts) block_terminal(grid, p);
}

void unblock_terminals(tig::TrackGrid& grid, const std::vector<Point>& pts) {
  for (const Point& p : pts) unblock_terminal(grid, p);
}

/// One rip-up round over the failed nets; returns the number of failed
/// nets it completed. See LevelBOptions::ripup_rounds.
int ripup_round(tig::TrackGrid& grid, const LevelBOptions& options,
                const std::vector<BNet>& nets,
                const std::vector<std::vector<Point>>& snapped,
                std::vector<NetResult>& results,
                std::vector<std::vector<Committed>>& committed,
                SearchStats& stats, SearchWorkspace* workspace) {
  int recovered = 0;
  for (std::size_t f = 0; f < results.size(); ++f) {
    if (results[f].complete || snapped[f].size() < 2) continue;
    if (options.finder.cancel.cancelled()) break;
    const geom::Rect window =
        geom::bounding_box(snapped[f]).inflated(8 * 10);

    // Victim candidates: complete nets with wiring inside the failed
    // net's window, cheapest wiring first.
    std::vector<std::size_t> victims;
    for (std::size_t v = 0; v < results.size(); ++v) {
      if (v == f || !results[v].complete || committed[v].empty()) continue;
      if (nets[v].sensitive) continue;  // never rip up sensitive wiring
      bool overlaps_window = false;
      for (const Committed& c : committed[v]) {
        const Orientation o = c.track.orient;
        const Coord at =
            grid.coords(o)[static_cast<std::size_t>(c.track.index)];
        if (geom::Rect::from_corners(geom::on_track(o, c.extent.lo, at),
                                     geom::on_track(o, c.extent.hi, at))
                .overlaps(window)) {
          overlaps_window = true;
          break;
        }
      }
      if (overlaps_window) victims.push_back(v);
    }
    std::stable_sort(victims.begin(), victims.end(),
                     [&results](std::size_t a, std::size_t b) {
                       return results[a].wire_length <
                              results[b].wire_length;
                     });

    constexpr std::size_t kMaxVictims = 4;
    for (std::size_t vi = 0;
         vi < victims.size() && vi < kMaxVictims && !results[f].complete;
         ++vi) {
      const std::size_t v = victims[vi];
      // Rip up the victim and the failed net's stale partial wiring, then
      // retry the failed net. The victim's terminal via sites stay
      // reserved so the retry cannot bury them.
      uncommit_extents(grid, committed[v]);
      uncommit_extents(grid, committed[f]);
      block_terminals(grid, snapped[v]);
      unblock_terminals(grid, snapped[f]);
      std::vector<Committed> f_new;
      NetResult f_result = route_single_net(
          grid, options,
          NetRouteRequest{nets[f].id, &snapped[f], {}, nullptr},
          f_new, stats, nullptr, workspace);
      block_terminals(grid, snapped[f]);

      if (!f_result.complete) {
        // No help; restore both untouched.
        commit_extents(grid, committed[f]);
        commit_extents(grid, committed[v]);
        continue;
      }
      commit_extents(grid, f_new);
      // Reroute the victim around the new wiring.
      unblock_terminals(grid, snapped[v]);
      std::vector<Committed> v_new;
      NetResult v_result = route_single_net(
          grid, options,
          NetRouteRequest{nets[v].id, &snapped[v], {}, nullptr},
          v_new, stats, nullptr, workspace);
      block_terminals(grid, snapped[v]);
      if (v_result.complete) {
        commit_extents(grid, v_new);
        committed[f] = std::move(f_new);
        committed[v] = std::move(v_new);
        results[f] = std::move(f_result);
        results[v] = std::move(v_result);
        ++recovered;
      } else {
        // Swap failed: undo everything, restore both nets' old wiring.
        uncommit_extents(grid, f_new);
        commit_extents(grid, committed[f]);
        commit_extents(grid, committed[v]);
      }
    }
  }
  return recovered;
}

}  // namespace

Coord net_extent(const BNet& net) {
  if (net.terminals.empty()) return 0;
  const geom::Rect box = geom::bounding_box(net.terminals);
  return box.width() + box.height();
}

std::vector<std::size_t> order_nets(const std::vector<BNet>& nets,
                                    NetOrdering ordering) {
  std::vector<std::size_t> order(nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (ordering == NetOrdering::kAsGiven) return order;
  // One bounding box per net, not two per comparison.
  std::vector<Coord> extent(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) extent[i] = net_extent(nets[i]);
  const bool longest = ordering == NetOrdering::kLongestFirst;
  std::stable_sort(order.begin(), order.end(),
                   [&extent, longest](std::size_t a, std::size_t b) {
                     return longest ? extent[a] > extent[b]
                                    : extent[a] < extent[b];
                   });
  return order;
}

std::vector<std::vector<Point>> snap_and_reserve_terminals(
    tig::TrackGrid& grid, const std::vector<BNet>& nets) {
  // Snap every terminal to a grid crossing, collision-aware: the routing
  // grid is coarser than the pin pitch (metal3/4 rules), so distinct
  // terminals of *different* nets can land on the same crossing. Probe the
  // neighbouring crossings for a free one before accepting a collision.
  // crossing (packed track indices) -> net; only ever looked up, so the
  // hash's iteration order cannot leak into the result.
  std::unordered_map<std::uint64_t, std::size_t> taken;
  const auto crossing_key = [](int i, int j) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(i)) << 32 |
           static_cast<std::uint32_t>(j);
  };
  std::size_t terminal_count = 0;
  for (const BNet& net : nets) terminal_count += net.terminals.size();
  taken.reserve(terminal_count);
  std::vector<std::vector<Point>> snapped(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    for (const Point& t : nets[i].terminals) {
      const int ci = grid.nearest(Orientation::kHorizontal, t.y);
      const int cj = grid.nearest(Orientation::kVertical, t.x);
      // Nearest crossing in the 3x3 neighbourhood not taken by a
      // *different* net; fall back to the nearest crossing when the whole
      // neighbourhood is contested.
      Point chosen = grid.crossing(ci, cj);
      std::uint64_t chosen_key = crossing_key(ci, cj);
      Coord chosen_dist = std::numeric_limits<Coord>::max();
      for (int di = -1; di <= 1; ++di) {
        for (int dj = -1; dj <= 1; ++dj) {
          const int ni = ci + di;
          const int nj = cj + dj;
          if (ni < 0 || ni >= grid.num_h() || nj < 0 ||
              nj >= grid.num_v()) {
            continue;
          }
          const Point p = grid.crossing(ni, nj);
          const std::uint64_t key = crossing_key(ni, nj);
          const auto it = taken.find(key);
          if (it != taken.end() && it->second != i) continue;
          // Crossings already blocked in the grid (obstacles, or via sites
          // committed by a previous route() call) are not usable either.
          if (it == taken.end() && !grid.crossing_free(ni, nj)) continue;
          const Coord d = geom::manhattan(p, t);
          if (d < chosen_dist) {
            chosen = p;
            chosen_key = key;
            chosen_dist = d;
          }
        }
      }
      taken.emplace(chosen_key, i);
      snapped[i].push_back(chosen);
    }
  }

  // Reserve every terminal crossing up front: terminals are the only legal
  // inter-layer connection sites (§2), so no net may wire across another
  // net's future via site. Each net's own terminals are released while it
  // routes and restored afterwards.
  for (const auto& pts : snapped) {
    for (const Point& p : pts) block_terminal(grid, p);
  }
  return snapped;
}

namespace {
/// Blocks (or unblocks) \p p's crossing on both of its tracks in
/// \p target, a grid or an overlay; \p grid resolves the tracks.
template <typename Target>
void set_terminal(Target& target, const tig::TrackGrid& grid, const Point& p,
                  bool blocked) {
  for (const tig::TrackRef& t : grid.tracks_at(p)) {
    const Coord at = geom::along(p, t.orient);
    if (blocked) {
      target.block(t, Interval(at, at));
    } else {
      target.unblock(t, Interval(at, at));
    }
  }
}
}  // namespace

void block_terminal(tig::TrackGrid& grid, const Point& p) {
  set_terminal(grid, grid, p, true);
}

void unblock_terminal(tig::TrackGrid& grid, const Point& p) {
  set_terminal(grid, grid, p, false);
}

void block_terminal(tig::GridOverlay& overlay, const Point& p) {
  set_terminal(overlay, overlay.base(), p, true);
}

void unblock_terminal(tig::GridOverlay& overlay, const Point& p) {
  set_terminal(overlay, overlay.base(), p, false);
}

void commit_extents(tig::TrackGrid& grid,
                    const std::vector<Committed>& extents) {
  for (const Committed& c : extents) grid.block(c.track, c.extent);
}

void uncommit_extents(tig::TrackGrid& grid,
                      const std::vector<Committed>& extents) {
  for (const Committed& c : extents) grid.unblock(c.track, c.extent);
}

NetResult route_single_net(tig::GridView grid,
                           const LevelBOptions& options,
                           const NetRouteRequest& request,
                           std::vector<Committed>& committed,
                           SearchStats& stats,
                           SearchFootprint* footprint,
                           SearchWorkspace* workspace) {
  SearchWorkspace local_ws;  // empty until a search actually runs
  SearchWorkspace& ws = workspace != nullptr ? *workspace : local_ws;

  NetResult result;
  result.id = request.net_id;

  // Drop duplicate terminals (coincident after snapping).
  std::vector<Point> terminals;
  for (const Point& snapped : *request.terminals) {
    if (std::find(terminals.begin(), terminals.end(), snapped) ==
        terminals.end()) {
      terminals.push_back(snapped);
    }
  }
  if (terminals.size() < 2) {
    result.complete = true;
    return result;
  }

  // Test-harness fault: fail every connection of a targeted net. Keyed by
  // net id so it fires identically in batch, serial-recompute and
  // rip-up routing of the same net at any thread count.
  if (OCR_FAULT_KEY("levelb.connect", request.net_id)) {
    result.complete = false;
    result.outcome = util::StatusKind::kFaultInjected;
    result.failed_connections = static_cast<int>(terminals.size()) - 1;
    return result;
  }

  PathFinder finder(grid, options.finder);
  long long net_vertices = 0;  // spent against net_vertex_budget

  std::vector<bool> attached(terminals.size(), false);
  attached[0] = true;
  std::vector<GeomLeg> legs;        // routed geometry of this net
  std::vector<Point> anchor{terminals[0]};  // attached terminal points
  std::size_t remaining = terminals.size() - 1;
  bool aborted = false;  // cancel or budget: stop routing this net

  while (remaining > 0 && !aborted) {
    if (options.finder.cancel.cancelled()) {
      result.outcome = util::StatusKind::kCancelled;
      break;
    }
    if (options.net_vertex_budget > 0 &&
        net_vertices >= options.net_vertex_budget) {
      result.outcome = util::StatusKind::kBudgetExhausted;
      break;
    }
    // Modified Prim (§3.3): the next terminal is the unattached one
    // closest to the net's routed geometry (terminals or Steiner points).
    std::size_t pick = terminals.size();
    Coord pick_dist = std::numeric_limits<Coord>::max();
    for (std::size_t t = 0; t < terminals.size(); ++t) {
      if (attached[t]) continue;
      Coord d = std::numeric_limits<Coord>::max();
      for (const Point& p : anchor) {
        d = std::min(d, geom::manhattan(terminals[t], p));
      }
      for (const GeomLeg& leg : legs) {
        d = std::min(d, leg_distance(leg, terminals[t]));
      }
      if (d < pick_dist) {
        pick_dist = d;
        pick = t;
      }
    }
    OCR_ASSERT(pick < terminals.size(), "no unattached terminal found");
    const Point source = terminals[pick];

    // Attachment targets, nearest first: closest crossing on each routed
    // leg, then attached terminals.
    std::vector<Point>& targets = ws.targets;
    targets.clear();
    for (const GeomLeg& leg : legs) {
      targets.push_back(leg_closest_crossing(grid, leg, source));
    }
    for (const Point& p : anchor) targets.push_back(p);
    std::stable_sort(targets.begin(), targets.end(),
                     [&source](const Point& a, const Point& b) {
                       return geom::manhattan(source, a) <
                              geom::manhattan(source, b);
                     });
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());

    // The dup cost term sees other nets' unrouted terminals plus this
    // net's still-unattached ones.
    std::vector<Point>& own = ws.own_terminals;
    own.clear();
    for (std::size_t t = 0; t < terminals.size(); ++t) {
      if (!attached[t] && t != pick) own.push_back(terminals[t]);
    }
    CostContext ctx = make_cost_context(grid, &own, options.dup_radius_pitches,
                                        options.acf_window_pitches);
    ctx.unrouted = request.unrouted;
    ctx.sensitive = request.sensitive;
    ctx.footprint = footprint;
    ctx.workspace = &ws;

    bool connected = false;
    for (const Point& target : targets) {
      // Cap this connect at the net's remaining budget. Remaining budget
      // is a pure function of the expansions so far, so the stop point is
      // the same at any thread count.
      const PathFinder::Result found = finder.connect(
          source, target, ctx, ws,
          options.net_vertex_budget > 0
              ? options.net_vertex_budget - net_vertices
              : 0);
      stats += found.stats;
      net_vertices += found.stats.vertices_examined;
      if (found.cancelled) {
        result.outcome = util::StatusKind::kCancelled;
        aborted = true;
        break;
      }
      if (found.budget_exhausted) {
        result.outcome = util::StatusKind::kBudgetExhausted;
        aborted = true;
        break;
      }
      if (!found.found) continue;
      connected = true;
      if (!found.path.empty()) {
        for (std::size_t leg = 0; leg + 1 < found.path.points.size();
             ++leg) {
          const Point& p = found.path.points[leg];
          const Point& q = found.path.points[leg + 1];
          const tig::TrackRef& track = found.path.tracks[leg];
          legs.push_back(GeomLeg{track, geom::across(p, track.orient),
                                 geom::leg_extent(p, q, track.orient)});
        }
        result.wire_length += found.path.length();
        result.corners += found.path.corners();
        result.paths.push_back(found.path);
      }
      break;
    }
    if (!connected) {
      ++result.failed_connections;
      if (util::log_level() <= util::LogLevel::kDebug) {
        std::ostringstream diag;
        diag << "level B: net " << request.net_id << " failed at ("
             << source.x << "," << source.y
             << ") targets=" << targets.size();
        for (const tig::TrackRef& t : grid.tracks_at(source)) {
          const auto gap =
              grid.free_segment(t, geom::along(source, t.orient));
          diag << ' ' << geom::orientation_tag(t.orient) << "gap=";
          if (gap) {
            diag << "[" << gap->lo << "," << gap->hi << "]";
          } else {
            diag << "none";
          }
        }
        if (!targets.empty()) {
          diag << " t0=(" << targets[0].x << "," << targets[0].y << ")";
        }
        OCR_DEBUG() << diag.str();
      }
    } else {
      // Only successfully attached terminals join the tree; a failed
      // terminal must not become an (electrically floating) target.
      anchor.push_back(source);
    }
    attached[pick] = true;  // do not retry; count the failure
    --remaining;
  }

  // Connections never attempted (cancel/budget stop) count as failed.
  result.failed_connections += static_cast<int>(remaining);
  result.complete = result.failed_connections == 0;
  if (!result.complete && result.outcome == util::StatusKind::kOk) {
    result.outcome = util::StatusKind::kUnroutable;
  }
  for (const GeomLeg& leg : legs) {
    committed.push_back(Committed{leg.track, leg.extent});
  }
  return result;
}

int run_ripup_rounds(tig::TrackGrid& grid, const LevelBOptions& options,
                     const std::vector<BNet>& nets_in_order,
                     const std::vector<std::vector<Point>>& snapped,
                     std::vector<NetResult>& results,
                     std::vector<std::vector<Committed>>& committed,
                     SearchStats& stats, SearchWorkspace* workspace) {
  int recovered = 0;
  for (int round = 0; round < options.ripup_rounds; ++round) {
    if (options.finder.cancel.cancelled()) break;
    const int round_recovered =
        ripup_round(grid, options, nets_in_order, snapped, results,
                    committed, stats, workspace);
    if (round_recovered == 0) break;
    recovered += round_recovered;
  }
  return recovered;
}

LevelBResult assemble_result(std::vector<NetResult> results,
                             const SearchStats& stats) {
  LevelBResult result;
  result.vertices_examined += stats.vertices_examined;
  for (NetResult& net_result : results) {
    result.total_wire_length += net_result.wire_length;
    result.total_corners += net_result.corners;
    if (net_result.complete) {
      ++result.routed_nets;
    } else {
      ++result.failed_nets;
      if (net_result.outcome == util::StatusKind::kCancelled) {
        ++result.cancelled_nets;
      } else if (net_result.outcome == util::StatusKind::kBudgetExhausted) {
        ++result.budget_nets;
      }
    }
    result.nets.push_back(std::move(net_result));
  }
  return result;
}

UnroutedSuffix::UnroutedSuffix(
    const std::vector<std::vector<Point>>& snapped,
    const std::vector<std::size_t>& order, Coord cell) {
  std::vector<Point> flat;  // terminals in ordering sequence
  offset_.resize(order.size() + 1, 0);
  for (std::size_t k = 0; k < order.size(); ++k) {
    offset_[k] = flat.size();
    const auto& pts = snapped[order[k]];
    flat.insert(flat.end(), pts.begin(), pts.end());
  }
  offset_[order.size()] = flat.size();
  index_ = PointBuckets(flat, cell > 0 ? cell : spread_bucket_edge(flat));
}

Coord unrouted_bucket_edge(const tig::GridView& grid,
                           const LevelBOptions& options) {
  return std::max<Coord>(
      1, make_cost_context(grid, nullptr, options.dup_radius_pitches,
                           options.acf_window_pitches)
             .dup_radius);
}

}  // namespace ocr::levelb
