#include "levelb/path_finder.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "levelb/workspace.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"

namespace ocr::levelb {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;
using geom::Point;
using tig::TrackRef;

/// Window-growth retries (margin x4 each step) before a connect falls
/// back to the full grid.
constexpr int kMaxWindowSteps = 2;

/// Inclusive track-index window restricting one search pass (§3.1: "the
/// solution space for each MBFS is defined by the locations of the two net
/// terminals within a rectangular region"): tracks [lo[k], hi[k]] of the
/// orientation with geom::axis() k.
struct Window {
  int lo[2] = {0, 0};
  int hi[2] = {0, 0};

  friend bool operator==(const Window&, const Window&) = default;
};

Window make_window(const tig::GridView& grid, const Point& a,
                   const Point& b, int margin) {
  const auto ta = grid.tracks_at(a);
  const auto tb = grid.tracks_at(b);
  const int last[2] = {grid.num_h() - 1, grid.num_v() - 1};
  Window w;
  for (std::size_t k = 0; k < 2; ++k) {
    w.lo[k] = std::max(0, std::min(ta[k].index, tb[k].index) - margin);
    w.hi[k] = std::min(last[k], std::max(ta[k].index, tb[k].index) + margin);
  }
  return w;
}

Window full_window(const tig::GridView& grid) {
  return Window{{0, 0}, {grid.num_h() - 1, grid.num_v() - 1}};
}

/// Cancellation / budget state threaded through the MBFS passes of one
/// connect() call. The flags record why a pass stopped early.
struct SearchLimits {
  const util::CancelToken* cancel = nullptr;
  long long vertex_budget = 0;  ///< 0 = unlimited
  bool hit_cancel = false;
  bool hit_budget = false;

  /// Called per vertex expansion with the cumulative count; true = stop.
  bool should_stop(int vertices_examined) {
    if (vertex_budget > 0 && vertices_examined >= vertex_budget) {
      hit_budget = true;
      return true;
    }
    if (cancel != nullptr && (vertices_examined & 63) == 0) {
      cancel->note_progress(64);
      if (cancel->cancelled()) {
        hit_cancel = true;
        return true;
      }
    }
    return false;
  }
};

/// Compile-time orientation: run_mbfs dispatches once per dequeued node,
/// so each axis's expansion body keeps its orientation constant.
template <Orientation O>
using OrientTag = std::integral_constant<Orientation, O>;

/// One modified BFS pass. Fills \p tree (expansion order) and \p arrivals
/// (all target attachments at the minimum depth at which any occurs).
/// All scratch state lives in \p ws. Returns the pass's crossing-loop
/// iterations.
long long run_mbfs(const tig::GridView& grid, const Point& a, const Point& b,
              Orientation source_orient, const Window& w,
              SearchWorkspace& ws, PathSelectionTree& tree,
              std::vector<SearchArrival>& arrivals, SearchStats& stats,
              SearchFootprint* footprint, SearchLimits& limits) {
  tree.nodes.clear();
  arrivals.clear();
  ws.begin_pass();

  const auto track_a = grid.tracks_at(a);
  const auto track_b = grid.tracks_at(b);

  // Free-segment reads depend on exactly the gap returned: with block-only
  // commits a blockage landing inside it changes the answer, one outside
  // cannot (and a blocked probe point can never become free).
  const auto note = [footprint](const TrackRef& t,
                                const std::optional<Interval>& g) {
    if (footprint != nullptr && g) footprint->add(t, *g);
  };

  // Root: the source track with its free segment containing the terminal.
  {
    const TrackRef t = track_a[geom::axis(source_orient)];
    int cross_lo = 0;
    int cross_hi = -1;
    const auto seg = grid.free_segment_span(t, geom::along(a, t.orient),
                                            &cross_lo, &cross_hi);
    note(t, seg);
    if (!seg) return 0;  // terminal buried under an obstacle on this layer
    tree.nodes.push_back(TreeNode{t, *seg, a, -1, 0, cross_lo, cross_hi});
    visit(ws,
          ws.visited[geom::axis(t.orient)][static_cast<std::size_t>(t.index)],
          *seg);
  }

  ws.queue.clear();
  ws.queue.push_back(0);
  std::size_t queue_head = 0;
  int arrival_depth = -1;
  long long crossings = 0;

  // Target attachment test, hoisted out of the expansion loop: a crossing
  // p on a target track completes the connection iff the free gap
  // containing p also contains b — and since a track's gaps are disjoint,
  // that is exactly "p lies inside the gap containing b". Computing that
  // gap once per pass replaces one occupancy query per target-track
  // crossing with an interval containment test. The pass's arrival
  // decisions depend on no other read of the target track, so this single
  // read is also the only footprint entry they need.
  std::optional<Interval> target_gap[2];
  for (const TrackRef& t : track_b) {
    target_gap[geom::axis(t.orient)] =
        grid.free_segment(t, geom::along(b, t.orient));
    note(t, target_gap[geom::axis(t.orient)]);
  }
  // Expands node n, which lies on a track of orientation O, across the
  // perpendicular tracks P its free extent crosses.
  const auto expand = [&](auto orient, int n, const TreeNode& node) {
    constexpr Orientation O = decltype(orient)::value;
    constexpr Orientation P = geom::perpendicular(O);
    constexpr std::size_t kP = geom::axis(P);
    const std::vector<Coord>& perp = grid.coords(P);
    const Coord fixed = geom::across(node.entry, O);
    const int target = track_b[kP].index;
    // p, a crossing of b's P track, completes the connection.
    const auto try_target = [&](const Point& p) {
      if (!target_gap[kP] || !target_gap[kP]->contains(geom::along(p, P))) {
        return false;
      }
      arrivals.push_back(SearchArrival{n, p, track_b[kP]});
      return true;
    };
    // Only tracks whose coordinate lies inside the node's free extent can
    // be crossed; the index range came with the gap at node creation
    // (ascending visit order preserved).
    const int first = std::max(w.lo[kP], node.cross_lo);
    const int last = std::min(w.hi[kP], node.cross_hi);
    if (arrival_depth >= 0) {
      // Drained node (the arrival depth is known): it enqueues nothing, so
      // its only possible effect is the one target-track crossing. Probe
      // it directly instead of looping over every crossing. The root is
      // never drained, so its degenerate-turn skip cannot apply.
      if (first <= target && target <= last) {
        try_target(geom::on_track(
            O, perp[static_cast<std::size_t>(target)], fixed));
      }
      return;
    }
    if (last >= first) crossings += last - first + 1;
    std::vector<SearchWorkspace::VisitSlot>& visited = ws.visited[kP];
    for (int k = first; k <= last; ++k) {
      const Coord c = perp[static_cast<std::size_t>(k)];
      // Skip the root's degenerate turn at the terminal itself: that path
      // family belongs to the other MBFS pass.
      if (node.parent == -1 && c == geom::along(a, O)) continue;
      const Point p = geom::on_track(O, c, fixed);
      if (k == target && try_target(p)) {
        if (arrival_depth < 0) arrival_depth = node.depth;
        continue;
      }
      SearchWorkspace::VisitSlot& slot = visited[static_cast<std::size_t>(k)];
      if (visited_holds(ws, slot, fixed)) continue;
      const TrackRef t{P, k};
      int cl = 0;
      int ch = -1;
      const auto gap = grid.free_segment_span(t, fixed, &cl, &ch);
      note(t, gap);
      if (!gap) continue;
      visit(ws, slot, *gap);  // fixed ∉ visited ⇒ new
      tree.nodes.push_back(TreeNode{t, *gap, p, n, node.depth + 1, cl, ch});
      ws.queue.push_back(static_cast<int>(tree.nodes.size()) - 1);
    }
  };

  while (queue_head < ws.queue.size()) {
    const int n = ws.queue[queue_head++];
    const TreeNode node = tree.nodes[static_cast<std::size_t>(n)];
    // Once a depth has produced arrivals, the rest of that depth is still
    // drained (it can hold sibling arrivals at the same corner count) but
    // nothing deeper is expanded.
    if (arrival_depth >= 0 && node.depth > arrival_depth) continue;
    ++stats.vertices_examined;
    if (limits.should_stop(stats.vertices_examined)) return crossings;
    if (node.track.orient == Orientation::kHorizontal) {
      expand(OrientTag<Orientation::kHorizontal>{}, n, node);
    } else {
      expand(OrientTag<Orientation::kVertical>{}, n, node);
    }
  }
  return crossings;
}

/// Stands in for the h-rooted pass when the v-rooted pass that just ran
/// proved it fails (DESIGN.md §8). That pass found no arrival, yet it
/// visited the h-root — the free segment of a's horizontal track \p h_a
/// containing a — by another path. The segment graph is undirected and
/// both roots are barred only from their one shared crossing at a, so
/// the h-pass would search the same component: the same segments, hence
/// \p v_vertices vertices, \p v_crossings crossing iterations, no
/// occupancy read the v-pass did not make, and no arrival. Credits those
/// counts (and the cancel heartbeat should_stop would have sent) and
/// returns true; returns false, changing nothing, when the h-pass must
/// run: no proof, or a vertex budget that the h-pass would reach, so
/// budget stops land where the real pass puts them.
bool prove_h_pass_fails(const Point& a, const TrackRef& h_a, int v_vertices,
                        long long v_crossings, SearchWorkspace& ws,
                        SearchStats& stats, SearchLimits& limits) {
  if (!ws.arrivals_v.empty() ||
      !visited_holds(ws,
                     ws.visited[geom::axis(h_a.orient)]
                               [static_cast<std::size_t>(h_a.index)],
                     geom::along(a, h_a.orient))) {
    return false;
  }
  const int before = stats.vertices_examined;
  if (limits.vertex_budget > 0 &&
      before + v_vertices >= limits.vertex_budget) {
    return false;
  }
  stats.vertices_examined += v_vertices;
  ws.mbfs_crossings += v_crossings;
  ws.arrivals_h.clear();
  ++ws.mbfs_passes_proven;
  ws.mbfs_vertices_proven += v_vertices;
  const int beats = (before + v_vertices) / 64 - before / 64;
  if (limits.cancel != nullptr && beats > 0) {
    limits.cancel->note_progress(64LL * beats);
    limits.hit_cancel = limits.cancel->cancelled();
  }
  return true;
}

/// Reconstructs the candidate path of an arrival into \p out, reusing its
/// buffers: the parent walk fills the polyline back to front (a node at
/// depth k holds corner k and rides leg k; the root's entry is a), then
/// the leg along the target track ends it at b.
void build_path_into(const PathSelectionTree& tree,
                     const SearchArrival& arrival, const Point& b,
                     Path& out) {
  const auto d = static_cast<std::size_t>(
      tree.nodes[static_cast<std::size_t>(arrival.parent)].depth);
  out.points.resize(d + 3);
  out.tracks.resize(d + 2);
  out.points[d + 2] = b;
  out.points[d + 1] = arrival.corner;
  out.tracks[d + 1] = arrival.target;
  for (int n = arrival.parent; n >= 0;
       n = tree.nodes[static_cast<std::size_t>(n)].parent) {
    const TreeNode& node = tree.nodes[static_cast<std::size_t>(n)];
    out.points[static_cast<std::size_t>(node.depth)] = node.entry;
    out.tracks[static_cast<std::size_t>(node.depth)] = node.track;
  }
  out.canonicalize();
}

/// Order-stable polyline hash (paths compare by points), one FNV-1a step
/// per coordinate.
std::uint64_t path_hash(const Path& p) {
  std::uint64_t h = util::kFnv1aOffset;
  for (const Point& pt : p.points) {
    h = util::fnv1a_word(static_cast<std::uint64_t>(pt.x), h);
    h = util::fnv1a_word(static_cast<std::uint64_t>(pt.y), h);
  }
  return h;
}

}  // namespace

// One pass over an open-addressing table of at least 2·count slots
// (linear probing, indexed by the hash's Fibonacci-mixed high bits): with
// no deletions, every earlier candidate of equal hash lies on the probe
// run before the first empty slot, and each hash match is verified with a
// full polyline compare — the same first-occurrence list as a pairwise
// scan, collisions included.
void SearchWorkspace::collect_distinct(std::size_t count) {
  unique.clear();
  unique_corners.clear();
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * count) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  if (distinct.size() <= mask) distinct.resize(mask + 1);
  std::fill_n(distinct.begin(), mask + 1, DistinctSlot{});
  for (std::size_t k = 0; k < count; ++k) {
    const Path& c = candidates[k];
    if (c.empty()) continue;
    const std::uint64_t h = path_hash(c);
    std::size_t s =
        static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ull) >> (64 - bits));
    bool duplicate = false;
    for (; distinct[s].index >= 0; s = (s + 1) & mask) {
      const DistinctSlot& slot = distinct[s];
      if (slot.hash == h &&
          candidates[static_cast<std::size_t>(slot.index)] == c) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    distinct[s] = DistinctSlot{h, static_cast<int>(k)};
    unique.push_back(static_cast<int>(k));
    unique_corners.push_back(c.corners());
  }
}

std::string PathSelectionTree::to_string() const {
  std::string out;
  // Depth-first print with indentation; children in creation order.
  std::vector<std::vector<int>> children(nodes.size());
  for (std::size_t n = 1; n < nodes.size(); ++n) {
    children[static_cast<std::size_t>(nodes[n].parent)].push_back(
        static_cast<int>(n));
  }
  const auto label = [this](int n) {
    const TreeNode& node = nodes[static_cast<std::size_t>(n)];
    const char tag =
        node.track.orient == Orientation::kHorizontal ? 'h' : 'v';
    std::string text(1, tag);
    text += std::to_string(node.track.index + 1);
    return text;
  };
  std::vector<std::pair<int, int>> stack;  // (node, indent)
  if (!nodes.empty()) stack.emplace_back(0, 0);
  while (!stack.empty()) {
    const auto [n, indent] = stack.back();
    stack.pop_back();
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
    out += label(n);
    out += "\n";
    const auto& kids = children[static_cast<std::size_t>(n)];
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.emplace_back(*it, indent + 1);
    }
  }
  return out;
}

PathFinder::PathFinder(tig::GridView grid, Options options)
    : grid_(grid), options_(options) {}

PathFinder::Result PathFinder::connect(const geom::Point& a,
                                       const geom::Point& b,
                                       const CostContext& ctx) const {
  SearchWorkspace ws;
  return connect(a, b, ctx, ws);
}

PathFinder::Result PathFinder::connect(const geom::Point& a,
                                       const geom::Point& b,
                                       const CostContext& ctx,
                                       SearchWorkspace& ws,
                                       long long vertex_budget) const {
  Result result;
  if (a == b) {
    result.found = true;
    return result;
  }
  OCR_ASSERT(grid_.snap(a) == a, "connect: endpoint a is not a grid crossing");
  OCR_ASSERT(grid_.snap(b) == b, "connect: endpoint b is not a grid crossing");

  // Straight (zero-corner) connections short-circuit the search. At most
  // one track holds both endpoints (a != b).
  const auto track_a = grid_.tracks_at(a);
  for (const TrackRef& t : track_a) {
    if (geom::across(a, t.orient) != geom::across(b, t.orient)) continue;
    const auto seg = grid_.free_segment(t, geom::along(a, t.orient));
    if (ctx.footprint != nullptr && seg) ctx.footprint->add(t, *seg);
    if (seg && seg->contains(geom::along(b, t.orient))) {
      result.found = true;
      result.path.points = {a, b};
      result.path.tracks = {t};
      result.corners = 0;
      return result;
    }
  }

  ws.prepare(grid_);

  SearchLimits limits;
  if (options_.cancel.valid()) limits.cancel = &options_.cancel;
  limits.vertex_budget = vertex_budget;

  int margin = options_.window_margin;
  for (int step = 0;; ++step) {
    const bool final_step = step >= kMaxWindowSteps;
    const Window w =
        final_step ? full_window(grid_) : make_window(grid_, a, b, margin);

    const int vertices0 = result.stats.vertices_examined;
    const long long v_crossings =
        run_mbfs(grid_, a, b, Orientation::kVertical, w, ws, ws.tree_v,
                 ws.arrivals_v, result.stats, ctx.footprint, limits);
    ws.mbfs_crossings += v_crossings;
    // The footprint needs nothing from a proven pass: every read it would
    // make, the v-pass made.
    if (!limits.hit_cancel && !limits.hit_budget &&
        (options_.keep_trees ||
         !prove_h_pass_fails(
             a, track_a[geom::axis(Orientation::kHorizontal)],
             result.stats.vertices_examined - vertices0, v_crossings, ws,
             result.stats, limits))) {
      ws.mbfs_crossings +=
          run_mbfs(grid_, a, b, Orientation::kHorizontal, w, ws, ws.tree_h,
                   ws.arrivals_h, result.stats, ctx.footprint, limits);
    }
    if (limits.hit_cancel || limits.hit_budget) {
      // Abort the whole connect: a partial pass could miss arrivals, and
      // acting on an incomplete tree would make results depend on where
      // the limit landed. Both stop points are deterministic for budgets.
      result.found = false;
      result.cancelled = limits.hit_cancel;
      result.budget_exhausted = limits.hit_budget;
      if (options_.keep_trees) {
        result.tree_v = ws.tree_v;
        result.tree_h = ws.tree_h;
      }
      return result;
    }

    // Materialize candidates from both trees into reused buffers.
    const std::size_t total =
        ws.arrivals_v.size() + ws.arrivals_h.size();
    if (ws.candidates.size() < total) ws.candidates.resize(total);
    std::size_t count = 0;
    for (const SearchArrival& arr : ws.arrivals_v) {
      build_path_into(ws.tree_v, arr, b, ws.candidates[count++]);
    }
    for (const SearchArrival& arr : ws.arrivals_h) {
      build_path_into(ws.tree_h, arr, b, ws.candidates[count++]);
    }
    ws.collect_distinct(count);

    if (!ws.unique.empty()) {
      // Keep only globally minimum-corner candidates, then select by the
      // weighted cost with bounding (§3.2).
      const int min_corners = *std::min_element(ws.unique_corners.begin(),
                                                ws.unique_corners.end());
      double best_cost = 0.0;
      int best = -1;
      for (std::size_t i = 0; i < ws.unique.size(); ++i) {
        if (ws.unique_corners[i] != min_corners) continue;
        ++ws.candidates_evaluated;
        const int u = ws.unique[i];
        const Path& c = ws.candidates[static_cast<std::size_t>(u)];
        double cost = options_.weights.w1 * static_cast<double>(c.length()) /
                      static_cast<double>(ctx.pitch);
        bool pruned = best >= 0 && cost >= best_cost;
        if (!pruned && ctx.sensitive != nullptr) {
          // Extension term: parallel-run penalty per leg (§3.2).
          for (std::size_t leg = 0; leg + 1 < c.points.size(); ++leg) {
            const Point& p = c.points[leg];
            const Point& q = c.points[leg + 1];
            cost += leg_parallel_cost(
                grid_, options_.weights, ctx, c.tracks[leg],
                geom::leg_extent(p, q, c.tracks[leg].orient));
            if (best >= 0 && cost >= best_cost) {
              pruned = true;
              break;
            }
          }
        }
        if (!pruned) {
          for (std::size_t leg = 1; leg + 1 < c.points.size(); ++leg) {
            const Point& p = c.points[leg];
            const TrackRef& t_in = c.tracks[leg - 1];
            const TrackRef& t_out = c.tracks[leg];
            const int h = t_in.orient == Orientation::kHorizontal
                              ? t_in.index
                              : t_out.index;
            const int v = t_in.orient == Orientation::kVertical
                              ? t_in.index
                              : t_out.index;
            cost += corner_cost(grid_, options_.weights, ctx, p, h, v);
            if (best >= 0 && cost >= best_cost) {
              pruned = true;  // bounding: partial cost already loses
              break;
            }
          }
        }
        if (!pruned && (best < 0 || cost < best_cost)) {
          best = u;
          best_cost = cost;
        }
      }
      OCR_ASSERT(best >= 0, "no candidate survived selection");
      result.found = true;
      result.path = ws.candidates[static_cast<std::size_t>(best)];
      result.corners = min_corners;
      result.stats.candidates = static_cast<int>(ws.unique.size());
      if (options_.keep_trees) {
        result.tree_v = ws.tree_v;
        result.tree_h = ws.tree_h;
      }
      return result;
    }

    if (final_step || w == full_window(grid_)) break;
    margin *= 4;
    ++result.stats.window_growths;
  }
  result.found = false;
  if (options_.keep_trees) {
    result.tree_v = ws.tree_v;
    result.tree_h = ws.tree_h;
  }
  return result;
}

}  // namespace ocr::levelb
