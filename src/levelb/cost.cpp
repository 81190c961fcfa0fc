#include "levelb/cost.hpp"

#include <algorithm>
#include <array>
#include <limits>

#include "levelb/workspace.hpp"
#include "util/assert.hpp"

namespace ocr::levelb {
namespace {

/// Bucket coordinate of \p v (floor division, so negative coordinates
/// bucket consistently).
geom::Coord bucket_of(geom::Coord v, geom::Coord cell) {
  const geom::Coord q = v / cell;
  return (v % cell != 0 && v < 0) ? q - 1 : q;
}

/// Bucket key ordered by (bx, by): the buckets of one column that share
/// a by range are contiguous in key order. Bucket coordinates must fit in
/// 32 bits (checked when indexing); the sign flip keeps signed order.
std::uint64_t bucket_key(geom::Coord bx, geom::Coord by) {
  const auto u32 = [](geom::Coord c) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(c) ^
                                      0x80000000u);
  };
  return u32(bx) << 32 | u32(by);
}

/// The two tracks of a corner joining horizontal track \p h and vertical
/// track \p v, in axis order.
std::array<tig::TrackRef, 2> corner_tracks(int h, int v) {
  return {tig::TrackRef{geom::Orientation::kHorizontal, h},
          tig::TrackRef{geom::Orientation::kVertical, v}};
}

bool fits_bucket_key(geom::Coord b) {
  return b >= std::numeric_limits<std::int32_t>::min() &&
         b <= std::numeric_limits<std::int32_t>::max();
}

}  // namespace

PointBuckets::PointBuckets(const std::vector<geom::Point>& points,
                           geom::Coord cell)
    : cell_(cell) {
  OCR_ASSERT(cell_ >= 1, "bucket edge must be positive");
  std::vector<std::pair<std::uint64_t, std::size_t>> keyed;
  keyed.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const geom::Coord bx = bucket_of(points[i].x, cell_);
    const geom::Coord by = bucket_of(points[i].y, cell_);
    OCR_ASSERT(fits_bucket_key(bx) && fits_bucket_key(by),
               "point too far out for a 32-bit bucket coordinate");
    keyed.emplace_back(bucket_key(bx, by), i);
  }
  std::sort(keyed.begin(), keyed.end());  // by bucket, then flat index
  entries_.reserve(keyed.size());
  for (const auto& [key, i] : keyed) {
    if (keys_.empty() || keys_.back() != key) {
      keys_.push_back(key);
      starts_.push_back(entries_.size());
    }
    entries_.push_back(Entry{points[i], i});
  }
  starts_.push_back(entries_.size());
}

double PointBuckets::dup_sum(const geom::Point& p, geom::Coord radius,
                             std::size_t from, std::vector<Hit>& hits,
                             long long& tested) const {
  hits.clear();
  // Points with manhattan distance < radius lie within radius - 1 of p on
  // each axis.
  const geom::Coord by_lo = bucket_of(p.y - radius + 1, cell_);
  const geom::Coord by_hi = bucket_of(p.y + radius - 1, cell_);
  const geom::Coord bx_hi = bucket_of(p.x + radius - 1, cell_);
  for (geom::Coord bx = bucket_of(p.x - radius + 1, cell_); bx <= bx_hi;
       ++bx) {
    const std::uint64_t key_hi = bucket_key(bx, by_hi);
    for (auto k = std::lower_bound(keys_.begin(), keys_.end(),
                                   bucket_key(bx, by_lo));
         k != keys_.end() && *k <= key_hi; ++k) {
      const std::size_t b = static_cast<std::size_t>(k - keys_.begin());
      const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(
                                              starts_[b + 1]);
      auto e = std::lower_bound(
          entries_.begin() + static_cast<std::ptrdiff_t>(starts_[b]), end,
          from, [](const Entry& en, std::size_t f) { return en.index < f; });
      for (; e != end; ++e) {
        ++tested;
        const geom::Coord d = geom::manhattan(p, e->p);
        if (d < radius) hits.emplace_back(e->index, d);
      }
    }
  }
  std::sort(hits.begin(), hits.end());  // ascending flat index
  double total = 0.0;
  for (const Hit& h : hits) {
    total += 1.0 - static_cast<double>(h.second) /
                       static_cast<double>(radius);
  }
  return total;
}

CostContext make_cost_context(const tig::GridView& grid,
                              const std::vector<geom::Point>* own_terminals,
                              double dup_radius_pitches,
                              double acf_window_pitches) {
  CostContext ctx;
  ctx.own_terminals = own_terminals;
  geom::Coord pitch_sum = 0;  // mean pitch per orientation (1 if one track)
  for (const geom::Orientation o : geom::kOrientations) {
    const std::vector<geom::Coord>& coords = grid.coords(o);
    const auto n = static_cast<geom::Coord>(coords.size());
    pitch_sum += n > 1 ? (coords.back() - coords.front()) / (n - 1) : 1;
  }
  ctx.pitch = std::max<geom::Coord>(1, pitch_sum / 2);
  ctx.dup_radius = static_cast<geom::Coord>(
      dup_radius_pitches * static_cast<double>(ctx.pitch));
  ctx.acf_window = static_cast<geom::Coord>(
      acf_window_pitches * static_cast<double>(ctx.pitch));
  return ctx;
}

double corner_drg(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v) {
  geom::Coord d = -1;
  for (const tig::TrackRef& t : corner_tracks(h, v)) {
    const geom::Coord at = geom::along(p, t.orient);
    const auto dt = grid.distance_to_blocked(t, at);
    if (ctx.footprint != nullptr) {
      // "Nearest blockage at distance d" stays true unless something new
      // lands within d of the probe; with no blockage at all, any new
      // block on the track changes the answer.
      ctx.footprint->add(t, dt ? geom::Interval(at - *dt, at + *dt)
                               : grid.span(t.orient));
    }
    if (dt) d = d < 0 ? *dt : std::min(d, *dt);
  }
  if (d < 0) return 0.0;  // nothing routed anywhere near
  return 1.0 / (1.0 + static_cast<double>(d) /
                          static_cast<double>(ctx.pitch));
}

double corner_dup(const CostContext& ctx, const geom::Point& p) {
  if (ctx.dup_radius <= 0) return 0.0;
  std::vector<PointBuckets::Hit> local_hits;
  long long local_tested = 0;
  std::vector<PointBuckets::Hit>& hits =
      ctx.workspace != nullptr ? ctx.workspace->dup_hits : local_hits;
  long long& tested = ctx.workspace != nullptr
                          ? ctx.workspace->dup_points_tested
                          : local_tested;
  // Unrouted terminals first, then the net's own: the summation order of
  // one scan over "unrouted suffix + own terminals".
  double total = 0.0;
  if (ctx.unrouted.index != nullptr) {
    total = ctx.unrouted.index->dup_sum(p, ctx.dup_radius, ctx.unrouted.from,
                                        hits, tested);
  }
  if (ctx.own_terminals != nullptr) {
    for (const geom::Point& u : *ctx.own_terminals) {
      ++tested;
      const geom::Coord d = geom::manhattan(p, u);
      if (d < ctx.dup_radius) {
        total += 1.0 - static_cast<double>(d) /
                           static_cast<double>(ctx.dup_radius);
      }
    }
  }
  return std::min(total, 4.0);  // cap so one hub cannot dominate wl
}

double corner_acf(const tig::GridView& grid, const CostContext& ctx,
                  const geom::Point& p, int h, int v) {
  double sum = 0.0;
  for (const tig::TrackRef& t : corner_tracks(h, v)) {
    const geom::Interval span = grid.span(t.orient);
    const geom::Coord at = geom::along(p, t.orient);
    const geom::Interval window(std::max(span.lo, at - ctx.acf_window),
                                std::min(span.hi, at + ctx.acf_window));
    if (ctx.footprint != nullptr) ctx.footprint->add(t, window);
    sum += grid.blocked_fraction(t, window);
  }
  return 0.5 * sum;
}

double corner_cost(const tig::GridView& grid, const CostWeights& weights,
                   const CostContext& ctx, const geom::Point& p, int h,
                   int v) {
  return weights.w21 * corner_drg(grid, ctx, p, h, v) +
         weights.w22 * corner_dup(ctx, p) +
         weights.w23 * corner_acf(grid, ctx, p, h, v);
}

double leg_parallel_cost(const tig::GridView& grid,
                         const CostWeights& weights, const CostContext& ctx,
                         const tig::TrackRef& track,
                         const geom::Interval& span) {
  if (weights.w24 == 0.0 || ctx.sensitive == nullptr ||
      ctx.sensitive->empty()) {
    return 0.0;
  }
  // The leg's own track and its two neighbours of the same orientation.
  const int count = static_cast<int>(grid.coords(track.orient).size());
  geom::Coord overlap = 0;
  for (int k = std::max(0, track.index - 1);
       k <= std::min(count - 1, track.index + 1); ++k) {
    overlap += ctx.sensitive->overlap({track.orient, k}, span);
  }
  return weights.w24 * static_cast<double>(overlap) /
         static_cast<double>(ctx.pitch);
}

}  // namespace ocr::levelb
