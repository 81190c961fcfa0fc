#include "tig/track_grid.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ocr::tig {
namespace {

bool ascending_unique(const std::vector<geom::Coord>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) return false;
  }
  return true;
}

int nearest_index(const std::vector<geom::Coord>& coords, geom::Coord v) {
  OCR_ASSERT(!coords.empty(), "grid has no tracks in this orientation");
  const auto it = std::lower_bound(coords.begin(), coords.end(), v);
  if (it == coords.begin()) return 0;
  if (it == coords.end()) return static_cast<int>(coords.size()) - 1;
  const auto prev = std::prev(it);
  // Ties go to the lower track.
  if (v - *prev <= *it - v) return static_cast<int>(prev - coords.begin());
  return static_cast<int>(it - coords.begin());
}

int lower_index(const std::vector<geom::Coord>& coords, geom::Coord v) {
  return static_cast<int>(
      std::lower_bound(coords.begin(), coords.end(), v) - coords.begin());
}

// The gap [lo, hi] with its crossing span over \p perp, given the span's
// ends when a caller already knows them (kUnknown: binary-search them).
constexpr int kUnknown = -2;
Gap make_gap(geom::Coord lo, geom::Coord hi,
             const std::vector<geom::Coord>& perp, int first = kUnknown,
             int last = kUnknown) {
  if (first == kUnknown) first = lower_index(perp, lo);
  if (last == kUnknown) last = lower_index(perp, hi + 1) - 1;
  return Gap{geom::Interval(lo, hi), first, last};
}

}  // namespace

const TrackRecord TrackGrid::kEmptyRecord;

void TrackRecord::block(const geom::Interval& span, const Gap& whole,
                        const std::vector<geom::Coord>& perp) {
  if (blocked_.empty()) gaps_.assign(1, whole);
  blocked_.add(span);
  // Gaps intersecting the span lose the blocked part: the first may keep
  // a left remainder (its lo and first crossing), the last a right one
  // (its hi and last crossing), wholly covered gaps vanish.
  const auto first = std::lower_bound(
      gaps_.begin(), gaps_.end(), span.lo,
      [](const Gap& gap, geom::Coord v) { return gap.iv.hi < v; });
  if (first == gaps_.end() || first->iv.lo > span.hi) return;  // blocked
  auto last = first;
  while (last != gaps_.end() && last->iv.lo <= span.hi) ++last;
  Gap pieces[2];
  std::size_t np = 0;
  if (first->iv.lo < span.lo) {
    pieces[np++] = make_gap(first->iv.lo, span.lo - 1, perp, first->first);
  }
  const Gap& right = *std::prev(last);
  if (right.iv.hi > span.hi) {
    pieces[np++] =
        make_gap(span.hi + 1, right.iv.hi, perp, kUnknown, right.last);
  }
  geom::replace_range(gaps_, static_cast<std::size_t>(first - gaps_.begin()),
                      static_cast<std::size_t>(last - gaps_.begin()), pieces,
                      np);
}

void TrackRecord::unblock(const geom::Interval& span, const Gap& whole,
                          const std::vector<geom::Coord>& perp) {
  if (blocked_.empty()) return;
  blocked_.remove(span);
  // The freed range, clamped to the universe, merges with every gap it
  // touches or abuts. Only the first merged gap can reach further left
  // and only the last further right; their span ends carry over.
  const geom::Coord s_lo = std::max(span.lo, whole.iv.lo);
  const geom::Coord s_hi = std::min(span.hi, whole.iv.hi);
  if (s_lo > s_hi) return;  // entirely outside the universe
  const auto first = std::lower_bound(
      gaps_.begin(), gaps_.end(), s_lo - 1,
      [](const Gap& gap, geom::Coord v) { return gap.iv.hi < v; });
  auto last = first;
  while (last != gaps_.end() && last->iv.lo <= s_hi + 1) ++last;
  const bool left = first != last && first->iv.lo <= s_lo;
  const bool right = first != last && std::prev(last)->iv.hi >= s_hi;
  if (left && right && last - first == 1) return;  // already free
  const Gap merged = make_gap(
      left ? first->iv.lo : s_lo, right ? std::prev(last)->iv.hi : s_hi,
      perp, left ? first->first : kUnknown,
      right ? std::prev(last)->last : kUnknown);
  geom::replace_range(gaps_, static_cast<std::size_t>(first - gaps_.begin()),
                      static_cast<std::size_t>(last - gaps_.begin()),
                      &merged, 1);
}

double TrackRecord::blocked_fraction(const geom::Interval& span) const {
  if (span.length() == 0) return blocked_.contains(span.lo) ? 1.0 : 0.0;
  return static_cast<double>(blocked_.overlap_length(span)) /
         static_cast<double>(span.length());
}

TrackGrid::TrackGrid(std::vector<geom::Coord> h_ys,
                     std::vector<geom::Coord> v_xs, const geom::Rect& extent)
    : extent_(extent) {
  const std::vector<geom::Coord>& ys = axes_[0].coords = std::move(h_ys);
  const std::vector<geom::Coord>& xs = axes_[1].coords = std::move(v_xs);
  OCR_ASSERT(!ys.empty() && !xs.empty(),
             "grid needs at least one track per orientation");
  OCR_ASSERT(ascending_unique(ys) && ascending_unique(xs),
             "track coordinates must be ascending and unique");
  OCR_ASSERT(ys.front() >= extent_.ylo && ys.back() <= extent_.yhi,
             "horizontal tracks must lie inside the extent");
  OCR_ASSERT(xs.front() >= extent_.xlo && xs.back() <= extent_.xhi,
             "vertical tracks must lie inside the extent");
  axes_[0].whole = make_gap(extent_.xlo, extent_.xhi, xs);
  axes_[1].whole = make_gap(extent_.ylo, extent_.yhi, ys);
}

TrackGrid TrackGrid::uniform(const geom::Rect& extent, geom::Coord h_pitch,
                             geom::Coord v_pitch) {
  OCR_ASSERT(h_pitch > 0 && v_pitch > 0, "pitches must be positive");
  std::vector<geom::Coord> ys;
  for (geom::Coord y = extent.ylo + h_pitch / 2; y <= extent.yhi;
       y += h_pitch) {
    ys.push_back(y);
  }
  std::vector<geom::Coord> xs;
  for (geom::Coord x = extent.xlo + v_pitch / 2; x <= extent.xhi;
       x += v_pitch) {
    xs.push_back(x);
  }
  OCR_ASSERT(!ys.empty() && !xs.empty(), "extent too small for the pitches");
  return TrackGrid(std::move(ys), std::move(xs), extent);
}

int TrackGrid::nearest(geom::Orientation o, geom::Coord c) const {
  return nearest_index(coords(o), c);
}

int TrackGrid::first_at_or_above(geom::Orientation o, geom::Coord c) const {
  return lower_index(coords(o), c);
}

int TrackGrid::last_at_or_below(geom::Orientation o, geom::Coord c) const {
  return lower_index(coords(o), c + 1) - 1;
}

void TrackGrid::block(TrackRef t, const geom::Interval& span) {
  Axis& ax = axes_[geom::axis(t.orient)];
  const auto i = static_cast<std::size_t>(t.index);
  OCR_ASSERT(i < ax.coords.size(), "track index out of range");
  if (ax.records.empty()) ax.records.resize(ax.coords.size());
  ax.records[i].block(span, ax.whole, coords(geom::perpendicular(t.orient)));
}

void TrackGrid::unblock(TrackRef t, const geom::Interval& span) {
  // A family without records was never blocked: nothing to remove.
  Axis& ax = axes_[geom::axis(t.orient)];
  const auto i = static_cast<std::size_t>(t.index);
  OCR_ASSERT(i < ax.coords.size(), "track index out of range");
  if (ax.records.empty()) return;
  ax.records[i].unblock(span, ax.whole,
                        coords(geom::perpendicular(t.orient)));
}

void TrackGrid::block_region(geom::Orientation o, const geom::Rect& region) {
  // Only the tracks whose coordinate falls inside the region can change;
  // binary-search the index range instead of scanning every track (a
  // 100k-track grid with thousands of obstacles cannot afford the scan).
  const geom::Point lo{region.xlo, region.ylo};
  const geom::Point hi{region.xhi, region.yhi};
  const geom::Interval along(geom::along(lo, o), geom::along(hi, o));
  const int last = last_at_or_below(o, geom::across(hi, o));
  for (int k = first_at_or_above(o, geom::across(lo, o)); k <= last; ++k) {
    block({o, k}, along);
  }
}

std::size_t TrackGrid::grid_bytes() const {
  std::size_t bytes = 0;
  for (const Axis& ax : axes_) {
    bytes += ax.coords.capacity() * sizeof(geom::Coord) +
             ax.records.capacity() * sizeof(TrackRecord);
    for (const TrackRecord& r : ax.records) bytes += r.heap_bytes();
  }
  return bytes;
}

}  // namespace ocr::tig
