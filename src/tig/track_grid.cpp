#include "tig/track_grid.hpp"

#include <algorithm>
#include <limits>

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

// \p span clipped to the universe of \p whole (nullopt when disjoint).
std::optional<geom::Interval> clip(const geom::Interval& span,
                                   const Gap& whole) {
  const geom::Coord lo = std::max(span.lo, whole.iv.lo);
  const geom::Coord hi = std::min(span.hi, whole.iv.hi);
  if (lo > hi) return std::nullopt;
  return geom::Interval(lo, hi);
}

}  // namespace

const TrackRecord TrackGrid::kEmptyRecord;

void TrackRecord::block(const geom::Interval& span, const Gap& whole,
                        const std::vector<geom::Coord>& perp) {
  const std::optional<geom::Interval> s = clip(span, whole);
  if (!s) return;
  if (!patched_) {
    gaps_.assign(1, whole);
    patched_ = true;
  }
  // Gaps intersecting the span lose the blocked part: the first may keep
  // a left remainder (its lo and first crossing), the last a right one
  // (its hi and last crossing), wholly covered gaps vanish.
  const auto first = first_reaching(gaps_.begin(), gaps_.end(), s->lo);
  if (first == gaps_.end() || first->iv.lo > s->hi) return;  // blocked
  auto last = first;
  while (last != gaps_.end() && last->iv.lo <= s->hi) ++last;
  Gap pieces[2];
  std::size_t np = 0;
  if (first->iv.lo < s->lo) {
    pieces[np++] = make_gap(first->iv.lo, s->lo - 1, perp, first->first);
  }
  const Gap& right = *std::prev(last);
  if (right.iv.hi > s->hi) {
    pieces[np++] = make_gap(s->hi + 1, right.iv.hi, perp, kUnknown, right.last);
  }
  geom::replace_range(gaps_, static_cast<std::size_t>(first - gaps_.begin()),
                      static_cast<std::size_t>(last - gaps_.begin()), pieces,
                      np);
}

void TrackRecord::unblock(const geom::Interval& span, const Gap& whole,
                          const std::vector<geom::Coord>& perp) {
  const std::optional<geom::Interval> s = clip(span, whole);
  if (!patched_ || !s) return;
  // The freed range merges with every gap it touches or abuts. Only the
  // first merged gap can reach further left and only the last further
  // right; their span ends carry over.
  const auto first = first_reaching(gaps_.begin(), gaps_.end(), s->lo - 1);
  auto last = first;
  while (last != gaps_.end() && last->iv.lo <= s->hi + 1) ++last;
  const bool left = first != last && first->iv.lo <= s->lo;
  const bool right = first != last && std::prev(last)->iv.hi >= s->hi;
  if (left && right && last - first == 1) return;  // already free
  const Gap merged = make_gap(
      left ? first->iv.lo : s->lo, right ? std::prev(last)->iv.hi : s->hi,
      perp, left ? first->first : kUnknown,
      right ? std::prev(last)->last : kUnknown);
  geom::replace_range(gaps_, static_cast<std::size_t>(first - gaps_.begin()),
                      static_cast<std::size_t>(last - gaps_.begin()),
                      &merged, 1);
}

bool TrackRecord::is_free(const geom::Interval& span, const Gap& whole) const {
  // Inside the universe, the span is free when one gap holds it.
  const std::optional<geom::Interval> s = clip(span, whole);
  if (!s) return true;
  const Gap* gap = gap_containing(s->lo, whole);
  return gap != nullptr && gap->iv.hi >= s->hi;
}

std::optional<geom::Coord> TrackRecord::distance_to_blocked(
    geom::Coord v, const Gap& whole) const {
  // Every blocked coordinate lies inside the universe, so from outside it
  // the nearest one is the nearest from the universe's edge.
  const geom::Interval& u = whole.iv;
  const geom::Coord c = std::clamp(v, u.lo, u.hi);
  const geom::Coord outside = v < c ? c - v : v - c;
  const Gap* gap = gap_containing(c, whole);
  if (gap == nullptr) return outside;  // c is blocked
  // The nearest blocked coordinates border c's gap.
  if (gap->iv.lo == u.lo && gap->iv.hi == u.hi) return std::nullopt;
  const geom::Coord far = std::numeric_limits<geom::Coord>::max();
  return outside + std::min(gap->iv.lo > u.lo ? c - gap->iv.lo + 1 : far,
                            gap->iv.hi < u.hi ? gap->iv.hi + 1 - c : far);
}

double TrackRecord::blocked_fraction(const geom::Interval& span,
                                     const Gap& whole) const {
  if (!patched_) return 0.0;
  if (span.length() == 0) return is_free(span, whole) ? 0.0 : 1.0;
  // Sum the blocked runs between consecutive gaps, each clipped part
  // counted as hi - lo.
  auto it = first_reaching(gaps_.begin(), gaps_.end(), span.lo);
  geom::Coord run_lo =
      it == gaps_.begin() ? whole.iv.lo : std::prev(it)->iv.hi + 1;
  geom::Coord blocked = 0;
  for (;; ++it) {
    const geom::Coord run_hi = it == gaps_.end() ? whole.iv.hi : it->iv.lo - 1;
    const geom::Coord lo = std::max(run_lo, span.lo);
    const geom::Coord hi = std::min(run_hi, span.hi);
    if (lo <= hi) blocked += hi - lo;
    if (it == gaps_.end() || it->iv.hi >= span.hi) break;
    run_lo = it->iv.hi + 1;
  }
  return static_cast<double>(blocked) / static_cast<double>(span.length());
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
