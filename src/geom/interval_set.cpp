#include "geom/interval_set.hpp"

#include <algorithm>
#include <limits>

namespace ocr::geom {

namespace {
// First run whose hi >= v (candidate container of v).
std::vector<Interval>::const_iterator first_reaching(
    const std::vector<Interval>& runs, Coord v) {
  return std::lower_bound(
      runs.begin(), runs.end(), v,
      [](const Interval& run, Coord value) { return run.hi < value; });
}
}  // namespace

void IntervalSet::add(const Interval& iv) {
  // Find all runs that overlap or are adjacent to iv and merge them.
  Interval merged = iv;
  auto first = std::lower_bound(runs_.begin(), runs_.end(), iv.lo,
                                [](const Interval& run, Coord value) {
                                  // adjacent runs (run.hi + 1 == lo) merge too
                                  return run.hi + 1 < value;
                                });
  auto last = first;
  while (last != runs_.end() && last->lo <= merged.hi + 1) {
    merged = merged.hull(*last);
    ++last;
  }
  if (first == last) {
    runs_.insert(first, merged);
  } else {
    *first = merged;
    runs_.erase(first + 1, last);
  }
}

void IntervalSet::remove(const Interval& iv) {
  const auto first = first_reaching(runs_, iv.lo);
  auto last = first;
  while (last != runs_.end() && last->lo <= iv.hi) ++last;
  if (first == last) return;  // nothing blocked inside iv
  // Only the first run can leave a left remainder and only the last a
  // right one.
  Interval pieces[2];
  std::size_t np = 0;
  if (first->lo < iv.lo) pieces[np++] = Interval(first->lo, iv.lo - 1);
  const Interval& back = *std::prev(last);
  if (back.hi > iv.hi) pieces[np++] = Interval(iv.hi + 1, back.hi);
  replace_range(runs_, static_cast<std::size_t>(first - runs_.begin()),
                static_cast<std::size_t>(last - runs_.begin()), pieces, np);
}

bool IntervalSet::intersects(const Interval& iv) const {
  const auto it = first_reaching(runs_, iv.lo);
  return it != runs_.end() && it->lo <= iv.hi;
}

bool IntervalSet::contains(Coord v) const {
  return intersects(Interval(v, v));
}

Coord IntervalSet::overlap_length(const Interval& span) const {
  Coord total = 0;
  for (auto it = first_reaching(runs_, span.lo);
       it != runs_.end() && it->lo <= span.hi; ++it) {
    total += std::min(it->hi, span.hi) - std::max(it->lo, span.lo);
  }
  return total;
}

std::optional<Interval> IntervalSet::free_gap_containing(
    const Interval& universe, Coord v) const {
  if (!universe.contains(v)) return std::nullopt;
  const auto it = first_reaching(runs_, v);
  if (it != runs_.end() && it->lo <= v) return std::nullopt;  // v blocked
  Coord lo = universe.lo;
  if (it != runs_.begin()) lo = std::max(lo, std::prev(it)->hi + 1);
  Coord hi = universe.hi;
  if (it != runs_.end()) hi = std::min(hi, it->lo - 1);
  if (lo > hi) return std::nullopt;
  return Interval(lo, hi);
}

std::optional<Coord> IntervalSet::distance_to_nearest_blocked(
    Coord v) const {
  if (runs_.empty()) return std::nullopt;
  const auto it = first_reaching(runs_, v);
  if (it != runs_.end() && it->lo <= v) return 0;
  Coord best = std::numeric_limits<Coord>::max();
  if (it != runs_.end()) best = std::min(best, it->lo - v);
  if (it != runs_.begin()) best = std::min(best, v - std::prev(it)->hi);
  return best;
}

}  // namespace ocr::geom
