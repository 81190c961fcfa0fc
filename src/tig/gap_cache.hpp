#pragma once
/// \file gap_cache.hpp
/// \brief Memoized per-track free-gap lists for TrackGrid queries.
///
/// `h_free_segment`/`v_free_segment` is the single hottest occupancy query
/// of the MBFS inner loop (one per crossing examined). The underlying
/// `IntervalSet::free_gap_containing` is already O(log k), but it derives
/// the gap boundaries from the *blocked* runs on every call. The GapCache
/// materializes each track's maximal free gaps once — a flat, sorted
/// `(lo, hi)` array — and answers the query with one binary search over
/// that array, returning the gap itself rather than re-deriving it.
///
/// Storage is chunked (util::ChunkedVector, 64 tracks per chunk): a 100k-
/// track grid whose nets only ever search a few hundred tracks carries
/// cache entries for exactly those chunks. A track whose blocked set is
/// *empty* never materializes an entry at all — its free structure is the
/// whole universe, and the fast path below answers both the gap and its
/// crossing span directly from the universe, bit-identically to what a
/// materialized `free_gaps(universe) == [universe]` entry would say.
///
/// Consistency: each track's entry is invalidated whenever that track is
/// mutated (block/unblock), and rebuilt lazily on the next query — so a
/// cache entry is always either absent or exactly
/// `IntervalSet::free_gaps(universe)` for the track's current occupancy.
/// The cache is always on: TrackGrid answers every free-segment query
/// through it (gap_cache_test checks it against the IntervalSet scan).
///
/// Thread contract: lazy rebuilds mutate the cache under a const grid
/// query, so they follow the grid's own single-writer rules. Before a grid
/// is shared read-only across threads (a parallel shard batch), call
/// `TrackGrid::warm_gap_cache()` — it materializes every *blocked* track's
/// entry (empty tracks use the pure-read fast path) so concurrent readers
/// perform pure reads.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "geom/interval.hpp"
#include "geom/interval_set.hpp"
#include "util/chunked.hpp"

namespace ocr::tig {

/// Free-gap memo for one grid (one entry per track and orientation).
class GapCache {
 public:
  /// Sizes the cache for a grid with the given track counts; all entries
  /// start invalid (and unmaterialized).
  void reset(std::size_t h_tracks, std::size_t v_tracks) {
    h_.reset(h_tracks);
    v_.reset(v_tracks);
  }

  void invalidate_h(std::size_t i) {
    if (Entry* e = h_.find(i)) e->valid = false;
  }
  void invalidate_v(std::size_t j) {
    if (Entry* e = v_.find(j)) e->valid = false;
  }

  /// Incremental maintenance: patches a valid entry to reflect blocking
  /// (IntervalSet::add) or unblocking (IntervalSet::remove) of \p span on
  /// the track, in place and without re-deriving the whole gap list. The
  /// patched list is exactly `free_gaps(universe)` of the new occupancy;
  /// spans of untouched gaps survive. A stale or absent entry stays so
  /// (nothing to patch). The hot callers are the terminal unblock/block
  /// braces around every net search — full rebuilds there would throw
  /// away the whole track state to change one crossing.
  void on_block_h(std::size_t i, const geom::Interval& span) {
    if (Entry* e = h_.find(i)) patch_block(*e, span);
  }
  void on_block_v(std::size_t j, const geom::Interval& span) {
    if (Entry* e = v_.find(j)) patch_block(*e, span);
  }
  void on_unblock_h(std::size_t i, const geom::Interval& span,
                    const geom::Interval& universe) {
    if (Entry* e = h_.find(i)) patch_unblock(*e, span, universe);
  }
  void on_unblock_v(std::size_t j, const geom::Interval& span,
                    const geom::Interval& universe) {
    if (Entry* e = v_.find(j)) patch_unblock(*e, span, universe);
  }

  /// The maximal free gap of \p universe containing \p v on horizontal
  /// track \p i, exactly as `blocked.free_gap_containing(universe, v)`
  /// would answer. Rebuilds the track's entry if stale; an empty blocked
  /// set is answered from the universe without materializing anything.
  std::optional<geom::Interval> h_gap(std::size_t i,
                                      const geom::IntervalSet& blocked,
                                      const geom::Interval& universe,
                                      geom::Coord v) {
    if (blocked.empty()) return free_track_gap(universe, v);
    return lookup(h_.touch(i), blocked, universe, v);
  }
  std::optional<geom::Interval> v_gap(std::size_t j,
                                      const geom::IntervalSet& blocked,
                                      const geom::Interval& universe,
                                      geom::Coord v) {
    if (blocked.empty()) return free_track_gap(universe, v);
    return lookup(v_.touch(j), blocked, universe, v);
  }

  /// h_gap, additionally reporting the gap's crossing-track index span
  /// over the perpendicular coordinate array \p perp: on a hit,
  /// [*first, *last] are the indices whose coordinate lies inside the
  /// gap (empty when first > last). Spans are memoized per gap, so the
  /// binary searches amortize across every search that re-enters the
  /// same gap.
  std::optional<geom::Interval> h_gap_span(
      std::size_t i, const geom::IntervalSet& blocked,
      const geom::Interval& universe, const std::vector<geom::Coord>& perp,
      geom::Coord v, int* first, int* last) {
    if (blocked.empty()) {
      return free_track_gap_span(universe, perp, v, first, last);
    }
    return lookup_span(h_.touch(i), blocked, universe, perp, v, first, last);
  }
  std::optional<geom::Interval> v_gap_span(
      std::size_t j, const geom::IntervalSet& blocked,
      const geom::Interval& universe, const std::vector<geom::Coord>& perp,
      geom::Coord v, int* first, int* last) {
    if (blocked.empty()) {
      return free_track_gap_span(universe, perp, v, first, last);
    }
    return lookup_span(v_.touch(j), blocked, universe, perp, v, first, last);
  }

  /// Materializes the entry for horizontal track \p i (resp. vertical
  /// \p j) — gaps and crossing spans — so later queries are pure reads.
  /// Callers skip empty-blocked tracks: their queries take the universe
  /// fast path, which never touches the entry array.
  void warm_h(std::size_t i, const geom::IntervalSet& blocked,
              const geom::Interval& universe,
              const std::vector<geom::Coord>& perp) {
    warm(h_.touch(i), blocked, universe, perp);
  }
  void warm_v(std::size_t j, const geom::IntervalSet& blocked,
              const geom::Interval& universe,
              const std::vector<geom::Coord>& perp) {
    warm(v_.touch(j), blocked, universe, perp);
  }

  bool h_valid(std::size_t i) const {
    const Entry* e = h_.find(i);
    return e != nullptr && e->valid;
  }
  bool v_valid(std::size_t j) const {
    const Entry* e = v_.find(j);
    return e != nullptr && e->valid;
  }

  /// Heap footprint: chunk directories, materialized entry chunks, and
  /// the gap/span arrays inside them (observability).
  std::size_t storage_bytes() const {
    std::size_t bytes = h_.storage_bytes() + v_.storage_bytes();
    const auto add_entry = [&bytes](std::size_t, const Entry& e) {
      bytes += e.gaps.capacity() * sizeof(geom::Interval) +
               e.spans.capacity() * sizeof(std::pair<int, int>);
    };
    h_.for_each_present(add_entry);
    v_.for_each_present(add_entry);
    return bytes;
  }

 private:
  struct Entry {
    bool valid = false;
    bool spans_valid = false;  ///< spans filled for the current gaps
    std::vector<geom::Interval> gaps;  ///< sorted, disjoint free gaps
    std::vector<std::pair<int, int>> spans;  ///< perp index range per gap
  };

  /// What a materialized entry for a fully-free track would answer: the
  /// single gap [universe] when it contains \p v, otherwise a miss.
  static std::optional<geom::Interval> free_track_gap(
      const geom::Interval& universe, geom::Coord v) {
    if (v < universe.lo || v > universe.hi) return std::nullopt;
    return universe;
  }

  /// Span variant of the fast path — the same lower_bound derivation
  /// span_of() memoizes, applied to the universe gap. Two binary searches
  /// per query instead of a memo: free tracks have exactly one gap, so
  /// there is no list to search first and the searches are the whole cost.
  static std::optional<geom::Interval> free_track_gap_span(
      const geom::Interval& universe, const std::vector<geom::Coord>& perp,
      geom::Coord v, int* first, int* last) {
    if (v < universe.lo || v > universe.hi) return std::nullopt;
    const auto lo = std::lower_bound(perp.begin(), perp.end(), universe.lo);
    const auto hi = std::lower_bound(lo, perp.end(), universe.hi + 1);
    *first = static_cast<int>(lo - perp.begin());
    *last = static_cast<int>(hi - perp.begin()) - 1;
    return universe;
  }

  /// Fully materializes an entry — gaps and every span — so later
  /// lookups are pure reads (the warm_gap_cache() path).
  static void warm(Entry& e, const geom::IntervalSet& blocked,
                   const geom::Interval& universe,
                   const std::vector<geom::Coord>& perp) {
    ensure(e, blocked, universe);
    ensure_spans_sized(e);
    for (std::size_t g = 0; g < e.gaps.size(); ++g) span_of(e, g, perp);
  }

  static void ensure(Entry& e, const geom::IntervalSet& blocked,
                     const geom::Interval& universe) {
    if (!e.valid) {
      // Rebuild in place: invalidation is frequent on terminal tracks
      // (block/unblock braces every search), so keep the capacity.
      blocked.free_gaps_into(universe, e.gaps);
      e.valid = true;
      e.spans_valid = false;
    }
  }

  /// Sentinel for a span slot not yet derived (see span_of).
  static constexpr int kSpanUncomputed = -2;

  /// Sizes the span array (all slots uncomputed). Spans are derived one
  /// gap at a time on first use — a track rebuild after invalidation must
  /// not pay one binary-search pair per gap up front, only per gap the
  /// searches actually enter.
  static void ensure_spans_sized(Entry& e) {
    if (e.spans_valid) return;
    e.spans.assign(e.gaps.size(), {kSpanUncomputed, kSpanUncomputed});
    e.spans_valid = true;
  }

  /// The crossing-index span of gap \p g: the indices of \p perp
  /// coordinates inside it (lower_bound both ends — the same derivation
  /// as TrackGrid::first_*_at_or_above/last_*_at_or_below). Memoized.
  static const std::pair<int, int>& span_of(
      Entry& e, std::size_t g, const std::vector<geom::Coord>& perp) {
    std::pair<int, int>& s = e.spans[g];
    if (s.first == kSpanUncomputed) {
      const auto lo =
          std::lower_bound(perp.begin(), perp.end(), e.gaps[g].lo);
      const auto hi = std::lower_bound(lo, perp.end(), e.gaps[g].hi + 1);
      s = {static_cast<int>(lo - perp.begin()),
           static_cast<int>(hi - perp.begin()) - 1};
    }
    return s;
  }

  static std::optional<geom::Interval> lookup(
      Entry& e, const geom::IntervalSet& blocked,
      const geom::Interval& universe, geom::Coord v) {
    ensure(e, blocked, universe);
    // First gap that could contain v; gaps are sorted and disjoint, so
    // the containment test on that single gap decides the query.
    const auto it = std::lower_bound(
        e.gaps.begin(), e.gaps.end(), v,
        [](const geom::Interval& gap, geom::Coord value) {
          return gap.hi < value;
        });
    if (it == e.gaps.end() || it->lo > v) return std::nullopt;
    return *it;
  }

  /// Replaces gaps[fi, li) with \p pieces (np <= 2), keeping the span
  /// array parallel; replaced slots become uncomputed.
  static void splice(Entry& e, std::size_t fi, std::size_t li,
                     const geom::Interval* pieces, std::size_t np) {
    const std::size_t overwrite = std::min(np, li - fi);
    std::copy(pieces, pieces + overwrite,
              e.gaps.begin() + static_cast<std::ptrdiff_t>(fi));
    if (np < li - fi) {
      e.gaps.erase(e.gaps.begin() + static_cast<std::ptrdiff_t>(fi + np),
                   e.gaps.begin() + static_cast<std::ptrdiff_t>(li));
    } else if (np > li - fi) {
      e.gaps.insert(e.gaps.begin() + static_cast<std::ptrdiff_t>(li),
                    pieces + overwrite, pieces + np);
    }
    if (!e.spans_valid) return;
    const std::pair<int, int> u{kSpanUncomputed, kSpanUncomputed};
    std::fill_n(e.spans.begin() + static_cast<std::ptrdiff_t>(fi), overwrite,
                u);
    if (np < li - fi) {
      e.spans.erase(e.spans.begin() + static_cast<std::ptrdiff_t>(fi + np),
                    e.spans.begin() + static_cast<std::ptrdiff_t>(li));
    } else if (np > li - fi) {
      e.spans.insert(e.spans.begin() + static_cast<std::ptrdiff_t>(li),
                     np - overwrite, u);
    }
  }

  /// Gap-list effect of blocking \p span: gaps intersecting it lose the
  /// blocked part — the first may keep a left remainder, the last a right
  /// remainder, wholly-covered gaps vanish.
  static void patch_block(Entry& e, const geom::Interval& span) {
    if (!e.valid) return;
    auto& g = e.gaps;
    const auto first = std::lower_bound(
        g.begin(), g.end(), span.lo,
        [](const geom::Interval& gap, geom::Coord v) { return gap.hi < v; });
    if (first == g.end() || first->lo > span.hi) return;  // all blocked
    auto last = first;
    while (last != g.end() && last->lo <= span.hi) ++last;
    geom::Interval pieces[2];
    std::size_t np = 0;
    if (first->lo < span.lo) {
      pieces[np++] = geom::Interval(first->lo, span.lo - 1);
    }
    const geom::Interval& right_src = *std::prev(last);
    if (right_src.hi > span.hi) {
      pieces[np++] = geom::Interval(span.hi + 1, right_src.hi);
    }
    splice(e, static_cast<std::size_t>(first - g.begin()),
           static_cast<std::size_t>(last - g.begin()), pieces, np);
  }

  /// Gap-list effect of unblocking \p span: the freed range (clamped to
  /// the universe) merges with every gap it touches or abuts into one.
  static void patch_unblock(Entry& e, const geom::Interval& span,
                            const geom::Interval& universe) {
    if (!e.valid) return;
    const geom::Coord s_lo = std::max(span.lo, universe.lo);
    const geom::Coord s_hi = std::min(span.hi, universe.hi);
    if (s_lo > s_hi) return;  // entirely outside the universe
    auto& g = e.gaps;
    const auto first = std::lower_bound(
        g.begin(), g.end(), s_lo - 1,
        [](const geom::Interval& gap, geom::Coord v) { return gap.hi < v; });
    geom::Coord m_lo = s_lo;
    geom::Coord m_hi = s_hi;
    auto last = first;
    while (last != g.end() && last->lo <= s_hi + 1) {
      m_lo = std::min(m_lo, last->lo);
      m_hi = std::max(m_hi, last->hi);
      ++last;
    }
    if (last - first == 1 && first->lo == m_lo && first->hi == m_hi) {
      return;  // span was already free inside this gap: no change
    }
    const geom::Interval pieces[1] = {geom::Interval(m_lo, m_hi)};
    splice(e, static_cast<std::size_t>(first - g.begin()),
           static_cast<std::size_t>(last - g.begin()), pieces, 1);
  }

  static std::optional<geom::Interval> lookup_span(
      Entry& e, const geom::IntervalSet& blocked,
      const geom::Interval& universe, const std::vector<geom::Coord>& perp,
      geom::Coord v, int* first, int* last) {
    ensure(e, blocked, universe);
    const auto it = std::lower_bound(
        e.gaps.begin(), e.gaps.end(), v,
        [](const geom::Interval& gap, geom::Coord value) {
          return gap.hi < value;
        });
    if (it == e.gaps.end() || it->lo > v) return std::nullopt;
    ensure_spans_sized(e);
    const std::pair<int, int>& s =
        span_of(e, static_cast<std::size_t>(it - e.gaps.begin()), perp);
    *first = s.first;
    *last = s.second;
    return *it;
  }

  util::ChunkedVector<Entry> h_;
  util::ChunkedVector<Entry> v_;
};

}  // namespace ocr::tig
