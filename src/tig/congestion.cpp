#include "tig/congestion.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/str.hpp"

namespace ocr::tig {

double CongestionReport::peak_region() const {
  double peak = 0.0;
  for (double u : region_utilization) peak = std::max(peak, u);
  return peak;
}

std::string CongestionReport::to_string() const {
  std::string out;
  out += util::format(
      "horizontal tracks: mean %.1f%%, max %.1f%%, %d/%d full\n",
      100.0 * horizontal.mean_utilization, 100.0 * horizontal.max_utilization,
      horizontal.full_tracks, horizontal.tracks);
  out += util::format(
      "vertical tracks:   mean %.1f%%, max %.1f%%, %d/%d full\n",
      100.0 * vertical.mean_utilization, 100.0 * vertical.max_utilization,
      vertical.full_tracks, vertical.tracks);
  out += util::format("peak region utilization: %.1f%%\n",
                      100.0 * peak_region());
  // Heat map, top row first; '.' < 'o' < 'O' < '#'.
  for (int row = bins - 1; row >= 0; --row) {
    out += "  ";
    for (int col = 0; col < bins; ++col) {
      const double u = region_utilization[static_cast<std::size_t>(
          row * bins + col)];
      out += u < 0.25 ? '.' : u < 0.5 ? 'o' : u < 0.75 ? 'O' : '#';
    }
    out += "\n";
  }
  return out;
}

CongestionReport analyze_congestion(const TrackGrid& grid, int bins) {
  OCR_ASSERT(bins > 0, "need at least one congestion bin");
  CongestionReport report;
  report.bins = bins;
  report.region_utilization.assign(
      static_cast<std::size_t>(bins) * static_cast<std::size_t>(bins), 0.0);

  // Region accumulators: blocked and total track length per bin.
  std::vector<double> blocked(report.region_utilization.size(), 0.0);
  std::vector<double> total(report.region_utilization.size(), 0.0);

  OrientationUsage* const usage[2] = {&report.horizontal, &report.vertical};
  // Region index step of one bin along x (a column) and along y (a row).
  const std::size_t stride[2] = {1, static_cast<std::size_t>(bins)};
  // Horizontal tracks first: the double sums accumulate in that order.
  for (const geom::Orientation o : geom::kOrientations) {
    const std::size_t k = geom::axis(o);
    const std::size_t kp = geom::axis(geom::perpendicular(o));
    const geom::Interval span = grid.span(o);
    const geom::Interval across = grid.span(geom::perpendicular(o));
    const double bin_along = static_cast<double>(span.length()) / bins;
    const double bin_across = static_cast<double>(across.length()) / bins;
    OrientationUsage& u = *usage[k];
    u.tracks = static_cast<int>(grid.coords(o).size());
    double sum = 0.0;
    for (int t = 0; t < u.tracks; ++t) {
      const TrackRef ref{o, t};
      const double track_util = grid.blocked_fraction(ref, span);
      sum += track_util;
      u.max_utilization = std::max(u.max_utilization, track_util);
      if (track_util > 0.95) ++u.full_tracks;
      const int fixed_bin = std::min(
          bins - 1,
          static_cast<int>(
              (grid.coords(o)[static_cast<std::size_t>(t)] - across.lo) /
              std::max(1.0, bin_across)));
      for (int b = 0; b < bins; ++b) {
        const geom::Interval window(
            span.lo + static_cast<geom::Coord>(b * bin_along),
            span.lo + static_cast<geom::Coord>((b + 1) * bin_along));
        if (window.lo > window.hi) continue;
        const std::size_t index =
            static_cast<std::size_t>(fixed_bin) * stride[kp] +
            static_cast<std::size_t>(b) * stride[k];
        blocked[index] += grid.blocked_fraction(ref, window) *
                          static_cast<double>(window.length());
        total[index] += static_cast<double>(window.length());
      }
    }
    if (u.tracks > 0) u.mean_utilization = sum / u.tracks;
  }

  for (std::size_t k = 0; k < blocked.size(); ++k) {
    report.region_utilization[k] =
        total[k] > 0.0 ? blocked[k] / total[k] : 0.0;
  }
  return report;
}

}  // namespace ocr::tig
