/// \file bench_ablation_maze.cpp
/// \brief Ablation: the paper's MBFS track-graph search vs a Lee maze
/// router on the same grid (§3: "faster completion of the interconnections
/// on the average when compared to maze type algorithms").
///
/// Reports one table over the same trials: vertices/cells examined, wire
/// length, corners, connections found, and the "us/connect" column, the
/// mean wall time of one connect call in microseconds.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "levelb/path_finder.hpp"
#include "maze/hightower.hpp"
#include "maze/lee.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace {

using namespace ocr;
using geom::Point;
using geom::Rect;

/// Builds a grid with scattered obstacles, deterministic in `seed`.
tig::TrackGrid make_grid(geom::Coord size, int obstacles,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, size, size), 9, 11);
  for (int k = 0; k < obstacles; ++k) {
    const geom::Coord x = rng.uniform_int(0, size - 60);
    const geom::Coord y = rng.uniform_int(0, size - 60);
    const Rect r(x, y, x + rng.uniform_int(20, 50),
                 y + rng.uniform_int(20, 50));
    grid.block_region_h(r);
    grid.block_region_v(r);
  }
  return grid;
}

std::pair<Point, Point> far_pair(const tig::TrackGrid& grid,
                                 util::Rng& rng) {
  const Point a = grid.crossing(
      static_cast<int>(rng.uniform_int(0, grid.num_h() / 4)),
      static_cast<int>(rng.uniform_int(0, grid.num_v() / 4)));
  const Point b = grid.crossing(
      static_cast<int>(
          rng.uniform_int(3 * grid.num_h() / 4, grid.num_h() - 1)),
      static_cast<int>(
          rng.uniform_int(3 * grid.num_v() / 4, grid.num_v() - 1)));
  return {a, b};
}

/// Wall time since \p start, in µs.
double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void print_quality_table() {
  util::TextTable table;
  table.set_header({"Grid", "Router", "Examined", "Wire length", "Corners",
                    "Found", "us/connect"});
  for (geom::Coord size : {500, 1000, 2000}) {
    const auto grid = make_grid(size, static_cast<int>(size) / 100, 7);
    const levelb::PathFinder finder(grid);
    const auto ctx = levelb::make_cost_context(grid, nullptr);
    util::Rng rng(99);
    double mbfs_us = 0.0;
    long long mbfs_examined = 0;
    long long mbfs_wl = 0;
    int mbfs_corners = 0;
    int mbfs_found = 0;
    double lee_us = 0.0;
    long long lee_examined = 0;
    long long lee_wl = 0;
    int lee_corners = 0;
    int lee_found = 0;
    double ht_us = 0.0;
    long long ht_examined = 0;
    long long ht_wl = 0;
    int ht_corners = 0;
    int ht_found = 0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
      auto [a, b] = far_pair(grid, rng);
      auto start = std::chrono::steady_clock::now();
      const auto m = finder.connect(a, b, ctx);
      mbfs_us += us_since(start);
      if (m.found) {
        ++mbfs_found;
        mbfs_examined += m.stats.vertices_examined;
        mbfs_wl += m.path.length();
        mbfs_corners += m.corners;
      }
      start = std::chrono::steady_clock::now();
      const auto l = maze::lee_connect(grid, a, b);
      lee_us += us_since(start);
      if (l.found) {
        ++lee_found;
        lee_examined += l.cells_expanded;
        lee_wl += l.path.length();
        lee_corners += l.path.corners();
      }
      start = std::chrono::steady_clock::now();
      const auto h = maze::hightower_connect(grid, a, b);
      ht_us += us_since(start);
      if (h.found) {
        ++ht_found;
        ht_examined += h.probes_expanded;
        ht_wl += h.path.length();
        ht_corners += h.path.corners();
      }
    }
    const auto label = util::format("%lldx%lld", static_cast<long long>(size),
                                    static_cast<long long>(size));
    table.add_row({label, "MBFS (paper)",
                   util::format("%lld", mbfs_examined / kTrials),
                   util::format("%lld", mbfs_wl / kTrials),
                   util::format("%.1f",
                                static_cast<double>(mbfs_corners) / kTrials),
                   util::format("%d/%d", mbfs_found, kTrials),
                   util::format("%.1f", mbfs_us / kTrials)});
    table.add_row({label, "Lee maze",
                   util::format("%lld", lee_examined / kTrials),
                   util::format("%lld", lee_wl / kTrials),
                   util::format("%.1f",
                                static_cast<double>(lee_corners) / kTrials),
                   util::format("%d/%d", lee_found, kTrials),
                   util::format("%.1f", lee_us / kTrials)});
    const int ht_n = std::max(ht_found, 1);
    table.add_row({label, "Hightower",
                   util::format("%lld", ht_examined / ht_n),
                   util::format("%lld", ht_wl / ht_n),
                   util::format("%.1f",
                                static_cast<double>(ht_corners) / ht_n),
                   util::format("%d/%d", ht_found, kTrials),
                   util::format("%.1f", ht_us / kTrials)});
    table.add_separator();
  }
  std::puts("\nAblation A: MBFS track search vs Lee maze router (quality "
            "and time)");
  std::fputs(table.render().c_str(), stdout);
  std::puts("MBFS examines track segments; Lee expands grid cells — the "
            "paper's efficiency argument.");
}

}  // namespace

int main() {
  print_quality_table();
  return 0;
}
