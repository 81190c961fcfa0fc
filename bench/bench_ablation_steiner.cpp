/// \file bench_ablation_steiner.cpp
/// \brief Ablation C: the paper's modified-Prim rectilinear Steiner
/// heuristic (§3.3) vs the plain rectilinear MST and, for tiny nets, the
/// exact RSMT. The "MST us/tree" and "RST us/tree" columns are the mean
/// wall time of one tree over the same trials, in microseconds.

#include <chrono>
#include <cstdio>
#include <vector>

#include "steiner/exact.hpp"
#include "steiner/rmst.hpp"
#include "steiner/rst.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace {

using namespace ocr;
using geom::Point;

std::vector<Point> random_terminals(util::Rng& rng, int n) {
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.push_back(Point{rng.uniform_int(0, 1000), rng.uniform_int(0, 1000)});
  }
  return pts;
}

/// Wall time since \p start, in µs.
double us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void print_quality_table() {
  util::TextTable table;
  table.set_header({"Terminals", "RST/MST length", "RST/exact length",
                    "Steiner pts/net", "MST us/tree", "RST us/tree"});
  util::Rng rng(2024);
  for (int n : {3, 4, 5, 8, 16, 40}) {
    double ratio_sum = 0.0;
    double exact_ratio_sum = 0.0;
    int exact_count = 0;
    double steiner_points = 0.0;
    double mst_us = 0.0;
    double rst_us = 0.0;
    constexpr int kTrials = 50;
    for (int t = 0; t < kTrials; ++t) {
      const auto pts = random_terminals(rng, n);
      auto start = std::chrono::steady_clock::now();
      const auto mst = steiner::rectilinear_mst(pts);
      mst_us += us_since(start);
      start = std::chrono::steady_clock::now();
      const auto rst = steiner::modified_prim_rst(pts);
      rst_us += us_since(start);
      if (mst.length > 0) {
        ratio_sum += static_cast<double>(rst.length) /
                     static_cast<double>(mst.length);
      } else {
        ratio_sum += 1.0;
      }
      steiner_points +=
          static_cast<double>(rst.nodes.size()) - rst.num_terminals;
      if (n <= steiner::kMaxExactTerminals - 1) {
        const auto exact = steiner::exact_rsmt_length(pts);
        if (exact > 0) {
          exact_ratio_sum += static_cast<double>(rst.length) /
                             static_cast<double>(exact);
          ++exact_count;
        }
      }
    }
    table.add_row(
        {util::format("%d", n), util::format("%.4f", ratio_sum / kTrials),
         exact_count > 0
             ? util::format("%.4f", exact_ratio_sum / exact_count)
             : std::string("-"),
         util::format("%.1f", steiner_points / kTrials),
         util::format("%.2f", mst_us / kTrials),
         util::format("%.2f", rst_us / kTrials)});
  }
  std::puts("\nAblation C: modified-Prim RST quality (paper §3.3)");
  std::fputs(table.render().c_str(), stdout);
  std::puts("RST/MST < 1: the heuristic always improves on the spanning "
            "tree;\nRST/exact >= 1: distance from the (NP-complete) "
            "optimum on tiny nets.");
}

}  // namespace

int main() {
  print_quality_table();
  return 0;
}
