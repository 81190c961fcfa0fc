/// \file bench_ablation_planes.cpp
/// \brief Ablation G (extension): one over-cell HV plane (the paper's
/// metal3/4) vs two planes (adding metal5/6), on instances scaled past a
/// single plane's capacity.

#include <cstdio>

#include "bench_data/levelb_instance.hpp"
#include "levelb/multi_plane.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace {

using namespace ocr;
using geom::Rect;

}  // namespace

int main() {
  util::TextTable table;
  table.set_header({"Nets (600x600 die)", "Planes", "Completion",
                    "Wire length", "Vias", "Rescued"});
  for (const int count : {40, 80, 160, 240}) {
    util::Rng rng(4242);
    const auto nets = bench_data::uniform_random_nets(rng, 600, count);

    auto single = tig::TrackGrid::uniform(Rect(0, 0, 600, 600), 9, 11);
    levelb::LevelBRouter router(single);
    const auto one = router.route(nets);
    table.add_row({util::format("%d", count), "1",
                   util::format("%.3f", one.completion_rate()),
                   util::with_commas(one.total_wire_length),
                   util::format("%d", one.total_corners), "-"});

    auto p0 = tig::TrackGrid::uniform(Rect(0, 0, 600, 600), 9, 11);
    auto p1 = tig::TrackGrid::uniform(Rect(0, 0, 600, 600), 9, 11);
    const auto two = levelb::route_two_planes(p0, p1, nets);
    table.add_row({util::format("%d", count), "2",
                   util::format("%.3f", two.completion_rate()),
                   util::with_commas(two.combined.total_wire_length),
                   util::format("%d", two.combined.total_corners),
                   util::format("%d", two.rescued)});
    table.add_separator();
  }
  std::puts("Ablation G: one vs two over-cell HV planes (extension)");
  std::fputs(table.render().c_str(), stdout);
  std::puts("\nThe paper's 4-layer assumption gives one over-cell plane; a "
            "6-layer\nprocess doubles over-cell capacity, which shows once "
            "a single plane\nsaturates.");
  return 0;
}
