/// \file coupling_aware.cpp
/// \brief Sensitive-net aware routing (§1/§3.2 extension).
///
/// The paper motivates over-cell routing care with capacitive coupling:
/// "wires running parallel, one on top of the other, over relatively long
/// distances, creating capacitive coupling that can cause severe
/// cross-talk". This example routes a sensitive analog net, then a bus of
/// aggressors, once without and once with the w24 parallel-run penalty,
/// and reports how much aggressor wiring hugs the victim.

#include <cstdio>

#include "levelb/router.hpp"
#include "tig/track_grid.hpp"

namespace {

using namespace ocr;
using geom::Point;

constexpr geom::Coord kVictimY = 405;

/// Aggressor wiring length within one pitch of the victim's row.
geom::Coord hugging_length(const levelb::LevelBResult& result) {
  geom::Coord total = 0;
  for (const auto& net : result.nets) {
    if (net.id == 0) continue;  // the victim itself
    for (const auto& path : net.paths) {
      for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
        const Point& p = path.points[leg];
        const Point& q = path.points[leg + 1];
        if (p.y != q.y) continue;
        if (std::abs(p.y - kVictimY) <= 15) total += std::abs(q.x - p.x);
      }
    }
  }
  return total;
}

levelb::LevelBResult run(double w24) {
  auto grid = tig::TrackGrid::uniform(geom::Rect(0, 0, 1200, 800), 9, 11);

  std::vector<levelb::BNet> nets;
  // The victim: a long horizontal analog net, flagged sensitive.
  nets.push_back(
      levelb::BNet{0, {Point{10, kVictimY}, Point{1190, kVictimY}}, true});
  // A bus of aggressors: one endpoint sits right next to the victim's
  // row, the other far away, so each L-shaped route either hugs the
  // victim for its whole horizontal run or leaves immediately.
  for (int k = 1; k <= 6; ++k) {
    const geom::Coord near_y = kVictimY + 9;  // adjacent metal3 track
    const geom::Coord far_y = 80 + 45 * k;
    nets.push_back(levelb::BNet{
        k, {Point{10 + 20 * k, near_y}, Point{1190 - 20 * k, far_y}},
        false});
  }

  levelb::LevelBOptions options;
  options.finder.weights.w21 = 0.0;  // isolate the coupling term
  options.finder.weights.w22 = 0.0;
  options.finder.weights.w23 = 0.0;
  options.finder.weights.w24 = w24;
  levelb::LevelBRouter router(grid, options);
  return router.route(nets);
}

}  // namespace

int main() {
  const auto baseline = run(0.0);
  const auto coupled = run(25.0);

  std::printf("aggressors hugging the victim (within 1 pitch):\n");
  std::printf("  w24 = 0:   %lld dbu\n",
              static_cast<long long>(hugging_length(baseline)));
  std::printf("  w24 = 25:  %lld dbu\n",
              static_cast<long long>(hugging_length(coupled)));
  std::printf("completion: %d/%d (baseline), %d/%d (coupling-aware)\n",
              baseline.routed_nets,
              baseline.routed_nets + baseline.failed_nets,
              coupled.routed_nets,
              coupled.routed_nets + coupled.failed_nets);
  return (coupled.failed_nets == 0 &&
          hugging_length(coupled) <= hugging_length(baseline))
             ? 0
             : 1;
}
