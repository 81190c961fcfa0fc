#include "bench_data/levelb_instance.hpp"

#include <algorithm>

namespace ocr::bench_data {

using geom::Coord;
using geom::Point;

LevelBInstance generate_levelb_instance(const LevelBSpec& spec) {
  util::Rng rng(spec.seed);
  LevelBInstance inst{
      spec.name,
      tig::TrackGrid::uniform(geom::Rect(0, 0, spec.size, spec.size),
                              spec.h_pitch, spec.v_pitch),
      {}};
  for (int n = 0; n < spec.num_nets; ++n) {
    levelb::BNet net{n, {}, false};
    const Point center{rng.uniform_int(0, spec.size - 1),
                       rng.uniform_int(0, spec.size - 1)};
    const int degree = static_cast<int>(
        rng.uniform_int(spec.degree_min, spec.degree_max));
    for (int t = 0; t < degree; ++t) {
      Point p;
      if (spec.locality > 0) {
        p.x = std::clamp<Coord>(
            center.x + rng.uniform_int(0, 2 * spec.locality) - spec.locality,
            0, spec.size - 1);
        p.y = std::clamp<Coord>(
            center.y + rng.uniform_int(0, 2 * spec.locality) - spec.locality,
            0, spec.size - 1);
      } else {
        p = Point{rng.uniform_int(0, spec.size - 1),
                  rng.uniform_int(0, spec.size - 1)};
      }
      net.terminals.push_back(p);
    }
    net.sensitive = spec.sensitive_every > 0 &&
                    n % spec.sensitive_every == spec.sensitive_every / 2;
    inst.nets.push_back(std::move(net));
  }
  return inst;
}

std::vector<levelb::BNet> uniform_random_nets(util::Rng& rng, Coord size,
                                              int count) {
  std::vector<levelb::BNet> nets;
  for (int n = 0; n < count; ++n) {
    levelb::BNet net{n, {}, false};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      net.terminals.push_back(
          Point{rng.uniform_int(0, size - 1), rng.uniform_int(0, size - 1)});
    }
    nets.push_back(std::move(net));
  }
  return nets;
}

LevelBSpec sparse5000_spec() {
  LevelBSpec spec;
  spec.name = "sparse-5000";
  spec.seed = 17;
  spec.size = 5000;
  spec.num_nets = 1200;
  spec.locality = 150;
  return spec;
}

LevelBSpec sparse100k_spec() {
  LevelBSpec spec;
  spec.name = "sparse-100k";
  spec.seed = 23;
  spec.size = 200000;
  spec.num_nets = 100000;
  spec.locality = 150;
  return spec;
}

LevelBSpec sparse100k_ci_spec() {
  LevelBSpec spec = sparse100k_spec();
  spec.name = "sparse-100k-ci";
  spec.num_nets = 4000;
  return spec;
}

}  // namespace ocr::bench_data
