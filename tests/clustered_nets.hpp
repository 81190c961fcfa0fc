#pragma once
/// \file clustered_nets.hpp
/// \brief Local nets scattered over a large die — the workload the
/// sharded engine targets. Shared by the engine tests that need batches
/// wider than one net.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "levelb/net_core.hpp"
#include "util/rng.hpp"

namespace ocr::test {

/// \p count nets of degree 2..4, each with terminals within \p locality of
/// a uniform random centre on a \p size die. Every seventh net is
/// sensitive when requested (exercising the batch-closing rule and the
/// w24 registry handoff).
inline std::vector<levelb::BNet> clustered_nets(std::uint64_t seed,
                                                geom::Coord size, int count,
                                                geom::Coord locality,
                                                bool with_sensitive) {
  util::Rng rng(seed);
  std::vector<levelb::BNet> nets;
  for (int n = 0; n < count; ++n) {
    levelb::BNet net{n, {}};
    const geom::Point center{rng.uniform_int(0, size - 1),
                             rng.uniform_int(0, size - 1)};
    const int degree = static_cast<int>(rng.uniform_int(2, 4));
    for (int t = 0; t < degree; ++t) {
      const geom::Coord x = std::clamp<geom::Coord>(
          center.x + rng.uniform_int(0, 2 * locality) - locality, 0,
          size - 1);
      const geom::Coord y = std::clamp<geom::Coord>(
          center.y + rng.uniform_int(0, 2 * locality) - locality, 0,
          size - 1);
      net.terminals.push_back(geom::Point{x, y});
    }
    net.sensitive = with_sensitive && n % 7 == 3;
    nets.push_back(std::move(net));
  }
  return nets;
}

}  // namespace ocr::test
