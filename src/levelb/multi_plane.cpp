#include "levelb/multi_plane.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace ocr::levelb {

MultiPlaneResult route_two_planes(tig::TrackGrid& plane0,
                                  tig::TrackGrid& plane1,
                                  const std::vector<BNet>& nets,
                                  const MultiPlaneOptions& options) {
  MultiPlaneResult result;
  result.plane_of_net.assign(nets.size(), -1);

  // Plane assignment: largest nets first, each onto the plane with the
  // lighter accumulated wire demand (LPT balancing on half-perimeters).
  std::array<long long, 2> load{0, 0};
  std::array<std::vector<std::size_t>, 2> assigned;
  for (std::size_t i : order_nets(nets, NetOrdering::kLongestFirst)) {
    const int plane = load[0] <= load[1] ? 0 : 1;
    assigned[static_cast<std::size_t>(plane)].push_back(i);
    load[static_cast<std::size_t>(plane)] += net_extent(nets[i]);
  }

  // Route each plane; collect failures for the cross-plane retry.
  std::array<tig::TrackGrid*, 2> grids{&plane0, &plane1};
  std::array<std::vector<std::size_t>, 2> failed_on;
  for (int plane = 0; plane < 2; ++plane) {
    std::vector<BNet> subset;
    for (std::size_t i : assigned[static_cast<std::size_t>(plane)]) {
      subset.push_back(nets[i]);
    }
    LevelBRouter router(*grids[static_cast<std::size_t>(plane)],
                        options.router);
    LevelBResult plane_result = router.route(subset);
    // Map results back to input indices.
    for (NetResult& net : plane_result.nets) {
      const auto it =
          std::find_if(assigned[static_cast<std::size_t>(plane)].begin(),
                       assigned[static_cast<std::size_t>(plane)].end(),
                       [&nets, &net](std::size_t i) {
                         return nets[i].id == net.id;
                       });
      OCR_ASSERT(it != assigned[static_cast<std::size_t>(plane)].end(),
                 "plane result for an unassigned net");
      if (net.complete) {
        result.plane_of_net[*it] = plane;
        result.combined.nets.push_back(std::move(net));
      } else {
        failed_on[static_cast<std::size_t>(plane)].push_back(*it);
      }
    }
    result.combined.vertices_examined += plane_result.vertices_examined;
  }

  // Cross-plane retry: what failed on plane p gets one shot on 1-p.
  // (The failed attempt's partial wiring stays committed on its original
  // plane — conservative: it wastes a little capacity there but can never
  // corrupt the other plane.)
  for (int plane = 0; plane < 2; ++plane) {
    const int other = 1 - plane;
    if (failed_on[static_cast<std::size_t>(plane)].empty()) continue;
    std::vector<BNet> retry;
    for (std::size_t i : failed_on[static_cast<std::size_t>(plane)]) {
      retry.push_back(nets[i]);
    }
    LevelBRouter router(*grids[static_cast<std::size_t>(other)],
                        options.router);
    LevelBResult retry_result = router.route(retry);
    for (NetResult& net : retry_result.nets) {
      const auto it = std::find_if(
          failed_on[static_cast<std::size_t>(plane)].begin(),
          failed_on[static_cast<std::size_t>(plane)].end(),
          [&nets, &net](std::size_t i) { return nets[i].id == net.id; });
      OCR_ASSERT(it != failed_on[static_cast<std::size_t>(plane)].end(),
                 "retry result for an unexpected net");
      if (net.complete) {
        result.plane_of_net[*it] = other;
        ++result.rescued;
      }
      result.combined.nets.push_back(std::move(net));
    }
    result.combined.vertices_examined += retry_result.vertices_examined;
  }

  // Aggregate totals.
  for (const NetResult& net : result.combined.nets) {
    result.combined.total_wire_length += net.wire_length;
    result.combined.total_corners += net.corners;
    if (net.complete) {
      ++result.combined.routed_nets;
    } else {
      ++result.combined.failed_nets;
    }
  }
  return result;
}

}  // namespace ocr::levelb
