#include "service/admission.hpp"

#include <algorithm>

#include "geom/layers.hpp"
#include "util/str.hpp"

namespace ocr::service {

RouteEstimate estimate_route(const floorplan::MacroLayout& ml,
                             const netlist::Layout& zero_assembled) {
  const netlist::Layout& layout = zero_assembled;
  RouteEstimate est;
  est.cells = static_cast<int>(layout.cells().size());
  est.nets = static_cast<int>(layout.nets().size());
  est.pins = static_cast<int>(layout.pins().size());

  // Demand: per-net bounding box of pin positions, half-perimeter.
  for (const netlist::Net& net : layout.nets()) {
    if (net.pins.size() < 2) continue;
    geom::Coord min_x = 0, max_x = 0, min_y = 0, max_y = 0;
    bool first = true;
    for (const netlist::PinId pin_id : net.pins) {
      const geom::Point& p = layout.pin(pin_id).position;
      if (first) {
        min_x = max_x = p.x;
        min_y = max_y = p.y;
        first = false;
      } else {
        min_x = std::min(min_x, p.x);
        max_x = std::max(max_x, p.x);
        min_y = std::min(min_y, p.y);
        max_y = std::max(max_y, p.y);
      }
    }
    est.demand_dbu += (max_x - min_x) + (max_y - min_y);
  }

  // Capacity: level-B routes horizontal wires on metal3 and vertical
  // wires on metal4; the track supply over the zero-height assembly is a
  // (slightly optimistic) proxy for the real TIG built after level A —
  // channels only grow the die, so the real capacity is at least this.
  const geom::Rect& die = zero_assembled.die();
  const geom::DesignRules& rules = ml.rules();
  const geom::Coord h_pitch = rules.rule(geom::Layer::kMetal3).pitch();
  const geom::Coord v_pitch = rules.rule(geom::Layer::kMetal4).pitch();
  const geom::Coord width = die.width();
  const geom::Coord height = die.height();
  if (width > 0 && height > 0 && h_pitch > 0 && v_pitch > 0) {
    const long long h_tracks = height / h_pitch;
    const long long v_tracks = width / v_pitch;
    est.capacity_dbu = h_tracks * width + v_tracks * height;
  }
  if (est.capacity_dbu > 0) {
    est.congestion = static_cast<double>(est.demand_dbu) /
                     static_cast<double>(est.capacity_dbu);
  }
  return est;
}

AdmissionDecision admit(const AdmissionPolicy& policy,
                        const RouteEstimate& estimate, std::string* reason) {
  if (policy.max_nets > 0 && estimate.nets > policy.max_nets) {
    if (reason != nullptr) {
      *reason = util::format("instance has %d nets, admission limit is %lld",
                             estimate.nets, policy.max_nets);
    }
    return AdmissionDecision::kReject;
  }
  if (policy.reject_congestion > 0.0 &&
      estimate.congestion > policy.reject_congestion) {
    if (reason != nullptr) {
      *reason = util::format(
          "estimated congestion %.3f exceeds admission ceiling %.3f",
          estimate.congestion, policy.reject_congestion);
    }
    return AdmissionDecision::kReject;
  }
  if (policy.downtier_congestion > 0.0 &&
      estimate.congestion > policy.downtier_congestion) {
    return AdmissionDecision::kDowntier;
  }
  return AdmissionDecision::kAdmit;
}

}  // namespace ocr::service
