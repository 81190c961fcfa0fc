#pragma once
/// \file admission.hpp
/// \brief Cheap pre-route estimation and admission control for the
/// routing service.
///
/// Before a job is queued, the service computes a back-of-envelope
/// routability estimate in the spirit of early-routability-assessment
/// models: wiring *demand* is the sum of net bounding-box half-perimeters
/// (the classic HPWL lower bound on wire length), wiring *capacity* is
/// the over-cell track supply implied by the die outline and the level-B
/// layer pitches. Their ratio is a congestion figure that costs one pass
/// over the pins — no routing, no TIG construction.
///
/// The AdmissionPolicy turns the estimate into one of three decisions:
///
/// * **admit**    — run the job as requested;
/// * **down-tier** — run it, but cap the per-net search effort (and
///   thereby the worst-case latency) because the estimate says the
///   instance is congested enough to risk pathological search blow-up;
/// * **reject**   — refuse immediately (queue full, instance over the
///   hard size/congestion ceiling). Rejection is always an immediate
///   response, never a hang — the overload contract of docs/SERVICE.md.

#include <cstddef>
#include <string>

#include "floorplan/macro_layout.hpp"
#include "netlist/layout.hpp"

namespace ocr::service {

/// Pre-route size/congestion figures for one job instance.
struct RouteEstimate {
  int cells = 0;
  int nets = 0;
  int pins = 0;
  /// Sum of per-net bounding-box half-perimeters, dbu (HPWL demand).
  long long demand_dbu = 0;
  /// Over-cell wiring supply: horizontal metal3 track length plus
  /// vertical metal4 track length over the die, dbu.
  long long capacity_dbu = 0;
  /// demand / capacity; 0 when the die is degenerate.
  double congestion = 0.0;
};

/// Computes the estimate from the zero-height assembly of \p ml (the
/// same assembly the partition policies use, so callers share it).
RouteEstimate estimate_route(const floorplan::MacroLayout& ml,
                             const netlist::Layout& zero_assembled);

/// What the executor decided about a submitted job.
enum class AdmissionDecision { kAdmit, kDowntier, kReject };

/// Thresholds; zero disables the corresponding check.
struct AdmissionPolicy {
  /// Bounded job queue: submissions beyond this many pending jobs are
  /// rejected immediately.
  long long queue_limit = 16;
  /// Hard ceiling on instance net count.
  long long max_nets = 0;
  /// Hard ceiling on estimated congestion (demand / capacity).
  double reject_congestion = 0.0;
  /// Above this congestion the job is admitted but down-tiered.
  double downtier_congestion = 0.0;
  /// Per-net vertex budget imposed on down-tiered jobs (only ever
  /// tightens a job's own budget, never loosens it).
  long long downtier_net_effort = 100000;
};

/// Applies the size/congestion rungs of \p policy to \p estimate. The
/// queue bound is enforced separately by the queue itself. On kReject,
/// \p reason (when non-null) receives a human-readable explanation.
AdmissionDecision admit(const AdmissionPolicy& policy,
                        const RouteEstimate& estimate,
                        std::string* reason = nullptr);

}  // namespace ocr::service
