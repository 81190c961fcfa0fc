#include "levelb/router.hpp"

#include <chrono>

#include "levelb/net_core.hpp"
#include "levelb/workspace.hpp"
#include "util/metrics.hpp"
#include "util/profile.hpp"

namespace ocr::levelb {
namespace {

using geom::Orientation;
using geom::Point;

long long micros_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

LevelBRouter::LevelBRouter(tig::TrackGrid& grid, LevelBOptions options)
    : grid_(grid), options_(options) {}

LevelBResult LevelBRouter::route(const std::vector<BNet>& nets) {
  const std::vector<std::size_t> order = order_nets(nets, options_.ordering);
  const std::vector<std::vector<Point>> snapped =
      snap_and_reserve_terminals(grid_, nets);
  const UnroutedSuffix unrouted(snapped, order,
                                unrouted_bucket_edge(grid_, options_));

  // First pass, in the configured order. Results and committed extents are
  // kept per net (order position) so rip-up rounds can revisit them.
  std::vector<NetResult> results(order.size());
  std::vector<std::vector<Committed>> net_committed(order.size());
  SearchStats stats;
  SensitiveRuns sensitive;
  SearchWorkspace workspace;  // reused by every search of this run
  const util::NetSearchHistograms net_hists = util::net_search_histograms();
  for (std::size_t k = 0; k < order.size(); ++k) {
    OCR_SPAN("levelb.net");
    const BNet& net = nets[order[k]];
    const SearchStats before = stats;
    const auto start = std::chrono::steady_clock::now();

    for (const Point& p : snapped[order[k]]) unblock_terminal(grid_, p);
    results[k] = route_single_net(
        grid_, options_,
        NetRouteRequest{net.id, &snapped[order[k]], unrouted.suffix(k),
                        &sensitive},
        net_committed[k], stats, nullptr, &workspace);
    for (const Point& p : snapped[order[k]]) block_terminal(grid_, p);

    // Commit the finished net: its extents become obstacles for the nets
    // that follow (the paper's per-connection array update).
    commit_extents(grid_, net_committed[k]);
    if (net.sensitive) {
      for (const Committed& c : net_committed[k]) {
        if (c.track.orient == Orientation::kHorizontal) {
          sensitive.add_h(c.track.index, c.extent);
        } else {
          sensitive.add_v(c.track.index, c.extent);
        }
      }
    }

    net_hists.search_us.observe(micros_since(start));
    net_hists.vertices.observe(stats.vertices_examined -
                               before.vertices_examined);
    if (options_.trace != nullptr) {
      util::TraceEvent ev("net");
      ev.add("net", net.id)
          .add("order", static_cast<long long>(k))
          .add("mode", "serial")
          .add("complete", results[k].complete)
          .add("wire_length",
               static_cast<long long>(results[k].wire_length))
          .add("corners", results[k].corners)
          .add("vertices_examined",
               stats.vertices_examined - before.vertices_examined)
          .add("window_growths",
               stats.window_growths - before.window_growths)
          .add("candidates", stats.candidates - before.candidates)
          .add("search_us", micros_since(start));
      options_.trace->record(std::move(ev));
    }
  }

  // Rip-up and reroute rounds (extension; see LevelBOptions).
  std::vector<std::vector<Point>> snapped_by_order(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    snapped_by_order[k] = snapped[order[k]];
  }
  std::vector<BNet> nets_by_order(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    nets_by_order[k] = nets[order[k]];
  }
  const int recovered = [&] {
    OCR_SPAN("levelb.ripup");
    return run_ripup_rounds(grid_, options_, nets_by_order,
                            snapped_by_order, results, net_committed, stats,
                            &workspace);
  }();

  workspace.publish_metrics();
  LevelBResult result = assemble_result(std::move(results), stats);
  result.ripup_recovered = recovered;
  return result;
}

}  // namespace ocr::levelb
