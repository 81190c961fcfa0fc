#include "levelb/router.hpp"

#include <chrono>

#include "util/profile.hpp"

namespace ocr::levelb {

using geom::Point;

RouteRun::RouteRun(tig::TrackGrid& grid, const LevelBOptions& options,
                   const std::vector<BNet>& nets, const char* mode)
    : grid_(grid),
      options_(options),
      mode_(mode),
      order_(order_nets(nets, options.ordering)),
      snapped_(snap_and_reserve_terminals(grid, nets)),
      unrouted_(snapped_, order_, unrouted_bucket_edge(grid, options)),
      nets_(order_.size()),
      terminals_(order_.size()),
      results_(order_.size()),
      committed_(order_.size()),
      hists_(util::net_search_histograms()) {
  for (std::size_t k = 0; k < order_.size(); ++k) {
    nets_[k] = &nets[order_[k]];
    terminals_[k] = &snapped_[order_[k]];
  }
}

RoutedNet RouteRun::route_serial(std::size_t k) {
  OCR_SPAN("levelb.net");
  RoutedNet routed;
  for (const Point& p : *terminals_[k]) unblock_terminal(grid_, p);
  const auto start = std::chrono::steady_clock::now();
  routed.result = route_single_net(grid_, options_, request(k),
                                   routed.committed, routed.stats, nullptr,
                                   &workspace_);
  routed.search_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  for (const Point& p : *terminals_[k]) block_terminal(grid_, p);
  return routed;
}

void RouteRun::commit(std::size_t k, RoutedNet routed, TraceFields extra) {
  {
    OCR_SPAN("levelb.commit");
    commit_extents(grid_, routed.committed);
  }
  if (nets_[k]->sensitive) {
    for (const Committed& c : routed.committed) {
      sensitive_.add(c.track, c.extent);
    }
  }
  stats_ += routed.stats;
  hists_.search_us.observe(routed.search_us);
  hists_.vertices.observe(routed.stats.vertices_examined);

  if (options_.trace != nullptr) {
    util::TraceEvent ev("net");
    ev.add("net", nets_[k]->id)
        .add("order", static_cast<long long>(k))
        .add("mode", mode_)
        .add("complete", routed.result.complete)
        .add("wire_length", static_cast<long long>(routed.result.wire_length))
        .add("corners", routed.result.corners)
        .add("vertices_examined", routed.stats.vertices_examined)
        .add("window_growths", routed.stats.window_growths)
        .add("candidates", routed.stats.candidates)
        .add("search_us", routed.search_us);
    for (const auto& [key, value] : extra) ev.add(key, value);
    options_.trace->record(std::move(ev));
  }
  results_[k] = std::move(routed.result);
  committed_[k] = std::move(routed.committed);
}

LevelBResult RouteRun::finish() {
  // Rip-up and reroute rounds (extension; see LevelBOptions), over the
  // per-position results and extents the commits kept.
  std::vector<std::vector<Point>> snapped_by_order(size());
  std::vector<BNet> nets_by_order(size());
  for (std::size_t k = 0; k < size(); ++k) {
    snapped_by_order[k] = *terminals_[k];
    nets_by_order[k] = *nets_[k];
  }
  const int recovered = [&] {
    OCR_SPAN("levelb.ripup");
    return run_ripup_rounds(grid_, options_, nets_by_order, snapped_by_order,
                            results_, committed_, stats_, &workspace_);
  }();

  workspace_.publish_metrics();
  LevelBResult result = assemble_result(std::move(results_), stats_);
  result.ripup_recovered = recovered;
  return result;
}

LevelBRouter::LevelBRouter(tig::TrackGrid& grid, LevelBOptions options)
    : grid_(grid), options_(options) {}

LevelBResult LevelBRouter::route(const std::vector<BNet>& nets) {
  RouteRun run(grid_, options_, nets);
  for (std::size_t k = 0; k < run.size(); ++k) {
    run.commit(k, run.route_serial(k));
  }
  return run.finish();
}

}  // namespace ocr::levelb
