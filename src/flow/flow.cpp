#include "flow/flow.hpp"

#include "engine/engine.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/log.hpp"
#include "util/mem.hpp"
#include "util/profile.hpp"

namespace ocr::flow {
namespace {

using floorplan::MacroLayout;
using geom::Coord;

std::vector<int> to_indices(const std::vector<netlist::NetId>& ids) {
  std::vector<int> out;
  out.reserve(ids.size());
  for (netlist::NetId id : ids) out.push_back(static_cast<int>(id.index()));
  return out;
}

/// Every net of \p ml, for the flows that route all of them in channels.
std::vector<int> all_nets(const MacroLayout& ml) {
  std::vector<int> out(ml.nets().size());
  std::iota(out.begin(), out.end(), 0);
  return out;
}

/// Wire length of one channel route: horizontal runs at the column
/// pitch, vertical runs at \p track_pitch.
long long channel_wire_length(const channel::ChannelRoute& route,
                              Coord col_pitch, Coord track_pitch) {
  long long h_len = 0;
  long long v_len = 0;
  for (const channel::HSeg& h : route.hsegs) h_len += h.col_hi - h.col_lo;
  for (const channel::VSeg& v : route.vsegs) v_len += v.row_hi - v.row_lo;
  return h_len * col_pitch + v_len * track_pitch;
}

/// Channel routing of a net subset: the global route, each channel's
/// routes, and the channel heights and level-A share of the metrics they
/// give.
struct LevelAOutcome {
  bool success = true;
  std::vector<std::string> problems;
  global::GlobalRouteResult global;
  std::vector<channel::ChannelRoute> routes;
  std::vector<Coord> heights;
  long long wire_length = 0;
  int vias = 0;
  int total_tracks = 0;
};

/// The run's cancel check before each level-A step (flow::run's deadline
/// and the daemon's drain and hang limit): a cancelled run skips the
/// step and all after it, never half-routing one, and says where it
/// stopped.
bool cancelled_before(LevelAOutcome& out, const FlowOptions& options,
                      const std::string& step) {
  const util::CancelToken& cancel = options.levelb.finder.cancel;
  if (!cancel.cancelled()) return false;
  out.success = false;
  out.problems.push_back("level A cancelled before " + step + ": " +
                         cancel.reason().to_string());
  return true;
}

/// Global routing of \p nets into the channels, the first step of every
/// channel flow: the outcome carries the feedthroughs' wire length and
/// vias, and zero channel heights. A cancelled run gets no channels.
LevelAOutcome route_global(const MacroLayout& ml,
                           const std::vector<int>& nets,
                           const FlowOptions& options) {
  LevelAOutcome out;
  out.heights.resize(static_cast<std::size_t>(ml.num_channels()), 0);
  if (cancelled_before(out, options, "global routing")) return out;
  global::GlobalOptions gopt;
  gopt.column_pitch =
      ml.rules().channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);
  out.global = global::global_route(ml, nets, gopt);
  if (!out.global.success) {
    out.success = false;
    out.problems = out.global.problems;
  }
  out.wire_length = out.global.feedthrough_length;
  out.vias = out.global.feedthrough_vias;
  return out;
}

/// Level-A routing of \p nets: global route into channels, then greedy
/// two-layer detail routing per channel.
LevelAOutcome route_level_a(const MacroLayout& ml,
                            const std::vector<int>& nets,
                            const FlowOptions& options) {
  OCR_SPAN("flow.levelA");
  LevelAOutcome out = route_global(ml, nets, options);
  const Coord col_pitch =
      ml.rules().channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);
  const Coord track_pitch = col_pitch;
  for (std::size_t c = 0; c < out.global.channels.size(); ++c) {
    if (cancelled_before(out, options, "channel " + std::to_string(c))) break;
    const channel::ChannelProblem& problem = out.global.channels[c];
    channel::ChannelRoute route =
        channel::route_greedy(problem, options.greedy);
    if (!route.success) {
      out.success = false;
      out.problems.push_back("channel " + std::to_string(c) + ": " +
                             route.failure_reason);
    }
    const bool has_pins = problem.max_net() > 0;
    out.heights[c] = std::max(
        static_cast<Coord>(route.num_tracks) * track_pitch +
            (has_pins ? options.channel_margin : 0),
        options.min_channel_height);
    out.total_tracks += route.num_tracks;
    out.wire_length += channel_wire_length(route, col_pitch, track_pitch);
    out.vias += route.via_count();
    out.routes.push_back(std::move(route));
  }
  return out;
}

/// Builds the level-B routing grid over the assembled layout, applying
/// over-cell obstacles.
tig::TrackGrid make_levelb_grid(const netlist::Layout& layout) {
  const geom::DesignRules& rules = layout.rules();
  tig::TrackGrid grid = tig::TrackGrid::uniform(
      layout.die(), rules.rule(geom::Layer::kMetal3).pitch(),
      rules.rule(geom::Layer::kMetal4).pitch());
  for (const netlist::Obstacle& obstacle : layout.obstacles()) {
    if (obstacle.blocks_metal3) grid.block_region_h(obstacle.region);
    if (obstacle.blocks_metal4) grid.block_region_v(obstacle.region);
  }
  return grid;
}

void fill_common(FlowMetrics& m, const MacroLayout& ml,
                 const LevelAOutcome& a) {
  m.example_name = ml.name();
  m.die_width = ml.die_width();
  m.die_height = ml.die_height(a.heights);
  m.layout_area = m.die_width * m.die_height;
  m.wire_length = a.wire_length;
  m.vias = a.vias;
  m.total_channel_tracks = a.total_tracks;
  if (!a.success) {
    m.success = false;
    m.problems.insert(m.problems.end(), a.problems.begin(),
                      a.problems.end());
  }
}

}  // namespace

double percent_reduction(double baseline, double ours) {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

FlowMetrics run_two_layer_flow(const MacroLayout& ml,
                               const FlowOptions& options,
                               FlowArtifacts* artifacts) {
  FlowMetrics m;
  m.flow_name = "2-layer channel";
  const LevelAOutcome a = route_level_a(ml, all_nets(ml), options);
  fill_common(m, ml, a);
  m.levela_nets = static_cast<int>(ml.nets().size());
  if (artifacts != nullptr) {
    artifacts->layout = ml.assemble(a.heights);
    artifacts->channel_heights = a.heights;
    artifacts->channel_routes = a.routes;
    artifacts->global = a.global;
  }
  return m;
}

FlowMetrics run_over_cell_flow(const MacroLayout& ml,
                               const partition::NetPartition& partition,
                               const FlowOptions& options,
                               FlowArtifacts* artifacts) {
  FlowMetrics m;
  m.flow_name = "4-layer over-cell";

  // Level A: the selected subset in channels.
  const LevelAOutcome a =
      route_level_a(ml, to_indices(partition.set_a), options);
  fill_common(m, ml, a);
  m.levela_nets = static_cast<int>(partition.set_a.size());
  m.levelb_nets = static_cast<int>(partition.set_b.size());

  // The layout is now fixed (§2): assemble and route level B on top.
  netlist::Layout layout = [&] {
    OCR_SPAN("flow.assemble");
    return ml.assemble(a.heights);
  }();
  tig::TrackGrid grid = [&] {
    OCR_SPAN("flow.tig_build");
    return make_levelb_grid(layout);
  }();

  std::vector<levelb::BNet> bnets;
  for (netlist::NetId id : partition.set_b) {
    levelb::BNet bnet;
    bnet.id = static_cast<int>(id.index());
    bnet.terminals = layout.net_pin_positions(id);
    bnets.push_back(std::move(bnet));
  }
  engine::EngineOptions eopt;
  eopt.levelb = options.levelb;
  eopt.threads = options.levelb_threads;
  engine::RoutingEngine router(grid, eopt);
  levelb::LevelBResult b = [&] {
    OCR_SPAN("flow.levelB");
    return router.route(bnets);
  }();
  m.levelb_vertices = b.vertices_examined;
  m.engine = router.stats();
  m.peak_rss_kb = util::peak_rss_kb();
  m.tig_grid_bytes = static_cast<long long>(grid.grid_bytes());
  m.degrade_ripup_recovered = b.ripup_recovered;
  m.unrouted_nets = b.failed_nets;
  m.cancelled_nets = b.cancelled_nets;
  m.budget_nets = b.budget_nets;

  m.wire_length += b.total_wire_length;
  int b_terminals = 0;
  for (netlist::NetId id : partition.set_b) {
    b_terminals += layout.net(id).degree();
  }
  m.vias += b.total_corners + options.terminal_stack_vias * b_terminals;
  m.levelb_completion = b.completion_rate();
  if (b.failed_nets > 0) {
    m.problems.push_back(std::to_string(b.failed_nets) +
                         " level-B nets incomplete");
  }

  if (artifacts != nullptr) {
    artifacts->channel_heights = a.heights;
    artifacts->channel_routes = a.routes;
    artifacts->global = a.global;
    artifacts->levelb = std::move(b);
    for (const netlist::Obstacle& o : layout.obstacles()) {
      artifacts->levelb_obstacles.push_back(o.region);
    }
    artifacts->layout = std::move(layout);
  }
  return m;
}

FlowMetrics run_four_layer_channel_flow(const MacroLayout& ml,
                                        const FlowOptions& options,
                                        FlowArtifacts* artifacts) {
  FlowMetrics m;
  m.flow_name = "4-layer channel";
  LevelAOutcome a = route_global(ml, all_nets(ml), options);
  const geom::DesignRules& rules = ml.rules();
  const Coord pitch12 =
      rules.channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);
  const Coord pitch34 =
      rules.channel_pitch(geom::Layer::kMetal3, geom::Layer::kMetal4);
  mlchannel::MultiLayerOptions mlopt;
  mlopt.greedy = options.greedy;
  OCR_SPAN("flow.mlchannel");
  for (std::size_t c = 0; c < a.global.channels.size(); ++c) {
    if (cancelled_before(a, options, "channel " + std::to_string(c))) break;
    const channel::ChannelProblem& problem = a.global.channels[c];
    mlchannel::MultiLayerChannelResult result =
        mlchannel::route_multilayer(problem, mlopt);
    if (!result.success) {
      a.success = false;
      a.problems.push_back("channel " + std::to_string(c) + ": " +
                           result.failure_reason);
    }
    const bool has_pins = problem.max_net() > 0;
    a.heights[c] = result.channel_height(rules) +
        (has_pins ? options.channel_margin : 0);
    // Wire length: horizontal runs at the column pitch; vertical runs at
    // each group's track pitch (group 1 pays the metal3/4 pitch).
    for (std::size_t g = 0; g < result.group_routes.size(); ++g) {
      const channel::ChannelRoute& route = result.group_routes[g];
      a.wire_length += channel_wire_length(route, pitch12,
                                           g == 0 ? pitch12 : pitch34);
      a.total_tracks += route.num_tracks;
    }
    a.vias += result.via_count();
  }
  fill_common(m, ml, a);
  m.levela_nets = static_cast<int>(ml.nets().size());
  if (artifacts != nullptr) {
    artifacts->layout = ml.assemble(a.heights);
    artifacts->channel_heights = a.heights;
    artifacts->global = std::move(a.global);
  }
  return m;
}

FlowMetrics run_fifty_percent_model_flow(const MacroLayout& ml,
                                         const FlowOptions& options) {
  // Paper's Table-3 comparator: take the two-layer solution and halve each
  // channel's track count at the metal1/2 pitch (optimistically ignoring
  // the coarser upper-layer rules). Only the area is meaningful: the
  // model replaces each channel's height and track count, and keeps the
  // two-layer wire length and vias.
  FlowMetrics m;
  m.flow_name = "50% track model";
  LevelAOutcome a = route_level_a(ml, all_nets(ml), options);
  const Coord pitch =
      ml.rules().channel_pitch(geom::Layer::kMetal1, geom::Layer::kMetal2);
  a.total_tracks = 0;
  for (std::size_t c = 0; c < a.routes.size(); ++c) {
    const int halved =
        mlchannel::fifty_percent_track_model(a.routes[c].num_tracks);
    const bool has_pins = a.global.channels[c].max_net() > 0;
    a.heights[c] = static_cast<Coord>(halved) * pitch +
                   (has_pins ? options.channel_margin : 0);
    a.total_tracks += halved;
  }
  fill_common(m, ml, a);
  m.levela_nets = static_cast<int>(ml.nets().size());
  return m;
}

}  // namespace ocr::flow
