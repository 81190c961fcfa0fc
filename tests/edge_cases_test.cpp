/// \file edge_cases_test.cpp
/// \brief Failure paths and boundary conditions across modules.

#include <gtest/gtest.h>

#include "channel/greedy.hpp"
#include "flow/flow.hpp"
#include "global/global_router.hpp"
#include "levelb/router.hpp"
#include "mlchannel/multilayer.hpp"
#include "partition/partition.hpp"

namespace ocr {
namespace {

using floorplan::MacroCell;
using floorplan::MacroLayout;
using floorplan::MacroNet;
using floorplan::MacroPin;
using geom::Point;
using geom::Rect;

// ---- global router failure paths --------------------------------------

TEST(GlobalEdge, FeedthroughSaturationReported) {
  // One row with a single tiny gap: only ~1 feedthrough slot, but two
  // nets need to cross.
  MacroLayout ml("sat", 400);
  ml.add_row(80);
  // Cells cover everything except an 8-dbu sliver (pitch is 6 -> 1 slot).
  ml.add_cell(MacroCell{"a", 196, 80, 0, 0});
  ml.add_cell(MacroCell{"b", 196, 80, 0, 204});
  for (int n = 0; n < 2; ++n) {
    const int net =
        ml.add_net(MacroNet{std::string("n").append(std::to_string(n)),
                            netlist::NetClass::kSignal});
    ml.add_pin(MacroPin{net, 0, false, 20 + 12 * n});  // channel 0
    ml.add_pin(MacroPin{net, 0, true, 20 + 12 * n});   // channel 1
  }
  const auto result = global::global_route(ml, {0, 1});
  EXPECT_FALSE(result.success);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("feedthrough"), std::string::npos);
}

TEST(GlobalEdge, EmptyNetSetSucceeds) {
  MacroLayout ml("empty", 400);
  ml.add_row(80);
  ml.add_cell(MacroCell{"a", 100, 80, 0, 50});
  const auto result = global::global_route(ml, {});
  EXPECT_TRUE(result.success);
  EXPECT_TRUE(result.feedthroughs.empty());
  for (const auto& channel : result.channels) {
    EXPECT_EQ(channel.max_net(), 0);
  }
}

TEST(GlobalEdge, SinglePinNetSkipped) {
  MacroLayout ml("one", 400);
  ml.add_row(80);
  ml.add_cell(MacroCell{"a", 100, 80, 0, 50});
  const int net = ml.add_net(MacroNet{"n", netlist::NetClass::kSignal});
  ml.add_pin(MacroPin{net, 0, true, 20});
  const auto result = global::global_route(ml, {net});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.channels[1].max_net(), 0);  // nothing landed
}

// ---- level-B edge cases -------------------------------------------------

TEST(LevelBEdge, EmptyNetList) {
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
  levelb::LevelBRouter router(grid);
  const auto result = router.route({});
  EXPECT_EQ(result.routed_nets, 0);
  EXPECT_EQ(result.failed_nets, 0);
  EXPECT_DOUBLE_EQ(result.completion_rate(), 1.0);
}

TEST(LevelBEdge, TerminalOutsideDieClamps) {
  auto grid = tig::TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
  levelb::LevelBRouter router(grid);
  // Terminals outside the extent snap to boundary tracks.
  const auto result = router.route(
      {levelb::BNet{1, {Point{-50, -50}, Point{500, 500}}}});
  EXPECT_EQ(result.failed_nets, 0);
  EXPECT_GT(result.nets[0].wire_length, 0);
}

TEST(LevelBEdge, MinimalGridOneCrossing) {
  // A 1x1 grid: every net is trivially coincident.
  tig::TrackGrid grid({50}, {50}, Rect(0, 0, 100, 100));
  levelb::LevelBRouter router(grid);
  const auto result =
      router.route({levelb::BNet{1, {Point{10, 10}, Point{90, 90}}}});
  EXPECT_TRUE(result.nets[0].complete);  // both snap to (50,50)
  EXPECT_EQ(result.nets[0].wire_length, 0);
}

// ---- multilayer channel edge cases -------------------------------------

TEST(MlChannelEdge, SinglePairEqualsGreedy) {
  channel::ChannelProblem p;
  p.top = {1, 0, 2, 0};
  p.bot = {0, 1, 0, 2};
  mlchannel::MultiLayerOptions options;
  options.layer_pairs = 1;
  const auto multi = mlchannel::route_multilayer(p, options);
  const auto greedy = channel::route_greedy(p);
  ASSERT_TRUE(multi.success);
  ASSERT_TRUE(greedy.success);
  EXPECT_EQ(multi.max_group_tracks, greedy.num_tracks);
  EXPECT_EQ(multi.wire_length(), greedy.wire_length());
}

TEST(MlChannelEdge, ChannelHeightZeroWhenEmpty) {
  channel::ChannelProblem p;
  p.top = {0, 0};
  p.bot = {0, 0};
  const auto result = mlchannel::route_multilayer(p);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.channel_height(geom::DesignRules{}), 0);
}

// ---- flow edge cases ----------------------------------------------------

TEST(FlowEdge, InstanceWithoutCriticalNets) {
  // partition_by_class yields an empty set A; the over-cell flow must
  // handle zero level-A nets (all channels empty).
  MacroLayout ml("nocrit", 2000);
  ml.add_row(300);
  ml.add_row(300);
  ml.add_cell(MacroCell{"a", 600, 300, 0, 100});
  ml.add_cell(MacroCell{"b", 600, 300, 0, 900});
  ml.add_cell(MacroCell{"c", 600, 300, 1, 100});
  ml.add_cell(MacroCell{"d", 600, 300, 1, 900});
  for (int n = 0; n < 6; ++n) {
    const int net =
        ml.add_net(MacroNet{std::string("n").append(std::to_string(n)),
                            netlist::NetClass::kSignal});
    ml.add_pin(MacroPin{net, n % 4, true, 60 + 30 * n});
    ml.add_pin(MacroPin{net, (n + 1) % 4, false, 90 + 30 * n});
  }
  const auto layout = ml.assemble(
      std::vector<geom::Coord>(static_cast<std::size_t>(ml.num_channels()),
                               0));
  const auto partition = partition::partition_by_class(layout);
  EXPECT_TRUE(partition.set_a.empty());
  const auto metrics = flow::run_over_cell_flow(ml, partition);
  EXPECT_TRUE(metrics.success)
      << (metrics.problems.empty() ? "" : metrics.problems[0]);
  EXPECT_EQ(metrics.total_channel_tracks, 0);
}

TEST(FlowEdge, FourLayerArtifactsExposed) {
  MacroLayout ml("fourl", 2000);
  ml.add_row(300);
  ml.add_cell(MacroCell{"a", 600, 300, 0, 100});
  ml.add_cell(MacroCell{"b", 600, 300, 0, 900});
  const int net = ml.add_net(MacroNet{"n", netlist::NetClass::kSignal});
  ml.add_pin(MacroPin{net, 0, true, 60});
  ml.add_pin(MacroPin{net, 1, true, 90});
  flow::FlowArtifacts artifacts;
  const auto metrics =
      flow::run_four_layer_channel_flow(ml, flow::FlowOptions{},
                                        &artifacts);
  EXPECT_TRUE(metrics.success);
  EXPECT_TRUE(artifacts.layout.validate().empty());
  EXPECT_EQ(static_cast<int>(artifacts.channel_heights.size()),
            ml.num_channels());
}

// ---- greedy channel router extension columns ---------------------------

TEST(GreedyEdge, ExtensionColumnsReported) {
  // A net pair that cannot collapse before the channel end: the greedy
  // router extends past the last pin column.
  channel::ChannelProblem p;
  p.top = {1, 2};
  p.bot = {2, 1};
  const auto route = channel::route_greedy(p);
  ASSERT_TRUE(route.success);
  EXPECT_GE(route.num_columns_used, p.num_columns());
  EXPECT_TRUE(channel::validate_route(p, route).empty());
}

}  // namespace
}  // namespace ocr
