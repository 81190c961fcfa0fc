#include <gtest/gtest.h>

#include "bench_data/synthetic.hpp"
#include "flow/check.hpp"
#include "flow/flow.hpp"
#include "partition/partition.hpp"

namespace ocr::flow {
namespace {

FlowArtifacts route_example(std::uint64_t seed, double scale = 0.5) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::random_spec(seed, scale));
  const auto layout = ml.assemble(
      std::vector<geom::Coord>(static_cast<std::size_t>(ml.num_channels()),
                               0));
  FlowArtifacts artifacts;
  run_over_cell_flow(ml, partition::partition_by_class(layout),
                     FlowOptions{}, &artifacts);
  return artifacts;
}

TEST(FlowCheck, CleanRunPasses) {
  const auto artifacts = route_example(101);
  const auto problems = check_over_cell_result(artifacts);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());
}

TEST(FlowCheck, ThreePaperExamplesPass) {
  for (const auto& spec : {bench_data::ami33_spec(), bench_data::xerox_spec(),
                           bench_data::ex3_spec()}) {
    const auto ml = bench_data::generate_macro_layout(spec);
    const auto layout = ml.assemble(
        std::vector<geom::Coord>(static_cast<std::size_t>(ml.num_channels()),
                                 0));
    FlowArtifacts artifacts;
    run_over_cell_flow(ml, partition::partition_by_class(layout),
                       FlowOptions{}, &artifacts);
    const auto problems = check_over_cell_result(artifacts);
    EXPECT_TRUE(problems.empty())
        << spec.name << ": " << (problems.empty() ? "" : problems.front());
  }
}

TEST(FlowCheck, DetectsInjectedCrossNetOverlap) {
  auto artifacts = route_example(102);
  // Corrupt: copy a wired path from one net into another net's result.
  levelb::NetResult* donor = nullptr;
  levelb::NetResult* victim = nullptr;
  for (auto& net : artifacts.levelb.nets) {
    if (!net.paths.empty()) {
      if (donor == nullptr) {
        donor = &net;
      } else if (victim == nullptr) {
        victim = &net;
        break;
      }
    }
  }
  ASSERT_NE(donor, nullptr);
  ASSERT_NE(victim, nullptr);
  victim->paths.push_back(donor->paths.front());
  const auto problems = check_over_cell_result(artifacts);
  bool overlap = false;
  for (const auto& p : problems) {
    if (p.find("overlap") != std::string::npos) overlap = true;
  }
  EXPECT_TRUE(overlap);
}

TEST(FlowCheck, DetectsInjectedDisconnection) {
  auto artifacts = route_example(103);
  // Corrupt: delete all wiring of a complete multi-pin net.
  for (auto& net : artifacts.levelb.nets) {
    if (net.complete && !net.paths.empty()) {
      net.paths.clear();
      break;
    }
  }
  const auto problems = check_over_cell_result(artifacts);
  bool flagged = false;
  for (const auto& p : problems) {
    if (p.find("no wiring") != std::string::npos ||
        p.find("disconnected") != std::string::npos ||
        p.find("not on the wiring") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(FlowCheck, DetectsInjectedObstacleViolation) {
  auto artifacts = route_example(104);
  // Corrupt: drop an obstacle right on top of an existing wire.
  const levelb::Path* wire = nullptr;
  for (const auto& net : artifacts.levelb.nets) {
    for (const auto& path : net.paths) {
      for (std::size_t leg = 0; leg + 1 < path.points.size(); ++leg) {
        if (path.points[leg].y == path.points[leg + 1].y &&
            std::abs(path.points[leg].x - path.points[leg + 1].x) > 40) {
          wire = &path;
        }
      }
    }
  }
  ASSERT_NE(wire, nullptr);
  const geom::Point mid{(wire->points[0].x + wire->points[1].x) / 2,
                        wire->points[0].y};
  artifacts.layout.add_obstacle(netlist::Obstacle{
      geom::Rect(mid.x - 5, mid.y - 5, mid.x + 5, mid.y + 5), true, true,
      "injected"});
  const auto problems = check_over_cell_result(artifacts);
  bool flagged = false;
  for (const auto& p : problems) {
    if (p.find("injected") != std::string::npos) flagged = true;
  }
  EXPECT_TRUE(flagged);
}

}  // namespace
}  // namespace ocr::flow
