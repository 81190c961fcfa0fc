#include <gtest/gtest.h>

#include "tig/congestion.hpp"

namespace ocr::tig {
namespace {

constexpr geom::Orientation kH = geom::Orientation::kHorizontal;
constexpr geom::Orientation kV = geom::Orientation::kVertical;

using geom::Interval;
using geom::Rect;

TEST(Congestion, EmptyGridIsZero) {
  const auto grid = TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  const auto report = analyze_congestion(grid, 4);
  EXPECT_DOUBLE_EQ(report.horizontal.mean_utilization, 0.0);
  EXPECT_DOUBLE_EQ(report.vertical.mean_utilization, 0.0);
  EXPECT_DOUBLE_EQ(report.peak_region(), 0.0);
  EXPECT_EQ(report.horizontal.full_tracks, 0);
}

TEST(Congestion, FullyBlockedGridIsOne) {
  auto grid = TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  grid.block_region_h(Rect(0, 0, 400, 400));
  grid.block_region_v(Rect(0, 0, 400, 400));
  const auto report = analyze_congestion(grid, 4);
  EXPECT_GT(report.horizontal.mean_utilization, 0.99);
  EXPECT_GT(report.vertical.mean_utilization, 0.99);
  EXPECT_GT(report.peak_region(), 0.99);
  EXPECT_EQ(report.horizontal.full_tracks, grid.num_h());
  EXPECT_EQ(report.vertical.full_tracks, grid.num_v());
}

TEST(Congestion, HotspotShowsInOneRegion) {
  auto grid = TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  // Block the bottom-left quadrant densely (both layers).
  grid.block_region_h(Rect(0, 0, 100, 100));
  grid.block_region_v(Rect(0, 0, 100, 100));
  const auto report = analyze_congestion(grid, 4);
  // Bin (0,0) should dominate.
  const double corner = report.region_utilization[0];
  EXPECT_GT(corner, 0.5);
  // Far corner untouched.
  const double far = report.region_utilization.back();
  EXPECT_LT(far, 0.05);
}

TEST(Congestion, MeanMatchesHandComputation) {
  auto grid = TrackGrid::uniform(Rect(0, 0, 100, 100), 10, 10);
  // Block exactly half of one horizontal track (of 10).
  grid.block({kH, 0}, Interval(0, 50));
  const auto report = analyze_congestion(grid);
  EXPECT_NEAR(report.horizontal.mean_utilization, 0.05, 0.01);
  EXPECT_NEAR(report.horizontal.max_utilization, 0.5, 0.01);
}

TEST(Congestion, ToStringRendersHeatMap) {
  auto grid = TrackGrid::uniform(Rect(0, 0, 400, 400), 10, 10);
  grid.block_region_h(Rect(0, 0, 400, 400));
  grid.block_region_v(Rect(0, 0, 400, 400));
  const auto report = analyze_congestion(grid, 4);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("horizontal tracks"), std::string::npos);
  EXPECT_NE(text.find('#'), std::string::npos);  // hot cells
}

class CongestionBinSweep : public ::testing::TestWithParam<int> {};

TEST_P(CongestionBinSweep, RegionCountMatchesBins) {
  auto grid = TrackGrid::uniform(Rect(0, 0, 300, 300), 10, 10);
  grid.block_region_h(Rect(50, 50, 250, 250));
  const auto report = analyze_congestion(grid, GetParam());
  EXPECT_EQ(report.bins, GetParam());
  EXPECT_EQ(report.region_utilization.size(),
            static_cast<std::size_t>(GetParam()) * GetParam());
  for (double u : report.region_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, CongestionBinSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace ocr::tig
