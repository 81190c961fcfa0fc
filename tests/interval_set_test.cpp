#include <gtest/gtest.h>

#include "geom/interval_set.hpp"
#include "util/rng.hpp"

namespace ocr::geom {
namespace {

TEST(IntervalSet, StartsEmpty) {
  IntervalSet s;
  EXPECT_TRUE(s.runs().empty());
  EXPECT_FALSE(s.intersects(Interval(-100, 100)));
  EXPECT_EQ(s.overlap_length(Interval(-100, 100)), 0);
}

TEST(IntervalSet, AddAndQuery) {
  IntervalSet s;
  s.add(Interval(5, 10));
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(4));
  EXPECT_FALSE(s.contains(11));
  EXPECT_TRUE(s.intersects(Interval(0, 5)));
  EXPECT_FALSE(s.intersects(Interval(0, 4)));
  EXPECT_FALSE(s.intersects(Interval(11, 20)));
}

TEST(IntervalSet, MergesOverlapping) {
  IntervalSet s;
  s.add(Interval(0, 5));
  s.add(Interval(3, 9));
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], Interval(0, 9));
}

TEST(IntervalSet, MergesAdjacent) {
  IntervalSet s;
  s.add(Interval(0, 5));
  s.add(Interval(6, 9));  // adjacent on the integer lattice
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], Interval(0, 9));
}

TEST(IntervalSet, KeepsDisjointRunsSorted) {
  IntervalSet s;
  s.add(Interval(20, 30));
  s.add(Interval(0, 5));
  s.add(Interval(10, 12));
  ASSERT_EQ(s.runs().size(), 3u);
  EXPECT_EQ(s.runs()[0], Interval(0, 5));
  EXPECT_EQ(s.runs()[1], Interval(10, 12));
  EXPECT_EQ(s.runs()[2], Interval(20, 30));
}

TEST(IntervalSet, AddSpanningManyRuns) {
  IntervalSet s;
  s.add(Interval(0, 1));
  s.add(Interval(5, 6));
  s.add(Interval(10, 11));
  s.add(Interval(1, 10));
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], Interval(0, 11));
}

TEST(IntervalSet, RemoveSplitsRun) {
  IntervalSet s;
  s.add(Interval(0, 10));
  s.remove(Interval(4, 6));
  ASSERT_EQ(s.runs().size(), 2u);
  EXPECT_EQ(s.runs()[0], Interval(0, 3));
  EXPECT_EQ(s.runs()[1], Interval(7, 10));
}

TEST(IntervalSet, RemoveWholeAndEdges) {
  IntervalSet s;
  s.add(Interval(0, 10));
  s.remove(Interval(0, 10));
  EXPECT_TRUE(s.runs().empty());

  s.add(Interval(0, 10));
  s.remove(Interval(0, 3));
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], Interval(4, 10));
  s.remove(Interval(8, 12));
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], Interval(4, 7));
}

TEST(IntervalSet, RemoveNoopOutside) {
  IntervalSet s;
  s.add(Interval(5, 7));
  s.remove(Interval(0, 4));
  s.remove(Interval(8, 20));
  ASSERT_EQ(s.runs().size(), 1u);
  EXPECT_EQ(s.runs()[0], Interval(5, 7));
}

TEST(IntervalSet, ZeroLengthRunBlocksPoint) {
  IntervalSet s;
  s.add(Interval(5, 5));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.overlap_length(Interval(0, 10)), 0);
}

/// Property test: IntervalSet agrees with a brute-force boolean array under
/// random add/remove sequences.
TEST(IntervalSetProperty, MatchesBruteForce) {
  util::Rng rng(2024);
  constexpr int kUniverse = 64;
  for (int trial = 0; trial < 50; ++trial) {
    IntervalSet s;
    bool blocked[kUniverse] = {};
    for (int step = 0; step < 40; ++step) {
      const int a = static_cast<int>(rng.uniform_int(0, kUniverse - 1));
      const int b = static_cast<int>(rng.uniform_int(0, kUniverse - 1));
      const Interval iv(std::min(a, b), std::max(a, b));
      if (rng.chance(0.6)) {
        s.add(iv);
        for (Coord v = iv.lo; v <= iv.hi; ++v) blocked[v] = true;
      } else {
        s.remove(iv);
        for (Coord v = iv.lo; v <= iv.hi; ++v) blocked[v] = false;
      }
      for (int v = 0; v < kUniverse; ++v) {
        ASSERT_EQ(s.contains(v), blocked[v])
            << "trial " << trial << " step " << step << " coord " << v;
      }
      // Runs stay canonical: sorted, disjoint, non-adjacent.
      const auto& runs = s.runs();
      for (std::size_t i = 1; i < runs.size(); ++i) {
        ASSERT_GT(runs[i].lo, runs[i - 1].hi + 1);
      }
    }
  }
}

}  // namespace
}  // namespace ocr::geom
