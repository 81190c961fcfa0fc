/// \file shard_partition_test.cpp
/// \brief Invariants of the shard planner (engine/partition.hpp): batches
/// are an order-convex cover of the positions, member regions are
/// pairwise disjoint, and a sensitive net is always the last member of
/// its batch.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine/partition.hpp"
#include "util/rng.hpp"

namespace ocr::engine {
namespace {

using geom::Point;
using levelb::BNet;

struct Instance {
  std::vector<BNet> nets;
  std::vector<std::vector<Point>> terminals;
  std::vector<const BNet*> nets_by_position;
  std::vector<const std::vector<Point>*> terminals_by_position;
};

/// Random instance in ordering order (the planner never reorders). A
/// locality bound clusters terminals; every \p sensitive_every-th net is
/// sensitive; degree-0 nets (empty terminal lists, as a failed snap
/// produces) appear occasionally.
Instance random_instance(std::uint64_t seed, geom::Coord size, int count,
                         geom::Coord locality, int sensitive_every) {
  util::Rng rng(seed);
  Instance inst;
  for (int n = 0; n < count; ++n) {
    BNet net{n, {}};
    std::vector<Point> terms;
    if (n % 13 != 7) {
      const Point center{rng.uniform_int(0, size - 1),
                         rng.uniform_int(0, size - 1)};
      const int degree = static_cast<int>(rng.uniform_int(2, 4));
      for (int t = 0; t < degree; ++t) {
        const geom::Coord x = std::clamp<geom::Coord>(
            center.x + rng.uniform_int(0, 2 * locality) - locality, 0,
            size - 1);
        const geom::Coord y = std::clamp<geom::Coord>(
            center.y + rng.uniform_int(0, 2 * locality) - locality, 0,
            size - 1);
        terms.push_back(Point{x, y});
      }
    }
    net.sensitive = sensitive_every > 0 && n % sensitive_every == 2;
    inst.nets.push_back(std::move(net));
    inst.terminals.push_back(std::move(terms));
  }
  for (int n = 0; n < count; ++n) {
    inst.nets_by_position.push_back(&inst.nets[n]);
    inst.terminals_by_position.push_back(&inst.terminals[n]);
  }
  return inst;
}

void check_invariants(const Instance& inst, const ShardPlan& plan) {
  const std::size_t n = inst.nets.size();
  // Order-convex cover: consecutive half-open runs, jointly [0, n).
  ASSERT_FALSE(plan.batches.empty() && n > 0);
  std::size_t next = 0;
  for (const ShardBatch& batch : plan.batches) {
    EXPECT_EQ(batch.begin, next);
    EXPECT_GT(batch.end, batch.begin);
    next = batch.end;
  }
  EXPECT_EQ(next, n);
  EXPECT_EQ(plan.positions(), n);
  // Pairwise-disjoint declared regions within every batch.
  for (const ShardBatch& batch : plan.batches) {
    for (std::size_t a = batch.begin; a < batch.end; ++a) {
      for (std::size_t b = a + 1; b < batch.end; ++b) {
        if (plan.has_region[a] && plan.has_region[b]) {
          EXPECT_FALSE(plan.regions[a].overlaps(plan.regions[b]))
              << "batch [" << batch.begin << "," << batch.end
              << ") members " << a << " and " << b << " overlap";
        }
      }
    }
    // A sensitive member closes its batch: registry updates are invisible
    // to footprints, so nothing may search concurrently after one.
    for (std::size_t a = batch.begin; a + 1 < batch.end; ++a) {
      EXPECT_FALSE(inst.nets_by_position[a]->sensitive)
          << "sensitive net at position " << a
          << " is not last in its batch";
    }
  }
  // Summary accessors agree with the raw batches.
  std::size_t widest = 0;
  for (const ShardBatch& b : plan.batches) {
    widest = std::max(widest, b.size());
  }
  EXPECT_EQ(plan.max_batch(), widest);
  if (!plan.batches.empty()) {
    EXPECT_NEAR(plan.mean_batch(),
                static_cast<double>(n) /
                    static_cast<double>(plan.batches.size()),
                1e-9);
  }
}

TEST(ShardPartition, FuzzInvariants) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const geom::Coord size = 500 + 100 * static_cast<geom::Coord>(seed % 7);
    const geom::Coord locality = 20 + 15 * static_cast<geom::Coord>(seed % 5);
    const int count = 10 + static_cast<int>(seed % 4) * 20;
    const int sensitive_every = (seed % 3 == 0) ? 5 : 0;
    const Instance inst =
        random_instance(seed, size, count, locality, sensitive_every);
    for (int halo_pitches : {1, 4, 16}) {
      ShardPlanOptions options;
      options.pitch = 11;
      options.halo_pitches = halo_pitches;
      const ShardPlan plan = build_shard_plan(
          inst.nets_by_position, inst.terminals_by_position, options);
      check_invariants(inst, plan);
    }
  }
}

TEST(ShardPartition, LocalNetsFormWideBatches) {
  // Far-apart local nets are exactly the workload sharding exists for:
  // the plan must expose real parallelism (mean batch clearly above 1).
  const Instance inst = random_instance(3, 4000, 200, 40, 0);
  ShardPlanOptions options;
  options.pitch = 11;
  const ShardPlan plan = build_shard_plan(inst.nets_by_position,
                                          inst.terminals_by_position,
                                          options);
  check_invariants(inst, plan);
  EXPECT_GT(plan.mean_batch(), 1.5);
  EXPECT_GT(plan.max_batch(), 2u);
  EXPECT_LT(plan.batches.size(), inst.nets.size());
}

TEST(ShardPartition, OverlappingNetsDegradeToSerialBatches) {
  // Every net spanning the whole die: no two can share a batch, so the
  // plan degenerates to one singleton per position.
  Instance inst = random_instance(5, 300, 12, 300, 0);
  for (auto& terms : inst.terminals) {
    if (terms.empty()) continue;
    terms.front() = Point{0, 0};
    terms.back() = Point{299, 299};
  }
  const ShardPlan plan = build_shard_plan(inst.nets_by_position,
                                          inst.terminals_by_position,
                                          ShardPlanOptions{11, 4});
  check_invariants(inst, plan);
  for (const ShardBatch& batch : plan.batches) {
    std::size_t with_region = 0;
    for (std::size_t k = batch.begin; k < batch.end; ++k) {
      with_region += plan.has_region[k] ? 1 : 0;
    }
    EXPECT_LE(with_region, 1u);
  }
  EXPECT_LT(plan.mean_batch(), 2.0);
}

TEST(ShardPartition, EmptyTerminalNetsAlwaysJoin) {
  // Degree-0 positions route nothing and read nothing: they must never
  // split a batch.
  Instance inst = random_instance(9, 2000, 50, 30, 0);
  for (auto& terms : inst.terminals) terms.clear();
  const ShardPlan plan = build_shard_plan(inst.nets_by_position,
                                          inst.terminals_by_position,
                                          ShardPlanOptions{11, 16});
  check_invariants(inst, plan);
  EXPECT_EQ(plan.batches.size(), 1u);
}

TEST(ShardPartition, SensitiveClosesBatchEvenWhenDisjoint) {
  Instance inst = random_instance(11, 4000, 60, 30, 3);
  const ShardPlan plan = build_shard_plan(inst.nets_by_position,
                                          inst.terminals_by_position,
                                          ShardPlanOptions{11, 4});
  check_invariants(inst, plan);
  // With a sensitive net every third position, no batch can exceed
  // three members regardless of geometry.
  EXPECT_LE(plan.max_batch(), 3u);
}

/// The greedy loop with a plain linear member scan — the pre-spatial-hash
/// planner, kept as a reference: build_shard_plan must produce the exact
/// same batch boundaries.
ShardPlan reference_plan(const Instance& inst,
                         const ShardPlanOptions& options) {
  const std::size_t n = inst.nets_by_position.size();
  const geom::Coord halo =
      options.pitch *
      static_cast<geom::Coord>(std::max(1, options.halo_pitches));
  ShardPlan plan;
  plan.regions.resize(n);
  plan.has_region.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    if (!inst.terminals_by_position[k]->empty()) {
      plan.regions[k] =
          geom::bounding_box(*inst.terminals_by_position[k]).inflated(halo);
      plan.has_region[k] = 1;
    }
  }
  ShardBatch current{0, 0};
  for (std::size_t k = 0; k < n; ++k) {
    bool joins = true;
    if (plan.has_region[k]) {
      for (std::size_t j = current.begin; j < current.end; ++j) {
        if (plan.has_region[j] &&
            plan.regions[k].overlaps(plan.regions[j])) {
          joins = false;
          break;
        }
      }
    }
    if (!joins) {
      plan.batches.push_back(current);
      current = ShardBatch{k, k};
    }
    current.end = k + 1;
    if (inst.nets_by_position[k]->sensitive) {
      plan.batches.push_back(current);
      current = ShardBatch{k + 1, k + 1};
    }
  }
  if (current.size() > 0) plan.batches.push_back(current);
  return plan;
}

void expect_same_plan(const ShardPlan& got, const ShardPlan& want) {
  ASSERT_EQ(got.batches.size(), want.batches.size());
  for (std::size_t b = 0; b < got.batches.size(); ++b) {
    EXPECT_EQ(got.batches[b].begin, want.batches[b].begin) << "batch " << b;
    EXPECT_EQ(got.batches[b].end, want.batches[b].end) << "batch " << b;
  }
  ASSERT_EQ(got.has_region.size(), want.has_region.size());
  for (std::size_t k = 0; k < got.has_region.size(); ++k) {
    ASSERT_EQ(got.has_region[k], want.has_region[k]);
    if (got.has_region[k]) {
      EXPECT_EQ(got.regions[k].xlo, want.regions[k].xlo);
      EXPECT_EQ(got.regions[k].xhi, want.regions[k].xhi);
      EXPECT_EQ(got.regions[k].ylo, want.regions[k].ylo);
      EXPECT_EQ(got.regions[k].yhi, want.regions[k].yhi);
    }
  }
}

TEST(ShardPartition, SpatialHashMatchesLinearScanReference) {
  // The spatial hash must be boolean-identical to the per-member scan,
  // batch for batch — across localities, halos, sensitive cadences, and
  // instances mixing tiny regions with die-spanning ones (the big-member
  // fallback path).
  for (std::uint64_t seed = 50; seed <= 62; ++seed) {
    const geom::Coord size = 2000 + 500 * static_cast<geom::Coord>(seed % 5);
    Instance inst = random_instance(
        seed, size, 400, 20 + 10 * static_cast<geom::Coord>(seed % 4),
        (seed % 3 == 0) ? 17 : 0);
    if (seed % 2 == 0) {
      // Sprinkle die-spanning nets: their inflated regions exceed the
      // hash's per-axis cell budget and land on the linear big-list.
      for (std::size_t k = 3; k < inst.terminals.size(); k += 37) {
        if (inst.terminals[k].empty()) continue;
        inst.terminals[k].front() = Point{0, 0};
        inst.terminals[k].back() = Point{size - 1, size - 1};
      }
    }
    for (int halo_pitches : {1, 16, 64}) {
      ShardPlanOptions options;
      options.pitch = 11;
      options.halo_pitches = halo_pitches;
      const ShardPlan got = build_shard_plan(
          inst.nets_by_position, inst.terminals_by_position, options);
      const ShardPlan want = reference_plan(inst, options);
      expect_same_plan(got, want);
    }
  }
}

TEST(ShardPartition, HundredThousandNetPlan) {
  // Production scale: planning 100k local nets on a 200k die must finish
  // in test time (near-linear, not O(n * batch width)) and still satisfy
  // every invariant. Disjointness is verified with an x-sweep instead of
  // the O(batch^2) pairwise check.
  const Instance inst = random_instance(23, 200000, 100000, 150, 101);
  ShardPlanOptions options;
  options.pitch = 11;
  options.halo_pitches = 16;
  const ShardPlan plan = build_shard_plan(inst.nets_by_position,
                                          inst.terminals_by_position,
                                          options);
  ASSERT_EQ(plan.positions(), inst.nets.size());
  // Order-convex cover.
  std::size_t next = 0;
  for (const ShardBatch& batch : plan.batches) {
    ASSERT_EQ(batch.begin, next);
    ASSERT_GT(batch.end, batch.begin);
    next = batch.end;
  }
  ASSERT_EQ(next, inst.nets.size());
  // Per-batch disjointness by sweep: sort members by region xlo, keep an
  // active set pruned by xhi, and y-compare only x-overlapping pairs.
  for (const ShardBatch& batch : plan.batches) {
    std::vector<std::size_t> members;
    for (std::size_t k = batch.begin; k < batch.end; ++k) {
      if (plan.has_region[k]) members.push_back(k);
    }
    std::sort(members.begin(), members.end(),
              [&](std::size_t a, std::size_t b) {
                return plan.regions[a].xlo < plan.regions[b].xlo;
              });
    std::vector<std::size_t> active;
    for (const std::size_t k : members) {
      const geom::Rect& r = plan.regions[k];
      std::vector<std::size_t> still;
      for (const std::size_t a : active) {
        if (plan.regions[a].xhi >= r.xlo) {
          still.push_back(a);
          ASSERT_FALSE(plan.regions[a].overlaps(r))
              << "members " << a << " and " << k << " overlap";
        }
      }
      active = std::move(still);
      active.push_back(k);
    }
  }
  // The workload is local by construction: the plan must expose real
  // parallelism, and the sensitive cadence must cap nothing at 1.
  EXPECT_GT(plan.mean_batch(), 4.0);
  EXPECT_GT(plan.max_batch(), 16u);
}

TEST(ShardPartition, EmptyInstance) {
  const ShardPlan plan = build_shard_plan({}, {}, ShardPlanOptions{11, 4});
  EXPECT_TRUE(plan.batches.empty());
  EXPECT_EQ(plan.positions(), 0u);
  EXPECT_EQ(plan.max_batch(), 0u);
  EXPECT_EQ(plan.mean_batch(), 0.0);
}

}  // namespace
}  // namespace ocr::engine
