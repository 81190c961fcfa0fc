/// \file flow_engine_test.cpp
/// \brief Flow-level engine determinism: the full over-cell flow (the
/// paper's Figure-3 style macro instances) must produce identical wiring
/// and metrics for any level-B thread count, and carry the engine's
/// counters in FlowMetrics::engine.

#include <gtest/gtest.h>

#include "bench_data/synthetic.hpp"
#include "flow/flow.hpp"
#include "partition/partition.hpp"
#include "util/trace.hpp"

namespace ocr::flow {
namespace {

partition::NetPartition class_partition(const floorplan::MacroLayout& ml) {
  const auto layout =
      ml.assemble(std::vector<geom::Coord>(ml.num_channels(), 0));
  return partition::partition_by_class(layout);
}

void expect_same_metrics(const FlowMetrics& a, const FlowMetrics& b) {
  EXPECT_EQ(a.layout_area, b.layout_area);
  EXPECT_EQ(a.wire_length, b.wire_length);
  EXPECT_EQ(a.vias, b.vias);
  EXPECT_EQ(a.total_channel_tracks, b.total_channel_tracks);
  EXPECT_EQ(a.levelb_completion, b.levelb_completion);
  EXPECT_EQ(a.levelb_vertices, b.levelb_vertices);
  EXPECT_EQ(a.success, b.success);
}

TEST(FlowEngine, Ami33OverCellIsThreadCountInvariant) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::ami33_spec());
  const auto partition = class_partition(ml);

  FlowArtifacts serial_artifacts;
  const FlowMetrics serial =
      run_over_cell_flow(ml, partition, FlowOptions{}, &serial_artifacts);
  ASSERT_TRUE(serial.success);
  EXPECT_EQ(serial.engine.threads, 1);
  EXPECT_EQ(serial.engine.batches, 0);

  for (int threads : {2, 4}) {
    FlowOptions options;
    options.levelb_threads = threads;
    FlowArtifacts artifacts;
    const FlowMetrics parallel =
        run_over_cell_flow(ml, partition, options, &artifacts);
    expect_same_metrics(serial, parallel);
    const engine::EngineStats& e = parallel.engine;
    EXPECT_EQ(e.threads, threads);
    EXPECT_GT(e.batches, 0);
    // Every ordering position lands in exactly one of batch commit,
    // boundary re-route, worker failure and fault re-route.
    EXPECT_EQ(e.sharded_commits + e.boundary_nets + e.worker_failures +
                  e.fault_reroutes,
              static_cast<long long>(parallel.levelb_nets));
    // The committed level-B wiring itself must be bit-identical.
    EXPECT_EQ(artifacts.levelb, serial_artifacts.levelb)
        << "threads=" << threads;
  }
}

TEST(FlowEngine, RandomInstanceMatchesAcrossThreads) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::random_spec(42, 0.4));
  const auto partition = class_partition(ml);
  const FlowMetrics serial = run_over_cell_flow(ml, partition);
  FlowOptions options;
  options.levelb_threads = 4;
  expect_same_metrics(serial, run_over_cell_flow(ml, partition, options));
}

TEST(FlowEngine, TraceFlowsThroughFlowOptions) {
  const auto ml =
      bench_data::generate_macro_layout(bench_data::random_spec(42, 0.4));
  const auto partition = class_partition(ml);
  util::TraceSink trace;
  FlowOptions options;
  options.levelb_threads = 2;
  options.levelb.trace = &trace;
  const FlowMetrics m = run_over_cell_flow(ml, partition, options);
  // Exactly one "net" event per net; run totals live in m.engine.
  EXPECT_EQ(trace.size(), static_cast<std::size_t>(m.levelb_nets));
}

}  // namespace
}  // namespace ocr::flow
