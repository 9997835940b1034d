// End-to-end integration tests: the full pipeline from synthetic dataset
// through octree statistics, controller, queue and analysis — verifying the
// qualitative claims of the paper's Fig. 2 at test scale.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "analysis/time_series.hpp"
#include "datasets/catalog.hpp"
#include "lyapunov/depth_controller.hpp"
#include "net/streaming.hpp"
#include "octree/occupancy_codec.hpp"
#include "pointcloud/metrics.hpp"
#include "pointcloud/ply_io.hpp"
#include "serving/session_manager.hpp"
#include "sim/simulation.hpp"

namespace arvis {
namespace {

struct Fig2Fixture : testing::Test {
  // One cache shared across tests (expensive to build).
  static const FrameStatsCache& cache() {
    static const FrameStatsCache instance(*open_test_subject(81), 8, 8);
    return instance;
  }

  static SimConfig config() {
    SimConfig c;
    c.steps = 800;
    c.candidates = {3, 4, 5, 6, 7, 8};
    return c;
  }

  // Service between a(4) and a(5): min-depth stable, max-depth not.
  static double service_rate() {
    return calibrate_service_rate(cache(), 4, 1.3);
  }
};

TEST_F(Fig2Fixture, MaxDepthDivergesMinDepthConvergesProposedBounded) {
  // The three curves of Fig. 2(a).
  const SimConfig c = config();

  auto run = [&](DepthController& controller) {
    ConstantService service(service_rate());
    return run_simulation(c, cache(), controller, service);
  };

  auto max_ctrl = FixedDepthController::max_depth();
  auto min_ctrl = FixedDepthController::min_depth();
  LyapunovDepthController proposed(
      calibrate_v_for_pivot(cache(), c, 40.0 * service_rate()));

  const Trace max_trace = run(max_ctrl);
  const Trace min_trace = run(min_ctrl);
  const Trace proposed_trace = run(proposed);

  EXPECT_EQ(max_trace.summarize().stability.verdict,
            StabilityVerdict::kDivergent);
  EXPECT_EQ(min_trace.summarize().stability.verdict,
            StabilityVerdict::kConvergentToZero);
  EXPECT_NE(proposed_trace.summarize().stability.verdict,
            StabilityVerdict::kDivergent);

  // Ordering of final backlogs: min < proposed < max.
  EXPECT_LT(min_trace.summarize().final_backlog,
            proposed_trace.summarize().final_backlog);
  EXPECT_LT(proposed_trace.summarize().final_backlog,
            max_trace.summarize().final_backlog);
}

TEST_F(Fig2Fixture, ProposedQualityBeatsMinDepthUnderStability) {
  // The point of the algorithm: strictly better time-average quality than
  // the safe fixed policy, while remaining stable.
  const SimConfig c = config();
  ConstantService s1(service_rate()), s2(service_rate());
  auto min_ctrl = FixedDepthController::min_depth();
  LyapunovDepthController proposed(
      calibrate_v_for_pivot(cache(), c, 40.0 * service_rate()));

  const Trace min_trace = run_simulation(c, cache(), min_ctrl, s1);
  const Trace proposed_trace = run_simulation(c, cache(), proposed, s2);

  EXPECT_GT(proposed_trace.summarize().time_average_quality,
            min_trace.summarize().time_average_quality * 1.2);
  EXPECT_NE(proposed_trace.summarize().stability.verdict,
            StabilityVerdict::kDivergent);
}

TEST_F(Fig2Fixture, ControlActionDropsAtRecognizedPoint) {
  // Fig. 2(b): the proposed scheme holds a high depth early (small Q lets
  // V·p dominate) and drops once the backlog reaches the V pivot.
  const SimConfig c = config();
  ConstantService service(service_rate());
  LyapunovDepthController proposed(
      calibrate_v_for_pivot(cache(), c, 100.0 * service_rate()));
  const Trace trace = run_simulation(c, cache(), proposed, service);

  const std::vector<int> depths = trace.depth_series();
  // Starts at the top of the candidate set.
  EXPECT_EQ(depths.front(), c.candidates.back());
  const auto drop = find_control_drop(depths);
  ASSERT_TRUE(drop.has_value());
  EXPECT_GT(*drop, 10U);       // holds the plateau for a while
  EXPECT_LT(*drop, 790U);      // but drops before the horizon
  // After the drop the controller operates at a sustainable depth.
  const TraceSummary summary = trace.summarize();
  EXPECT_LT(summary.mean_depth, static_cast<double>(c.candidates.back()));
}

TEST_F(Fig2Fixture, FixedControllersNeverAdapt) {
  const SimConfig c = config();
  ConstantService s1(service_rate()), s2(service_rate());
  auto max_ctrl = FixedDepthController::max_depth();
  auto min_ctrl = FixedDepthController::min_depth();
  const Trace max_trace = run_simulation(c, cache(), max_ctrl, s1);
  const Trace min_trace = run_simulation(c, cache(), min_ctrl, s2);
  EXPECT_FALSE(find_control_drop(max_trace.depth_series()).has_value());
  EXPECT_FALSE(find_control_drop(min_trace.depth_series()).has_value());
  EXPECT_DOUBLE_EQ(max_trace.summarize().mean_depth, 8.0);
  EXPECT_DOUBLE_EQ(min_trace.summarize().mean_depth, 3.0);
}

TEST(IntegrationTest, FullPipelinePlyToControlledStream) {
  // Dataset -> PLY round trip -> octree stats -> controlled simulation,
  // i.e. the complete deployment path a user of the library would run.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "arvis_pipeline";
  fs::create_directories(dir);
  const auto source = open_test_subject(82);
  for (std::size_t i = 0; i < 4; ++i) {
    // += instead of operator+ dodges GCC -Wrestrict FP (GCC PR 105651).
    std::string name = "f";
    name += std::to_string(i);
    name += ".ply";
    ASSERT_TRUE(write_ply_file((dir / name).string(), source->frame(i)).ok());
  }
  auto ply_seq = PlySequence::open(dir.string());
  ASSERT_TRUE(ply_seq.ok());

  const FrameStatsCache cache(*ply_seq, 8);
  SimConfig config;
  config.steps = 256;
  config.candidates = {3, 4, 5, 6};
  ConstantService service(calibrate_service_rate(cache, 5, 1.3));
  LyapunovDepthController controller(
      calibrate_v_for_pivot(cache, config, 20.0 * service.mean_rate()));
  const Trace trace = run_simulation(config, cache, controller, service);
  EXPECT_EQ(trace.size(), 256U);
  EXPECT_NE(trace.summarize().stability.verdict, StabilityVerdict::kDivergent);
  fs::remove_all(dir);
}

TEST(IntegrationTest, OctreeDepthControlsRenderedGeometryQuality) {
  // The quality knob is physically real: LODs extracted at the depths the
  // controller chooses have monotone geometry PSNR.
  const auto source = open_test_subject(83);
  const PointCloud frame = source->frame(0);
  const Octree tree(frame, 8);
  const PointCloud reference = tree.extract_lod(8);
  double previous = 0.0;
  for (int d : {3, 4, 5, 6}) {
    const double psnr = compare_geometry(reference, tree.extract_lod(d)).psnr_db;
    EXPECT_GT(psnr, previous);
    previous = psnr;
  }
}

TEST(IntegrationTest, TransmittedStreamDecodesToChosenLod) {
  // What the edge sends is exactly what the client reconstructs: encode at
  // the controller-chosen depth, decode, compare cell sets.
  const auto source = open_test_subject(84);
  const Octree tree(source->frame(0), 7);

  const PointCountQuality quality(
      compute_frame_workload(tree).points_at_depth);
  const PointWorkload workload(compute_frame_workload(tree).points_at_depth);
  LyapunovDepthController controller(500.0);
  DepthContext ctx;
  ctx.queue_backlog = 200.0;
  ctx.quality = &quality;
  ctx.workload = &workload;
  const int depth = controller.decide({3, 4, 5, 6, 7}, ctx);

  const OccupancyStream stream = encode_occupancy(tree, depth);
  const auto decoded = decode_occupancy(stream);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->size(), tree.occupied_count(depth));
}

TEST(IntegrationTest, EndToEndEdgeScenarioWithHeterogeneousDevices) {
  // Two different subjects share a link; both remain stable, and the run is
  // reproducible end to end.
  auto loot = open_subject("loot", 5, 0.01);
  auto soldier = open_subject("soldier", 5, 0.01);
  ASSERT_TRUE(loot.ok());
  ASSERT_TRUE(soldier.ok());
  const FrameStatsCache cache_a(**loot, 8, 6);
  const FrameStatsCache cache_b(**soldier, 8, 6);

  ServingConfig config;
  config.steps = 600;
  config.candidates = {3, 4, 5, 6, 7};
  config.v = calibrate_streaming_v(cache_a, config.candidates,
                                   4.0 * cache_a.workload(0).bytes(5));
  config.admission.enabled = false;
  std::vector<SessionSpec> specs(2);
  specs[0].cache = &cache_a;
  specs[1].cache = &cache_b;
  ConstantChannel channel(
      (cache_a.workload(0).bytes(5) + cache_b.workload(0).bytes(5)) * 1.4);
  const ServingResult result = run_serving_scenario(config, specs, channel);
  std::vector<double> quality;
  for (const SessionOutcome& s : result.sessions) {
    ASSERT_TRUE(s.has_summary);
    EXPECT_NE(s.summary.stability.verdict, StabilityVerdict::kDivergent);
    quality.push_back(s.summary.time_average_quality);
  }
  EXPECT_GT(jain_fairness_index(quality), 0.8);
}

}  // namespace
}  // namespace arvis
