// Ablation D — the distributed claim (§II: the solution "can be computed in
// a distributed manner, because it works with closed-form equation
// computation with no side information").
//
// N devices share one edge downlink. Each runs its own Lyapunov controller
// on purely local state. The bench scales N and reports per-ensemble
// stability, fairness (Jain index over per-device quality) and total
// backlog, for equal-split and work-conserving link sharing.
//
// Regenerates: §II distributed-operation claim; DESIGN.md Ablation D.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "net/streaming.hpp"
#include "serving/session_manager.hpp"

namespace {

using namespace arvis;

/// `n` identical devices on one link: every device is a session arriving at
/// slot 0 and staying to the end, admission off.
ServingResult run_ensemble(const ServingConfig& config, std::size_t n,
                           const FrameStatsCache& cache, double link) {
  std::vector<SessionSpec> specs(n);
  for (SessionSpec& spec : specs) spec.cache = &cache;
  ConstantChannel channel(link);
  return run_serving_scenario(config, specs, channel);
}

/// Jain's index over per-device time-average quality.
double quality_fairness(const ServingResult& result) {
  std::vector<double> quality;
  for (const SessionOutcome& s : result.sessions) {
    quality.push_back(s.summary.time_average_quality);
  }
  return jain_fairness_index(quality);
}

void print_multi_device() {
  const auto& cache = bench::fig2_cache();

  ServingConfig config;
  config.steps = 1'200;
  config.candidates = {5, 6, 7, 8, 9, 10};
  config.admission.enabled = false;

  // Link sized so ~depth-8 streaming fits 4 devices.
  const double per_device_bytes = cache.workload(0).bytes(8);
  const double link_capacity = 4.0 * per_device_bytes * 1.3;
  // Backlog pivot at ~8 frames of depth-8 bytes (byte-domain calibration;
  // see calibrate_streaming_v).
  config.v = calibrate_streaming_v(cache, config.candidates,
                                   8.0 * per_device_bytes);

  CsvTable out({"devices", "share_policy", "fairness", "total_avg_backlog",
                "worst_device_verdict", "mean_depth_device0"});
  for (std::size_t n : {1, 2, 4, 8}) {
    for (SchedulerPolicy policy :
         {SchedulerPolicy::kEqualShare, SchedulerPolicy::kWorkConserving}) {
      config.policy = policy;
      const ServingResult result =
          run_ensemble(config, n, cache, link_capacity);

      StabilityVerdict worst = StabilityVerdict::kConvergentToZero;
      double total_backlog = 0.0;
      for (const SessionOutcome& s : result.sessions) {
        const auto v = s.summary.stability.verdict;
        if (v == StabilityVerdict::kDivergent) worst = v;
        else if (v == StabilityVerdict::kBoundedPositive &&
                 worst != StabilityVerdict::kDivergent) {
          worst = v;
        }
        total_backlog += s.summary.time_average_backlog;
      }
      out.add_row({static_cast<std::int64_t>(n),
                   std::string(policy == SchedulerPolicy::kEqualShare
                                   ? "equal"
                                   : "work-conserving"),
                   quality_fairness(result), total_backlog,
                   std::string(to_string(worst)),
                   result.sessions.front().summary.mean_depth});
    }
  }
  bench::print_table("Ablation D — distributed multi-device scaling", out);
  std::printf(
      "Expected: identical devices stay fair (Jain ~1). Up to 4 devices the "
      "link fits depth ~8; at 8\ndevices every local controller backs off "
      "(lower mean depth) and the ensemble stays stable —\nno coordination, "
      "no side information.\n");
}

void BM_EdgeScenario(benchmark::State& state) {
  const auto& cache = bench::fig2_cache();
  ServingConfig config;
  config.steps = 400;
  config.candidates = {5, 6, 7, 8, 9, 10};
  config.admission.enabled = false;
  config.v = calibrate_streaming_v(cache, config.candidates,
                                   8.0 * cache.workload(0).bytes(8));
  const auto n = static_cast<std::size_t>(state.range(0));
  const double link = static_cast<double>(n) * cache.workload(0).bytes(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quality_fairness(run_ensemble(config, n, cache, link)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 400);
}
BENCHMARK(BM_EdgeScenario)->Arg(1)->Arg(4)->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  print_multi_device();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
