// Edge multi-device demo: four heterogeneous AR clients (one per catalog
// subject) stream through one shared edge downlink. Every device runs its
// own Lyapunov controller on purely local state — the paper's "fully
// distributed" operation — and the ensemble stays stable and fair.
//
// Build & run:  ./build/examples/edge_multi_device
#include <cstdio>
#include <memory>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/streaming.hpp"
#include "serving/session_manager.hpp"

int main() {
  using namespace arvis;

  std::vector<std::shared_ptr<FrameSource>> sources;
  std::vector<std::unique_ptr<FrameStatsCache>> caches;
  std::vector<const FrameStatsCache*> cache_ptrs;
  for (const SubjectInfo& info : catalog_subjects()) {
    auto source = open_subject(info.name, /*seed=*/5, /*scale=*/0.02);
    if (!source.ok()) {
      std::fprintf(stderr, "open_subject(%s) failed: %s\n", info.name.c_str(),
                   source.status().to_string().c_str());
      return 1;
    }
    sources.push_back(*source);
    caches.push_back(std::make_unique<FrameStatsCache>(
        **source, /*octree_depth=*/9, /*frame_limit=*/8));
    cache_ptrs.push_back(caches.back().get());
    std::printf("device %zu: %s (%zu pts at depth 9, frame 0)\n",
                caches.size() - 1, info.name.c_str(),
                static_cast<std::size_t>(caches.back()->workload(0).points(9)));
  }

  // Link sized so the four devices fit around depth 7-8, not 9.
  double demand_at_8 = 0.0;
  for (const auto* cache : cache_ptrs) demand_at_8 += cache->workload(0).bytes(8);
  ConstantChannel channel(demand_at_8 * 1.2);

  // Every device is a session arriving at slot 0 and staying to the end;
  // admission is off, so the link never refuses anyone and each controller
  // alone must find a sustainable depth.
  ServingConfig config;
  config.steps = 1'000;
  config.candidates = {5, 6, 7, 8, 9};
  // Byte-domain pivot at ~6 frames of the first device's depth-8 bytes.
  config.v = calibrate_streaming_v(*cache_ptrs.front(), config.candidates,
                                   6.0 * cache_ptrs.front()->workload(0).bytes(8));
  config.policy = SchedulerPolicy::kWorkConserving;
  config.admission.enabled = false;

  std::vector<SessionSpec> specs(cache_ptrs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) specs[i].cache = cache_ptrs[i];
  const ServingResult result = run_serving_scenario(config, specs, channel);

  std::printf("\nper-device outcome after %zu slots:\n", config.steps);
  std::vector<double> qualities;
  double total_backlog = 0.0;
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    const TraceSummary& s = result.sessions[i].summary;
    std::printf(
        "  %-12s mean depth %.2f, avg backlog %8.0f B, %s\n",
        sources[i]->name().c_str(), s.mean_depth, s.time_average_backlog,
        to_string(s.stability.verdict));
    qualities.push_back(s.time_average_quality);
    total_backlog += s.time_average_backlog;
  }
  std::printf(
      "\nensemble: Jain fairness %.3f, total avg backlog %.0f B\n"
      "(each controller used only its own queue — no side information)\n",
      jain_fairness_index(qualities), total_backlog);
  return 0;
}
