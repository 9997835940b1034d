// Serving-scale sweep: session count (1 → 65536) × shard threads, on a
// 4-link round-robin EdgeCluster whose per-link capacity grows with the
// fleet so per-session load stays constant. Each link runs its slot loop
// (memoized decide, schedule, drain) as one shard of the cluster's executor,
// so at most min(threads, 4) workers are busy. Reports wall time, throughput
// in session-slots/s, the speedup of each thread count over serial at the
// same fleet size (best of three runs each), and the fleet quality/fairness
// metrics — the scaling story of the serving runtime.
//
// Build & run:  ./build/bench/bench_serving_scale [--json]
//
// --json additionally appends a dated trajectory entry (ns per session·slot
// per sweep point, with host provenance) to BENCH_serving_scale.json; run
// from the repo root to land it there.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/csv.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/cluster.hpp"
#include "sim/frame_stats_cache.hpp"

namespace {

constexpr std::size_t kSteps = 300;
constexpr std::size_t kLinks = 4;
constexpr std::size_t kRepetitions = 3;

const arvis::FrameStatsCache& serving_cache() {
  static const arvis::FrameStatsCache cache(*arvis::open_test_subject(17), 8,
                                            16);
  return cache;
}

double run_once(std::size_t sessions, std::size_t threads,
                arvis::ClusterResult& result) {
  using namespace arvis;
  const auto& cache = serving_cache();

  ClusterConfig config;
  ServingConfig& serving = config.serving;
  serving.steps = kSteps;
  serving.candidates = {3, 4, 5, 6, 7};
  serving.v = calibrate_streaming_v(cache, serving.candidates,
                                    4.0 * cache.workload(0).bytes(5));
  serving.policy = SchedulerPolicy::kWorkConserving;
  serving.threads = threads;
  serving.admission.utilization_target = 0.95;
  config.placement = PlacementPolicy::kRoundRobin;

  std::vector<SessionSpec> specs(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    specs[i].cache = &cache;
    // A tenth of the fleet churns: arrives staggered, leaves mid-run.
    if (i % 10 == 9) {
      specs[i].arrival_slot = i % kSteps / 2;
      specs[i].departure_slot = specs[i].arrival_slot + kSteps / 2;
    }
    specs[i].seed = i;
  }

  // Each link fits its round-robin share of the fleet around depth 5 (the
  // middle candidate).
  const std::size_t per_link = (sessions + kLinks - 1) / kLinks;
  std::vector<ConstantChannel> channels(
      kLinks, ConstantChannel(static_cast<double>(per_link) *
                              cache.workload(0).bytes(5) * 1.2));
  std::vector<ChannelModel*> links;
  for (ConstantChannel& c : channels) links.push_back(&c);

  const auto start = std::chrono::steady_clock::now();
  result = run_cluster_scenario(config, specs, links);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace arvis;
  const bool json =
      argc > 1 && std::strcmp(argv[1], "--json") == 0;

  CsvTable table({"sessions", "threads", "wall_ms", "session_slots_per_s",
                  "speedup_vs_1t", "admitted", "rejected", "fairness",
                  "utilization", "divergent"});
  std::vector<bench::BenchRecord> records;

  for (std::size_t sessions : {1U, 4U, 16U, 64U, 256U, 4096U, 65536U}) {
    double serial_ms = 0.0;
    for (std::size_t threads : {1U, 2U, 4U}) {
      if (threads > std::min(sessions, kLinks)) continue;
      // Best of kRepetitions wall times (the runs are bit-identical).
      ClusterResult result;
      double ms = run_once(sessions, threads, result);
      for (std::size_t rep = 1; rep < kRepetitions; ++rep) {
        ms = std::min(ms, run_once(sessions, threads, result));
      }
      if (threads == 1) serial_ms = ms;
      double slots = 0.0;
      std::size_t admitted = 0;
      for (const ClusterSessionOutcome& s : result.sessions) {
        slots += static_cast<double>(s.session.slots);
        admitted += s.session.admitted ? 1 : 0;
      }
      const FleetMetrics& fleet = result.metrics.fleet;
      table.add_row({static_cast<std::int64_t>(sessions),
                     static_cast<std::int64_t>(threads), ms,
                     slots / (ms / 1'000.0),
                     serial_ms > 0.0 ? serial_ms / ms : 1.0,
                     static_cast<std::int64_t>(admitted),
                     static_cast<std::int64_t>(
                         result.metrics.placement_rejects),
                     fleet.quality_fairness, fleet.utilization(),
                     static_cast<std::int64_t>(fleet.divergent_sessions)});
      char params[96];
      std::snprintf(params, sizeof params,
                    "{\"links\":%zu,\"sessions\":%zu,\"threads\":%zu}",
                    kLinks, sessions, threads);
      records.push_back({"cluster_run", params,
                         slots > 0.0 ? ms * 1e6 / slots : 0.0, slots,
                         kRepetitions});
    }
  }

  bench::print_table("serving scale: sessions x shard threads, " +
                         std::to_string(kLinks) + " links, " +
                         std::to_string(kSteps) + " slots",
                     table);
  std::printf(
      "\nNote: speedup_vs_1t compares against the serial run at the same\n"
      "fleet size; at most min(threads, links) shards run at once, and gains\n"
      "require free hardware cores (this machine has %u).\n",
      std::thread::hardware_concurrency());
  if (json && !bench::write_bench_json(
                  "serving_scale", records,
                  "\"unit\":\"ns_per_session_slot\"," +
                      bench::provenance_json())) {
    return 1;
  }
  return 0;
}
