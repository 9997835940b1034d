// Tests for the multi-link EdgeCluster: the K = 1 / round-robin special case
// must reproduce the single-link runtime bit for bit, placement policies must
// differ where they should (least-loaded rescues skewed bursts round-robin
// strands; best-fit packs tight links first), the sharded slot loop (one
// executor index per link) must be bit-identical to serial, and the
// steady-state slot loop must be allocation-free (counting global operator
// new probe).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>

#include "common/log.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_manager.hpp"
#include "support/alloc_probe.hpp"
#include "support/cluster_equality.hpp"

using arvis_test::g_allocations;

namespace arvis {
namespace {

const FrameStatsCache& shared_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(shared_cache(), candidates);
}

ServingConfig base_serving_config() {
  ServingConfig config;
  config.steps = 120;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(shared_cache(), config.candidates,
                                   4.0 * shared_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

std::vector<SessionSpec> churn_specs(std::size_t n) {
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &shared_cache();
    specs[i].arrival_slot = 5 * i;
    specs[i].departure_slot = (i % 3 == 0) ? 5 * i + 70 : kNeverDeparts;
    specs[i].weight = (i % 2 == 0) ? 1.0 : 2.0;
    specs[i].seed = 1'000 + i;
  }
  return specs;
}

void expect_traces_bit_identical(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a.at(t).depth, b.at(t).depth);
    EXPECT_EQ(a.at(t).arrivals, b.at(t).arrivals);
    EXPECT_EQ(a.at(t).service, b.at(t).service);
    EXPECT_EQ(a.at(t).backlog_begin, b.at(t).backlog_begin);
    EXPECT_EQ(a.at(t).backlog_end, b.at(t).backlog_end);
    EXPECT_EQ(a.at(t).quality, b.at(t).quality);
  }
}

// ---------------------------------------------------- K = 1 equivalence ----

TEST(EdgeClusterTest, K1RoundRobinReproducesSingleLinkBitForBit) {
  ServingConfig serving = base_serving_config();
  serving.steps = 150;
  serving.trace_mode = TraceMode::kAll;  // compares per-slot traces
  serving.policy = SchedulerPolicy::kProportionalFair;
  const auto specs = churn_specs(9);
  const double capacity = 6.0 * shared_cache().workload(0).bytes(4);

  // Identically seeded Gilbert-Elliott streams so both runs draw the same
  // time-varying capacity sequence. The single link is the plain
  // submit/step/finish loop (run_serving_scenario); the cluster runs on the
  // EventLoop in fixed-horizon mode (run_cluster_scenario).
  GilbertElliottChannel single_channel(capacity, 0.4, 0.1, 0.3, Rng(42));
  const ServingResult single =
      run_serving_scenario(serving, specs, single_channel);

  ClusterConfig cluster_config;
  cluster_config.serving = serving;
  cluster_config.placement = PlacementPolicy::kRoundRobin;
  GilbertElliottChannel cluster_channel(capacity, 0.4, 0.1, 0.3, Rng(42));
  std::vector<ChannelModel*> channels{&cluster_channel};
  const ClusterResult cluster =
      run_cluster_scenario(cluster_config, specs, channels);

  // Admission: every attempt the single link saw, the cluster's one link saw.
  EXPECT_EQ(cluster.metrics.per_link_admission[0].attempts,
            single.admission.attempts);
  EXPECT_EQ(cluster.metrics.per_link_admission[0].accepted,
            single.admission.accepted);
  EXPECT_EQ(cluster.metrics.per_link_admission[0].rejected,
            single.admission.rejected);
  EXPECT_EQ(cluster.metrics.spills, 0U);

  // Fleet summaries: bit-for-bit, not approximate (same sessions, same
  // order, same arithmetic).
  const FleetMetrics& a = cluster.metrics.fleet;
  const FleetMetrics& b = single.fleet;
  EXPECT_EQ(a.sessions_submitted, b.sessions_submitted);
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected);
  EXPECT_EQ(a.quality_fairness, b.quality_fairness);
  EXPECT_EQ(a.mean_quality, b.mean_quality);
  EXPECT_EQ(a.total_time_average_backlog, b.total_time_average_backlog);
  EXPECT_EQ(a.peak_backlog, b.peak_backlog);
  EXPECT_EQ(a.divergent_sessions, b.divergent_sessions);
  EXPECT_EQ(a.partial_summary_sessions, b.partial_summary_sessions);
  EXPECT_EQ(a.capacity_offered, b.capacity_offered);
  EXPECT_EQ(a.capacity_used, b.capacity_used);
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);

  // Per-session: same admissions, same windows, same traces, bit for bit.
  ASSERT_EQ(cluster.sessions.size(), single.sessions.size());
  for (std::size_t i = 0; i < single.sessions.size(); ++i) {
    const SessionOutcome& cs = cluster.sessions[i].session;
    const SessionOutcome& ss = single.sessions[i];
    EXPECT_EQ(cs.id, ss.id);
    EXPECT_EQ(cs.admitted, ss.admitted);
    EXPECT_EQ(cs.arrival_slot, ss.arrival_slot);
    EXPECT_EQ(cs.departure_slot, ss.departure_slot);
    EXPECT_EQ(cs.has_summary, ss.has_summary);
    if (cs.has_summary) {
      EXPECT_EQ(cs.summary.time_average_quality,
                ss.summary.time_average_quality);
      EXPECT_EQ(cs.summary.time_average_backlog,
                ss.summary.time_average_backlog);
      EXPECT_EQ(cs.summary.mean_depth, ss.summary.mean_depth);
    }
    expect_traces_bit_identical(cs.trace, ss.trace);
    if (cs.admitted) {
      EXPECT_EQ(cluster.sessions[i].link, 0);
    }
  }
}

// ----------------------------------------------------- placement policy ----

// K = 4, every link fits exactly two cheapest-depth sessions. Eight initial
// sessions fill the cluster symmetrically (round-robin and least-loaded make
// identical choices). The four sessions on links 0 and 1 then depart, and a
// burst of four arrives: round-robin's rotation walks into the still-full
// links 2 and 3 and (with one spill) strands an arrival, while least-loaded
// steers the whole burst into the freed links.
std::vector<SessionSpec> skewed_burst_specs() {
  std::vector<SessionSpec> specs(12);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &shared_cache();
    specs[i].seed = i;
  }
  // Round-robin placement of the initial eight: i -> link i % 4. The
  // departing four are exactly those placed on links 0 and 1.
  for (std::size_t i : {0U, 1U, 4U, 5U}) specs[i].departure_slot = 40;
  for (std::size_t i = 8; i < 12; ++i) specs[i].arrival_slot = 50;
  return specs;
}

ClusterResult run_skewed_burst(PlacementPolicy placement) {
  ServingConfig serving = base_serving_config();
  serving.steps = 80;
  ClusterConfig config;
  config.serving = serving;
  config.placement = placement;

  const double load = cheapest_load(serving.candidates);
  std::vector<ConstantChannel> channels(4, ConstantChannel(2.5 * load));
  std::vector<ChannelModel*> links;
  for (auto& c : channels) links.push_back(&c);
  return run_cluster_scenario(config, skewed_burst_specs(), links);
}

TEST(EdgeClusterTest, LeastLoadedAdmitsMoreThanRoundRobinUnderSkewedBursts) {
  const ClusterResult rr = run_skewed_burst(PlacementPolicy::kRoundRobin);
  const ClusterResult ll = run_skewed_burst(PlacementPolicy::kLeastLoaded);

  // Both fill the initial symmetric wave...
  EXPECT_EQ(rr.metrics.fleet.sessions_admitted, 11U);
  EXPECT_EQ(rr.metrics.placement_rejects, 1U);
  EXPECT_EQ(rr.metrics.spills, 1U);  // one burst arrival rescued by spill
  // ...but only least-loaded lands the whole burst in the freed links.
  EXPECT_EQ(ll.metrics.fleet.sessions_admitted, 12U);
  EXPECT_EQ(ll.metrics.placement_rejects, 0U);
  EXPECT_GT(ll.metrics.fleet.sessions_admitted,
            rr.metrics.fleet.sessions_admitted);
}

TEST(EdgeClusterTest, BestFitPacksTightLinksAndAvoidsSpills) {
  ServingConfig serving = base_serving_config();
  serving.steps = 40;
  const double load = cheapest_load(serving.candidates);
  ConstantChannel tight(1.3 * load);
  ConstantChannel roomy(3.0 * load);
  std::vector<ChannelModel*> links{&tight, &roomy};

  std::vector<SessionSpec> specs(4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &shared_cache();
    specs[i].seed = i;
    specs[i].arrival_slot = i;  // sequential arrivals: placement sees each
  }

  ClusterConfig config;
  config.serving = serving;
  config.placement = PlacementPolicy::kBestFit;
  const ClusterResult best = run_cluster_scenario(config, specs, links);
  // First session fits both; the tight link is the tighter fit. Every later
  // session only fits the roomy link, and best-fit never has to spill.
  EXPECT_EQ(best.sessions[0].link, 0);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(best.sessions[i].link, 1) << i;
    EXPECT_FALSE(best.sessions[i].spilled) << i;
  }
  EXPECT_EQ(best.metrics.spills, 0U);
  EXPECT_EQ(best.metrics.fleet.sessions_admitted, 4U);

  // Least-loaded walks into the full tight link and needs the spill to
  // recover — same admissions, worse placement work.
  ConstantChannel tight2(1.3 * load);
  ConstantChannel roomy2(3.0 * load);
  std::vector<ChannelModel*> links2{&tight2, &roomy2};
  config.placement = PlacementPolicy::kLeastLoaded;
  const ClusterResult least = run_cluster_scenario(config, specs, links2);
  EXPECT_EQ(least.metrics.fleet.sessions_admitted, 4U);
  EXPECT_GT(least.metrics.spills, 0U);
}

// --------------------------------------------------------- determinism ----

TEST(EdgeClusterTest, ShardedSlotLoopMatchesSerialBitForBit) {
  ServingConfig serving = base_serving_config();
  serving.steps = 100;
  serving.trace_mode = TraceMode::kAll;  // compares per-slot traces
  serving.policy = SchedulerPolicy::kWorkConserving;
  const auto specs = churn_specs(12);
  const double capacity = 5.0 * shared_cache().workload(0).bytes(4);

  // Each run records into its own registry, tracer and flight ring, so the
  // telemetry of a sharded run can be compared with the serial run's.
  struct Run {
    ClusterResult result;
    TelemetryRegistry registry;
    PhaseTracer tracer{TracerConfig{1 << 14, 1}};
    FlightRecorder flight{FlightRecorderConfig{1 << 14}};
  };
  auto run_with_threads = [&](std::size_t threads, Run& run) {
    ClusterConfig config;
    config.serving = serving;
    config.serving.threads = threads;
    config.serving.telemetry.mode = TelemetryMode::kFullTrace;
    config.serving.telemetry.registry = &run.registry;
    config.serving.telemetry.tracer = &run.tracer;
    config.serving.telemetry.flight = &run.flight;
    config.placement = PlacementPolicy::kLeastLoaded;
    GilbertElliottChannel c0(capacity, 0.5, 0.1, 0.4, Rng(7));
    GilbertElliottChannel c1(capacity, 0.5, 0.1, 0.4, Rng(8));
    GilbertElliottChannel c2(capacity, 0.5, 0.1, 0.4, Rng(9));
    std::vector<ChannelModel*> links{&c0, &c1, &c2};
    run.result = run_cluster_scenario(config, specs, links);
  };

  Run serial;
  run_with_threads(1, serial);
  ASSERT_EQ(serial.tracer.dropped(), 0U);
  ASSERT_EQ(serial.flight.dropped(), 0U);
  for (const std::size_t threads : {2UL, 4UL}) {
    const std::string where = "threads=" + std::to_string(threads);
    Run sharded;
    run_with_threads(threads, sharded);
    const ClusterResult& parallel = sharded.result;
    ASSERT_EQ(serial.result.sessions.size(), parallel.sessions.size());
    for (std::size_t i = 0; i < parallel.sessions.size(); ++i) {
      EXPECT_EQ(serial.result.sessions[i].link, parallel.sessions[i].link);
      EXPECT_EQ(serial.result.sessions[i].spilled,
                parallel.sessions[i].spilled);
      expect_traces_bit_identical(serial.result.sessions[i].session.trace,
                                  parallel.sessions[i].session.trace);
    }
    EXPECT_EQ(serial.result.metrics.fleet.quality_fairness,
              parallel.metrics.fleet.quality_fairness);
    EXPECT_EQ(serial.result.metrics.fleet.capacity_used,
              parallel.metrics.fleet.capacity_used);
    EXPECT_EQ(serial.result.metrics.link_load_fairness,
              parallel.metrics.link_load_fairness);
    arvis_test::expect_cluster_results_equal(serial.result, parallel, where);
    arvis_test::expect_registries_equal(serial.registry, sharded.registry,
                                        where);
    EXPECT_EQ(arvis_test::span_counts(sharded.tracer),
              arvis_test::span_counts(serial.tracer))
        << where;
    EXPECT_EQ(arvis_test::flight_events(sharded.flight),
              arvis_test::flight_events(serial.flight))
        << where;
  }
}

// ------------------------------------------------------ metrics rollup ----

TEST(EdgeClusterTest, MetricsRollUpAcrossLinks) {
  const ClusterResult result = run_skewed_burst(PlacementPolicy::kLeastLoaded);
  ASSERT_EQ(result.metrics.link_count, 4U);
  ASSERT_EQ(result.metrics.per_link.size(), 4U);
  ASSERT_EQ(result.metrics.per_link_admission.size(), 4U);

  double offered = 0.0, used = 0.0;
  std::size_t placed = 0;
  for (const FleetMetrics& link : result.metrics.per_link) {
    offered += link.capacity_offered;
    used += link.capacity_used;
    placed += link.sessions_admitted;
  }
  EXPECT_DOUBLE_EQ(result.metrics.fleet.capacity_offered, offered);
  EXPECT_DOUBLE_EQ(result.metrics.fleet.capacity_used, used);
  EXPECT_EQ(result.metrics.fleet.sessions_admitted, placed);
  EXPECT_GT(result.metrics.link_load_fairness, 0.0);
  EXPECT_LE(result.metrics.link_load_fairness, 1.0 + 1e-12);

  // Report tables: one row per session / per link, link column populated for
  // placed sessions.
  EXPECT_EQ(result.session_table.row_count(), result.sessions.size());
  EXPECT_EQ(result.link_table.row_count(), 4U);
  for (std::size_t i = 0; i < result.sessions.size(); ++i) {
    if (result.sessions[i].link >= 0) {
      EXPECT_EQ(std::get<std::int64_t>(result.session_table.at(i, 1)),
                result.sessions[i].link);
    } else {
      EXPECT_TRUE(std::holds_alternative<std::monostate>(
          result.session_table.at(i, 1)));
    }
  }
}

// --------------------------------------------------------- validation ----

TEST(EdgeClusterTest, Validation) {
  ClusterConfig config;
  config.serving = base_serving_config();
  EXPECT_THROW(EdgeCluster(config, {}), std::invalid_argument);

  EdgeCluster cluster(config, {1e6, 1e6});
  SessionSpec bad;
  EXPECT_THROW(cluster.submit(bad), std::invalid_argument);  // null cache
  EXPECT_THROW(cluster.step({1e6}), std::invalid_argument);  // K mismatch

  SessionSpec ok;
  ok.cache = &shared_cache();
  cluster.submit(ok);
  cluster.step({1e6, 1e6});
  EXPECT_EQ(cluster.active_count(), 1U);
  EXPECT_EQ(cluster.slot(), 1U);
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.sessions.size(), 1U);
  EXPECT_THROW(cluster.step({1e6, 1e6}), std::logic_error);
  EXPECT_THROW(static_cast<void>(cluster.submit(ok)), std::logic_error);
  EXPECT_THROW(static_cast<void>(cluster.finish()), std::logic_error);

  const std::vector<ChannelModel*> none;
  EXPECT_THROW(run_cluster_scenario(config, {}, none), std::invalid_argument);
  const std::vector<ChannelModel*> null_link{nullptr};
  EXPECT_THROW(run_cluster_scenario(config, {}, null_link),
               std::invalid_argument);
}

TEST(EdgeClusterTest, NonFiniteWeightsAreRejectedAtBothDoors) {
  // Deficit round-robin's ring test (weight > 0) and leftover test
  // (weight <= 0) are both false for a NaN weight, so such a session would
  // never be granted a byte; +-inf has no finite share either. Both submit
  // doors reject them, as the trace parser does, and queue nothing.
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.policy = SchedulerPolicy::kDeficitRoundRobin;
  SessionManager manager(config.serving, 1e6);
  EdgeCluster cluster(config, {1e6, 1e6});
  SessionSpec spec;
  spec.cache = &shared_cache();
  for (const double w : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    spec.weight = w;
    EXPECT_THROW(manager.submit(spec), std::invalid_argument) << w;
    EXPECT_THROW(static_cast<void>(cluster.submit(spec)),
                 std::invalid_argument)
        << w;
  }
  spec.weight = std::numeric_limits<double>::max();  // finite: accepted
  EXPECT_EQ(manager.submit(spec), 0U);
  EXPECT_EQ(cluster.submit(spec), 0U);
  manager.step(1e6);
  cluster.step({1e6, 1e6});
  EXPECT_EQ(manager.active_count(), 1U);
  EXPECT_EQ(cluster.active_count(), 1U);
  EXPECT_EQ(manager.finish().sessions.size(), 1U);
  EXPECT_EQ(cluster.finish().sessions.size(), 1U);
}

TEST(EdgeClusterTest, LinkCountIsBoundedByTheFlightEncoding) {
  // Migration flight events pack from/to link ids into 10 bits each, so a
  // cluster of kMaxClusterLinks links is the largest one that can run.
  ClusterConfig config;
  config.serving = base_serving_config();
  static_assert(kMaxClusterLinks == 1024);
  EdgeCluster largest(config, std::vector<double>(kMaxClusterLinks, 1e6));
  SessionSpec spec;
  spec.cache = &shared_cache();
  largest.submit(spec);
  largest.step(std::vector<double>(kMaxClusterLinks, 1e6));
  EXPECT_EQ(largest.active_count(), 1U);
  EXPECT_THROW(
      EdgeCluster(config, std::vector<double>(kMaxClusterLinks + 1, 1e6)),
      std::invalid_argument);
}

// ------------------------------------------------- allocation freedom ----

TEST(AllocationProbeTest, SingleLinkSteadyStateStepIsAllocationFree) {
  ServingConfig config = base_serving_config();
  config.steps = 120;
  config.policy = SchedulerPolicy::kWorkConserving;
  config.threads = 1;
  const double capacity = 6.0 * shared_cache().workload(0).bytes(4);
  SessionManager manager(config, capacity);
  // One arrival per slot phase: inside the window some session completes a
  // block of kStageRows steps (and flushes its staged tail samples into its
  // ring) at every slot, each at a different phase.
  for (std::size_t i = 0; i < kStageRows; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.seed = i;
    spec.arrival_slot = i;
    manager.submit(spec);
  }
  // Warm-up: admissions, trace reservations, scheduler scratch growth.
  for (int t = 0; t < 30; ++t) manager.step(capacity);

  const std::size_t active = manager.active_count();
  const std::size_t accepted = manager.admission_stats().accepted;
  ASSERT_EQ(active, kStageRows);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 60; ++t) manager.step(capacity);
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0U)
      << "steady-state slot loop performed " << (after - before)
      << " heap allocations over 60 slots";
  // No lifecycle edge inside the window: it measured drains and flushes only.
  EXPECT_EQ(manager.active_count(), active);
  EXPECT_EQ(manager.admission_stats().accepted, accepted);
  static_cast<void>(manager.finish());
}

TEST(AllocationProbeTest, ClusterSteadyStateStepIsAllocationFree) {
  // Serial and sharded: handing the links to executor workers allocates
  // nothing either.
  for (const std::size_t threads : {1UL, 2UL}) {
    ClusterConfig config;
    config.serving = base_serving_config();
    config.serving.steps = 120;
    config.serving.threads = threads;
    const double capacity = 4.0 * shared_cache().workload(0).bytes(4);
    EdgeCluster cluster(config, {capacity, capacity});
    // Arrivals at every slot phase, as in the single-link probe: the window
    // covers every stage-flush phase on both links.
    for (std::size_t i = 0; i < kStageRows; ++i) {
      SessionSpec spec;
      spec.cache = &shared_cache();
      spec.seed = i;
      spec.arrival_slot = i;
      cluster.submit(spec);
    }
    std::vector<double> caps{capacity, capacity};
    for (int t = 0; t < 30; ++t) cluster.step(caps);

    const std::size_t active = cluster.active_count();
    const std::size_t placed = cluster.ledger().placed;
    ASSERT_EQ(active, kStageRows);
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    for (int t = 0; t < 60; ++t) cluster.step(caps);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0U)
        << "steady-state cluster loop performed " << (after - before)
        << " heap allocations over 60 slots at threads=" << threads;
    EXPECT_EQ(cluster.active_count(), active);
    EXPECT_EQ(cluster.ledger().placed, placed);
    static_cast<void>(cluster.finish());
  }
}

TEST(AllocationProbeTest, WarmAdmissionDecisionIsAllocationFree) {
  // Once the controller has seen a cache, a decision reads the memoized
  // load curve: admits, rejects and releases allocate nothing. (Rejects log
  // at info level; pin the level below it so no message is formatted.)
  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  static const FrameStatsCache second(*open_test_subject(172), 8, 8);
  const std::vector<int> candidates{3, 4, 5, 6};
  AdmissionConfig config;
  config.utilization_target = 1.0;
  AdmissionController admission(config, 3.0 * cheapest_load(candidates));
  for (const FrameStatsCache* cache : {&shared_cache(), &second}) {
    static_cast<void>(admission.try_admit(*cache, candidates));
  }
  std::size_t rejects = 0;
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < 1'000; ++i) {
    admission.set_capacity_scale(i % 50 < 40 ? 1.0 : 0.0);
    const FrameStatsCache& cache = i % 2 == 0 ? shared_cache() : second;
    const AdmissionDecision d = admission.try_admit(cache, candidates);
    if (!d.admitted) ++rejects;
    if (i % 3 == 0) admission.release(d.cheapest_load);
    static_cast<void>(admission.cheapest_load(cache, candidates));
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  set_log_level(level);
  EXPECT_EQ(after - before, 0U)
      << "1000 warm admission decisions performed " << (after - before)
      << " heap allocations";
  EXPECT_GT(rejects, 0U);
}

TEST(AllocationProbeTest, WeightedPriorityRebuildAndHandoverAreAllocationFree) {
  // Under churn the membership generation moves every slot, so
  // weighted-priority rebuilds its tier partition on every call; once its
  // scratch has grown to the largest fleet, a rebuild allocates nothing.
  constexpr std::size_t kMaxSessions = 3000;
  std::vector<double> backlog(kMaxSessions), arrivals(kMaxSessions),
      weight(kMaxSessions);
  double demand = 0.0;
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    backlog[i] = 100.0 + static_cast<double>(i * 37 % 500);
    arrivals[i] = static_cast<double>(i * 13 % 200);
    demand += backlog[i] + arrivals[i];
  }
  constexpr double kClasses[] = {1.0, 2.0, 4.0};
  WeightedPriorityScheduler wp;
  std::vector<double> shares;
  const auto allocate = [&](std::size_t n, std::uint64_t generation) {
    for (std::size_t i = 0; i < n; ++i) {
      weight[i] = kClasses[(i * 7 + generation) % 3];
    }
    SchedulerInput input{std::span<const double>(backlog).first(n),
                         std::span<const double>(arrivals).first(n),
                         std::span<const double>(weight).first(n),
                         {}};
    input.membership_generation = generation;
    wp.allocate(0.5 * demand, input, shares);
  };
  allocate(kMaxSessions, 1);  // warm-up: scratch grows to the largest fleet

  std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (std::uint64_t generation = 2; generation <= 50; ++generation) {
    allocate(kMaxSessions - generation * 61 % 1000, generation);
  }
  std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0U)
      << "weighted-priority rebuilds performed " << (after - before)
      << " heap allocations over 49 calls";
  EXPECT_EQ(wp.stats().generic, 50U) << "every call must rebuild";

  // A cluster step with link 0 in handover: the drain heapifies and visits
  // every candidate (a zero budget skips them all, so nobody migrates and
  // the membership, hence the measured work, stays fixed).
  ClusterConfig config;
  config.serving = base_serving_config();
  config.serving.policy = SchedulerPolicy::kWeightedPriority;
  config.handover.enabled = true;
  config.handover.session_budget = 0;
  const double capacity = 4.0 * shared_cache().workload(0).bytes(4);
  EdgeCluster cluster(config, {capacity, capacity});
  for (std::size_t i = 0; i < 8; ++i) {
    SessionSpec spec;
    spec.cache = &shared_cache();
    spec.weight = kClasses[i % 3];
    spec.seed = i;
    cluster.submit(spec);
  }
  ASSERT_TRUE(cluster.set_link_degrade(0, 0.2, 3.0));
  std::vector<double> caps{capacity, capacity};
  for (int t = 0; t < 30; ++t) cluster.step(caps);
  ASSERT_TRUE(cluster.handover_active(0));
  ASSERT_GT(cluster.link(0).active_count(), 1U);

  before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 60; ++t) cluster.step(caps);
  after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0U)
      << "handover slot loop performed " << (after - before)
      << " heap allocations over 60 slots";
  EXPECT_EQ(cluster.ledger().migrations_requested, 0U);
  static_cast<void>(cluster.finish());
}

}  // namespace
}  // namespace arvis
