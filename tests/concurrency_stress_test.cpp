// Thread-stress subset (ctest -L thread; the TSan preset runs exactly these).
//
// Contracts under deliberate contention:
//   1. The sharded cluster — every link runs its memoized decide, schedule
//      and drain as one executor index — is bit-for-bit identical at 1, 2
//      and 4 threads with faults, handover, migration, brownout, the
//      registry, the tracer and the flight recorder all on: results,
//      metrics, every counter and histogram, the per-lane span shape and
//      the flight events (paper: per-session controllers read only their
//      own queue, so no link may observe how many threads ran the slot).
//   2. TelemetryCounter::add is safe to call concurrently (relaxed atomic):
//      hammered from every worker, the sum is exact, never torn or dropped.
//   3. PhaseTracer::record and FlightRecorder::record are safe to call
//      concurrently: totals are exact and no held record is torn, even when
//      writers wrap a small tracer ring onto the same entries.
//   4. The executor's own machinery (claim loop, exception funnel, pool
//      reuse) survives back-to-back jobs under TSan.
//   5. Failover under sharded slot loops: links flap while the shards run
//      at 2-8 threads — displaced sessions re-enter placement between
//      barriers without racing (TSan) and without perturbing determinism
//      (bit-identical to the serial run).
//   6. Migration under sharded slot loops: graded degradation roams across
//      the links and the handover policy moves hot sessions between stores
//      while the shards run at 2-8 threads — extract/inject of hot state
//      must be race-free and leave the run bit-identical to serial.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/executor.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"
#include "support/cluster_equality.hpp"

namespace arvis {
namespace {

const FrameStatsCache& stress_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

ServingConfig stress_config(std::size_t threads) {
  ServingConfig config;
  config.steps = 160;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(stress_cache(), config.candidates,
                                   4.0 * stress_cache().workload(0).bytes(5));
  config.admission.enabled = false;  // everyone in: maximise the fan-out
  config.threads = threads;
  config.trace_mode = TraceMode::kAll;  // the stress oracles compare traces
  return config;
}

std::vector<SessionSpec> churny_specs(std::size_t n, std::size_t steps) {
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &stress_cache();
    specs[i].seed = i;
    specs[i].weight = (i % 3 == 0) ? 2.0 : 1.0;
    // Staggered arrivals/departures so lifecycle edges land mid-run (the
    // compaction paths run while the executor is in use).
    specs[i].arrival_slot = (i % 5) * 7;
    specs[i].departure_slot = (i % 4 == 0) ? steps / 2 + i : kNeverDeparts;
  }
  return specs;
}

/// Staggered arrivals over the first 120 slots, a third of them leaving
/// after 30-90 slots, mixed weights and QoS tiers.
std::vector<SessionSpec> shard_specs(std::size_t n) {
  std::vector<SessionSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].cache = &stress_cache();
    specs[i].seed = 7'000 + i;
    specs[i].weight = (i % 3 == 0) ? 2.0 : 1.0;
    specs[i].qos = static_cast<std::uint8_t>(i % kSloTiers);
    specs[i].arrival_slot = (i * 7) % 120;
    specs[i].departure_slot = (i % 3 == 1)
                                  ? specs[i].arrival_slot + 30 + (i % 7) * 10
                                  : kNeverDeparts;
  }
  return specs;
}

/// One fully instrumented run of the sharded cluster and what it recorded.
struct ShardedRun {
  ClusterResult result;
  TelemetryRegistry registry;
  PhaseTracer tracer{TracerConfig{1 << 16, 1}};
  FlightRecorder flight{FlightRecorderConfig{1 << 16}};
  std::size_t brownout_enters = 0;
};

void run_sharded(std::size_t threads, ShardedRun& run) {
  ClusterConfig config;
  config.serving = stress_config(threads);
  config.serving.steps = 180;
  config.serving.admission.enabled = true;
  config.serving.admission.utilization_target = 1.0;
  // Weighted priority re-sorts on every membership change: the generic
  // schedule edges land flight events from inside the shards.
  config.serving.policy = SchedulerPolicy::kWeightedPriority;
  config.serving.degradation.enabled = true;
  config.serving.degradation.enter_utilization = 0.7;
  config.serving.degradation.exit_utilization = 0.5;
  config.serving.telemetry.mode = TelemetryMode::kFullTrace;
  config.serving.telemetry.registry = &run.registry;
  config.serving.telemetry.tracer = &run.tracer;
  config.serving.telemetry.flight = &run.flight;
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  config.handover.rebalance_on_departure = true;

  const double load = AdmissionController::cheapest_depth_load(
      stress_cache(), config.serving.candidates);
  const std::vector<double> means(4, 12.0 * load);

  EdgeCluster cluster(config, means);
  for (const SessionSpec& spec : shard_specs(64)) cluster.submit(spec);
  std::vector<double> caps = means;
  for (std::size_t t = 0; t < config.serving.steps; ++t) {
    // Fade (brownout pressure), graded degradation (handover), outages
    // (failover) and an external close, overlapping across the links.
    if (t == 25) cluster.set_link_capacity_scale(0, 0.45);
    if (t == 40) cluster.set_link_degrade(1, 0.2, 3.0);
    if (t == 60) cluster.set_link_state(2, true);
    if (t == 75) cluster.set_link_degrade(1, 1.0, 0.0);
    if (t == 90) cluster.set_link_state(2, false);
    if (t == 100) cluster.set_link_capacity_scale(0, 1.0);
    if (t == 110) cluster.request_close(5);
    if (t == 120) cluster.set_link_state(3, true);
    if (t == 150) cluster.set_link_state(3, false);
    for (std::size_t k = 0; k < caps.size(); ++k) {
      caps[k] = means[k] * (k == 0 ? cluster.link_capacity_scale(0) : 1.0);
    }
    cluster.step(caps);
  }
  const Status stores = cluster.validate_stores();
  EXPECT_TRUE(stores.ok()) << stores.to_string();
  for (std::size_t k = 0; k < cluster.link_count(); ++k) {
    run.brownout_enters += cluster.link(k).brownout_enters();
  }
  run.result = cluster.finish();
}

TEST(ConcurrencyStressTest, ShardedClusterBitIdenticalAcrossThreadCounts) {
  ShardedRun serial;
  run_sharded(1, serial);
  const ClusterMetrics& m = serial.result.metrics;
  // Every cross-link mechanism actually fired in the reference run.
  ASSERT_GT(m.failover_displaced, 0U);
  ASSERT_GT(m.migrations_completed, 0U);
  ASSERT_GT(m.link_degrade_events, 0U);
  ASSERT_GT(serial.brownout_enters, 0U);
  ASSERT_EQ(serial.tracer.dropped(), 0U);
  ASSERT_EQ(serial.flight.dropped(), 0U);
  // The shards themselves record into the shared flight ring.
  std::size_t fallbacks = 0;
  for (std::size_t i = 0; i < serial.flight.size(); ++i) {
    fallbacks += serial.flight.at(i).kind == FlightEventKind::kSchedFallback;
  }
  ASSERT_GT(fallbacks, 0U);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  EXPECT_EQ(m.migrations_requested,
            m.migrations_completed + m.migrations_aborted);

  for (const std::size_t threads : {2UL, 4UL}) {
    const std::string where = "threads=" + std::to_string(threads);
    ShardedRun sharded;
    run_sharded(threads, sharded);
    arvis_test::expect_cluster_results_equal(serial.result, sharded.result,
                                             where);
    arvis_test::expect_registries_equal(serial.registry, sharded.registry,
                                        where);
    EXPECT_EQ(sharded.brownout_enters, serial.brownout_enters) << where;
    EXPECT_EQ(sharded.tracer.recorded_total(), serial.tracer.recorded_total())
        << where;
    EXPECT_EQ(arvis_test::span_counts(sharded.tracer),
              arvis_test::span_counts(serial.tracer))
        << where;
    EXPECT_EQ(sharded.flight.recorded_total(), serial.flight.recorded_total())
        << where;
    EXPECT_EQ(arvis_test::flight_events(sharded.flight),
              arvis_test::flight_events(serial.flight))
        << where;
  }
}

TEST(ConcurrencyStressTest, ConcurrentCounterAddsAreExact) {
  TelemetryRegistry registry;
  // Handles registered up front (the registry itself is single-threaded);
  // only add() is exercised concurrently, per the instrument contract.
  TelemetryCounter& hits = registry.counter("stress/hits");
  TelemetryCounter& bytes = registry.counter("stress/bytes");
  const std::size_t iterations = 200'000;
  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const std::uint64_t hits_before = hits.value();
    const std::uint64_t bytes_before = bytes.value();
    ParallelExecutor executor(threads);
    executor.parallel_for(iterations, [&](std::size_t i) {
      hits.add();
      bytes.add(i % 7 + 1);
    });
    std::uint64_t expect_bytes = 0;
    for (std::size_t i = 0; i < iterations; ++i) expect_bytes += i % 7 + 1;
    EXPECT_EQ(hits.value() - hits_before, iterations) << threads;
    EXPECT_EQ(bytes.value() - bytes_before, expect_bytes) << threads;
  }
}

TEST(ConcurrencyStressTest, ConcurrentTracerRecordsAreExactAndUntorn) {
  // A ring far smaller than the record count: writers on different threads
  // keep wrapping onto the same entries, the case the per-entry flag
  // arbitrates. Every field of a span encodes the same (writer, index)
  // value, so a held span mixing two calls' fields is detectable.
  const std::size_t per_writer = 20'000;
  for (const std::size_t threads : {2UL, 4UL}) {
    PhaseTracer tracer(TracerConfig{61, 1});
    ParallelExecutor executor(threads);
    executor.parallel_for(threads, [&](std::size_t w) {
      for (std::size_t j = 0; j < per_writer; ++j) {
        const std::uint64_t v = w * per_writer + j;
        tracer.record(static_cast<Phase>(v % kPhaseCount), v,
                      static_cast<std::uint32_t>(v), v, 2 * v);
      }
    });
    const std::uint64_t total = threads * per_writer;
    EXPECT_EQ(tracer.recorded_total(), total) << threads;
    EXPECT_EQ(tracer.dropped(), total - tracer.capacity()) << threads;
    ASSERT_EQ(tracer.size(), tracer.capacity()) << threads;
    std::vector<std::uint64_t> held;
    for (std::size_t i = 0; i < tracer.size(); ++i) {
      const SpanRecord& r = tracer.at(i);
      const std::uint64_t v = r.start_ns;
      ASSERT_EQ(r.dur_ns, v) << threads << " span " << i;
      ASSERT_EQ(r.slot, v) << threads << " span " << i;
      ASSERT_EQ(r.tid, static_cast<std::uint32_t>(v)) << threads;
      ASSERT_EQ(r.phase, static_cast<Phase>(v % kPhaseCount)) << threads;
      held.push_back(v);
    }
    std::sort(held.begin(), held.end());
    EXPECT_TRUE(std::adjacent_find(held.begin(), held.end()) == held.end())
        << threads << ": a span is held twice";
  }
}

TEST(ConcurrencyStressTest, ConcurrentFlightRecordsAreExact) {
  // The flight ring's relaxed claim gives every concurrent record its own
  // entry; with room for all of them, each (writer, index) record is held
  // exactly once, whole, under a distinct sequence number.
  const std::size_t per_writer = 5'000;
  for (const std::size_t threads : {2UL, 4UL}) {
    FlightRecorder recorder(FlightRecorderConfig{threads * per_writer});
    ParallelExecutor executor(threads);
    executor.parallel_for(threads, [&](std::size_t w) {
      for (std::size_t j = 0; j < per_writer; ++j) {
        const std::size_t v = w * per_writer + j;
        recorder.record(FlightEventKind::kAdmit, v,
                        static_cast<std::uint32_t>(w),
                        static_cast<double>(v), -static_cast<double>(v));
      }
    });
    ASSERT_EQ(recorder.recorded_total(), threads * per_writer) << threads;
    EXPECT_EQ(recorder.dropped(), 0U) << threads;
    std::vector<bool> seen(threads * per_writer, false);
    std::vector<bool> seq_seen(threads * per_writer + 1, false);
    for (std::size_t i = 0; i < recorder.size(); ++i) {
      const FlightEvent& e = recorder.at(i);
      ASSERT_LT(e.slot, seen.size()) << threads;
      ASSERT_EQ(e.tid, e.slot / per_writer) << threads;
      ASSERT_EQ(e.a, static_cast<double>(e.slot)) << threads;
      ASSERT_EQ(e.b, -static_cast<double>(e.slot)) << threads;
      ASSERT_FALSE(seen[e.slot]) << threads << ": record held twice";
      seen[e.slot] = true;
      ASSERT_TRUE(e.seq >= 1 && e.seq < seq_seen.size()) << threads;
      ASSERT_FALSE(seq_seen[e.seq]) << threads << ": sequence reused";
      seq_seen[e.seq] = true;
    }
  }
}

TEST(ConcurrencyStressTest, ExecutorSurvivesContendedReuseAndExceptions) {
  ParallelExecutor executor(8);
  std::vector<std::atomic<std::uint32_t>> hits(4096);
  for (auto& h : hits) h = 0;
  // Many small back-to-back jobs: the pool's handoff (claim counter,
  // wakeup, completion barrier) is the contended surface, not the work.
  for (int round = 0; round < 50; ++round) {
    executor.parallel_for(hits.size(),
                          [&](std::size_t i) { ++hits[i]; });
  }
  for (const auto& h : hits) EXPECT_EQ(h.load(), 50U);

  // A throwing job must drain, propagate once, and leave the pool usable.
  std::atomic<std::uint32_t> ran{0};
  EXPECT_THROW(executor.parallel_for(512,
                                     [&](std::size_t i) {
                                       ++ran;
                                       if (i % 128 == 13) {
                                         throw std::runtime_error("boom");
                                       }
                                     }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 512U);
  executor.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 51U);
}

ClusterResult run_flapping_cluster(std::size_t threads) {
  ClusterConfig config;
  config.serving = stress_config(threads);
  config.serving.admission.enabled = true;  // failover needs real placement
  config.serving.admission.utilization_target = 1.0;
  config.placement = PlacementPolicy::kLeastLoaded;

  const double load = AdmissionController::cheapest_depth_load(
      stress_cache(), config.serving.candidates);
  const std::size_t links = 4;
  const std::vector<double> means(links, 8.4 * load);

  EdgeCluster cluster(config, means);
  for (const SessionSpec& spec : churny_specs(48, config.serving.steps)) {
    cluster.submit(spec);
  }
  // Two links flap on different cadences, so re-placement waves land while
  // earlier waves' sessions are still streaming on their fallback links.
  for (std::size_t t = 0; t < config.serving.steps; ++t) {
    if (t == 40) cluster.set_link_state(1, true);
    if (t == 60) cluster.set_link_state(2, true);
    if (t == 80) cluster.set_link_state(1, false);
    if (t == 100) cluster.set_link_state(2, false);
    if (t == 120) cluster.set_link_state(3, true);
    cluster.step(means);
  }
  return cluster.finish();
}

TEST(ConcurrencyStressTest, FailoverUnderShardedSlotLoopsMatchesSerial) {
  const ClusterResult serial = run_flapping_cluster(1);
  // The flaps actually displaced sessions, and the books reconcile: every
  // displaced session was re-placed, evicted, or closed.
  ASSERT_GT(serial.metrics.failover_displaced, 0U);
  EXPECT_EQ(serial.metrics.failover_displaced,
            serial.metrics.failover_replaced + serial.metrics.fault_evicted +
                serial.metrics.fault_closed);

  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const ClusterResult parallel = run_flapping_cluster(threads);
    EXPECT_EQ(parallel.metrics.failover_displaced,
              serial.metrics.failover_displaced)
        << threads;
    EXPECT_EQ(parallel.metrics.failover_replaced,
              serial.metrics.failover_replaced)
        << threads;
    EXPECT_EQ(parallel.metrics.fault_evicted, serial.metrics.fault_evicted)
        << threads;
    EXPECT_EQ(parallel.metrics.fault_closed, serial.metrics.fault_closed)
        << threads;
    ASSERT_EQ(parallel.sessions.size(), serial.sessions.size()) << threads;
    for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
      const ClusterSessionOutcome& a = serial.sessions[i];
      const ClusterSessionOutcome& b = parallel.sessions[i];
      ASSERT_EQ(a.link, b.link) << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.failovers, b.failovers)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.fault_evicted, b.fault_evicted)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.session.trace.size(), b.session.trace.size())
          << "threads=" << threads << " session=" << i;
      for (std::size_t t = 0; t < a.session.trace.size(); ++t) {
        const StepRecord& x = a.session.trace.at(t);
        const StepRecord& y = b.session.trace.at(t);
        ASSERT_EQ(x.depth, y.depth)
            << "threads=" << threads << " session=" << i << " slot=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.backlog_end),
                  std::bit_cast<std::uint64_t>(y.backlog_end))
            << "threads=" << threads << " session=" << i << " slot=" << t;
      }
    }
    EXPECT_EQ(parallel.metrics.fleet.capacity_used,
              serial.metrics.fleet.capacity_used)
        << threads;
    arvis_test::expect_cluster_results_equal(
        serial, parallel, "threads=" + std::to_string(threads));
  }
}

ClusterResult run_migrating_cluster(std::size_t threads) {
  ClusterConfig config;
  config.serving = stress_config(threads);
  config.serving.admission.enabled = true;
  config.serving.admission.utilization_target = 1.0;
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  config.handover.rebalance_on_departure = true;

  const double load = AdmissionController::cheapest_depth_load(
      stress_cache(), config.serving.candidates);
  const std::size_t links = 4;
  const std::vector<double> means(links, 8.4 * load);

  EdgeCluster cluster(config, means);
  for (const SessionSpec& spec : churny_specs(48, config.serving.steps)) {
    cluster.submit(spec);
  }
  // Graded degradation roams across the links (with one hard flap mixed in)
  // so the handover policy migrates sessions between slots whose shards run
  // on the executor: the hot-state extract/inject path must not race the
  // shards and must not perturb determinism.
  for (std::size_t t = 0; t < config.serving.steps; ++t) {
    if (t == 30) cluster.set_link_degrade(0, 0.2, 3.0);
    if (t == 60) cluster.set_link_degrade(0, 1.0, 0.0);
    if (t == 60) cluster.set_link_degrade(2, 0.15, 4.0);
    if (t == 80) cluster.set_link_state(1, true);
    if (t == 100) cluster.set_link_state(1, false);
    if (t == 110) cluster.set_link_degrade(2, 1.0, 0.0);
    if (t == 120) cluster.set_link_degrade(3, 0.25, 2.0);
    cluster.step(means);
  }
  return cluster.finish();
}

TEST(ConcurrencyStressTest, MigrationUnderShardedSlotLoopsMatchesSerial) {
  const ClusterResult serial = run_migrating_cluster(1);
  // The degradation actually triggered migrations, and the books are exact.
  ASSERT_GT(serial.metrics.migrations_completed, 0U);
  EXPECT_EQ(serial.metrics.migrations_requested,
            serial.metrics.migrations_completed +
                serial.metrics.migrations_aborted);
  EXPECT_EQ(serial.metrics.failover_displaced,
            serial.metrics.failover_replaced + serial.metrics.fault_evicted +
                serial.metrics.fault_closed);

  for (const std::size_t threads : {2UL, 4UL, 8UL}) {
    const ClusterResult parallel = run_migrating_cluster(threads);
    EXPECT_EQ(parallel.metrics.migrations_requested,
              serial.metrics.migrations_requested)
        << threads;
    EXPECT_EQ(parallel.metrics.migrations_completed,
              serial.metrics.migrations_completed)
        << threads;
    EXPECT_EQ(parallel.metrics.migrations_aborted,
              serial.metrics.migrations_aborted)
        << threads;
    ASSERT_EQ(parallel.sessions.size(), serial.sessions.size()) << threads;
    for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
      const ClusterSessionOutcome& a = serial.sessions[i];
      const ClusterSessionOutcome& b = parallel.sessions[i];
      ASSERT_EQ(a.link, b.link) << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.migrations, b.migrations)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.failovers, b.failovers)
          << "threads=" << threads << " session=" << i;
      ASSERT_EQ(a.session.trace.size(), b.session.trace.size())
          << "threads=" << threads << " session=" << i;
      for (std::size_t t = 0; t < a.session.trace.size(); ++t) {
        const StepRecord& x = a.session.trace.at(t);
        const StepRecord& y = b.session.trace.at(t);
        ASSERT_EQ(x.depth, y.depth)
            << "threads=" << threads << " session=" << i << " slot=" << t;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(x.backlog_end),
                  std::bit_cast<std::uint64_t>(y.backlog_end))
            << "threads=" << threads << " session=" << i << " slot=" << t;
      }
    }
    EXPECT_EQ(parallel.metrics.fleet.capacity_used,
              serial.metrics.fleet.capacity_used)
        << threads;
    arvis_test::expect_cluster_results_equal(
        serial, parallel, "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace arvis
