// Tests for live session migration & handover resilience: explicit
// mid-stream migration with hot-state transfer (the migrated session's
// decide/drain sequence is bit-identical to an un-migrated oracle twin on an
// equivalent link), the exact migration books
// (requested == completed + aborted; aborts fall back to the displaced/
// failover path, nothing stranded), the graded kLinkDegrade fault verb
// composing with capacity scales, the HandoverPolicy (enter/exit
// hysteresis, per-session ping-pong budget, rebalance-on-departure), and
// policy-idle bit-identity (an enabled-but-quiet policy changes nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/driver/event_loop.hpp"
#include "serving/driver/fault.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/scenario.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"

namespace arvis {
namespace {

const FrameStatsCache& migration_cache() {
  static const FrameStatsCache cache(*open_test_subject(17), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(migration_cache(),
                                                  candidates);
}

ServingConfig base_serving() {
  ServingConfig config;
  config.steps = 200;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(migration_cache(), config.candidates,
                                   4.0 * migration_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

SessionSpec session_spec(std::size_t arrival, std::size_t departure,
                         std::uint64_t seed = 7) {
  SessionSpec spec;
  spec.cache = &migration_cache();
  spec.arrival_slot = arrival;
  spec.departure_slot = departure;
  spec.seed = seed;
  return spec;
}

// ------------------------------------------------ explicit migration ----

TEST(MigrationTest, MigratedSessionMatchesOracleTwinBitForBit) {
  // One session, two equivalent links. Cluster A migrates it from link 0 to
  // link 1 at slot 20; the twin cluster leaves it alone. Hot-state transfer
  // (backlog, EWMA, frame-row cursor) must make the migrated session's
  // per-slot records from the migration onward bit-identical to the twin's.
  ClusterConfig config;
  config.serving = base_serving();
  config.serving.trace_mode = TraceMode::kAll;  // compares per-slot records
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  const std::vector<double> caps{4.0 * load, 4.0 * load};

  EdgeCluster migrated(config, means);
  const std::size_t id = migrated.submit(session_spec(0, 60));
  for (std::size_t t = 0; t < 20; ++t) migrated.step(caps);
  ASSERT_TRUE(migrated.migrate_session(id, 1));
  for (std::size_t t = 20; t < 60; ++t) migrated.step(caps);
  const ClusterResult moved = migrated.finish();

  EdgeCluster oracle(config, means);
  const std::size_t twin = oracle.submit(session_spec(0, 60));
  for (std::size_t t = 0; t < 60; ++t) oracle.step(caps);
  const ClusterResult stayed = oracle.finish();

  EXPECT_EQ(moved.metrics.migrations_requested, 1U);
  EXPECT_EQ(moved.metrics.migrations_completed, 1U);
  EXPECT_EQ(moved.metrics.migrations_aborted, 0U);
  EXPECT_EQ(moved.sessions[id].migrations, 1U);
  EXPECT_EQ(moved.sessions[id].link, 1);
  EXPECT_EQ(moved.sessions[id].failovers, 0U);

  // The reported outcome is the target-link segment: starts at the
  // migration slot, runs to the departure.
  const Trace& seg = moved.sessions[id].session.trace;
  const Trace& full = stayed.sessions[twin].session.trace;
  ASSERT_EQ(full.size(), 60U);
  ASSERT_EQ(seg.size(), 40U);
  ASSERT_EQ(seg.at(0).t, 20U);
  // The first migrated record opens with the carried backlog: exactly the
  // twin's backlog at the same slot.
  EXPECT_EQ(seg.at(0).backlog_begin, full.at(20).backlog_begin);
  for (std::size_t i = 0; i < seg.size(); ++i) {
    const StepRecord& a = seg.at(i);
    const StepRecord& b = full.at(20 + i);
    EXPECT_EQ(a.t, b.t) << i;
    EXPECT_EQ(a.depth, b.depth) << i;
    EXPECT_EQ(a.arrivals, b.arrivals) << i;
    EXPECT_EQ(a.service, b.service) << i;
    EXPECT_EQ(a.backlog_begin, b.backlog_begin) << i;
    EXPECT_EQ(a.backlog_end, b.backlog_end) << i;
    EXPECT_EQ(a.quality, b.quality) << i;
  }
}

TEST(MigrationTest, ExplicitMigrationRecordsFlightEventAndRejectsBadInput) {
  FlightRecorder recorder({256});
  ClusterConfig config;
  config.serving = base_serving();
  config.serving.telemetry.flight = &recorder;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  const std::size_t id = cluster.submit(session_spec(0, 80));
  for (std::size_t t = 0; t < 10; ++t) cluster.step(means);

  // Invalid inputs refuse without touching the books.
  EXPECT_FALSE(cluster.migrate_session(id, 0));   // already there
  EXPECT_FALSE(cluster.migrate_session(id, 7));   // no such link
  EXPECT_FALSE(cluster.migrate_session(99, 1));   // no such session
  ASSERT_TRUE(cluster.set_link_state(1, true));
  EXPECT_FALSE(cluster.migrate_session(id, 1));   // target down
  ASSERT_TRUE(cluster.set_link_state(1, false));
  EXPECT_EQ(cluster.ledger().migrations_requested, 0U);

  ASSERT_TRUE(cluster.migrate_session(id, 1));
  EXPECT_EQ(cluster.ledger().migrations_requested, 1U);
  EXPECT_EQ(cluster.ledger().migrations_completed, 1U);

  // The flight ring carries the migration: a = session id, b encodes
  // reason 2 (explicit), from link 0, to link 1.
  bool saw = false;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& e = recorder.at(i);
    if (e.kind != FlightEventKind::kMigration) continue;
    saw = true;
    EXPECT_EQ(e.a, static_cast<double>(id));
    EXPECT_EQ(e.b, 2.0 * 1048576.0 + 0.0 * 1024.0 + 1.0);
  }
  EXPECT_TRUE(saw);

  for (std::size_t t = 0; t < 10; ++t) cluster.step(means);
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.sessions[id].link, 1);
  EXPECT_EQ(result.sessions[id].migrations, 1U);
}

TEST(MigrationTest, AbortedMigrationFallsBackToDisplacedPath) {
  // Link 1 is too small to admit the session: the migration aborts, the
  // session lands on the displaced path, and the next slot re-places it on
  // link 0 under the usual exact failover books. Nothing is stranded.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 0.1 * load};
  const std::vector<double> caps{4.0 * load, 0.1 * load};

  EdgeCluster cluster(config, means);
  const std::size_t id = cluster.submit(session_spec(0, 80));
  for (std::size_t t = 0; t < 10; ++t) cluster.step(caps);
  ASSERT_EQ(cluster.link(0).active_count(), 1U);

  EXPECT_FALSE(cluster.migrate_session(id, 1));
  EXPECT_EQ(cluster.ledger().migrations_requested, 1U);
  EXPECT_EQ(cluster.ledger().migrations_completed, 0U);
  EXPECT_EQ(cluster.ledger().migrations_aborted, 1U);

  for (std::size_t t = 0; t < 10; ++t) cluster.step(caps);
  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  EXPECT_EQ(m.migrations_requested, m.migrations_completed +
                                        m.migrations_aborted);
  EXPECT_EQ(m.failover_displaced, 1U);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  EXPECT_EQ(result.sessions[id].migrations, 0U);
  EXPECT_EQ(result.sessions[id].failovers, 1U);
  EXPECT_EQ(result.sessions[id].link, 0);
  EXPECT_FALSE(result.sessions[id].fault_evicted);
}

// -------------------------------------------------- kLinkDegrade verb ----

TEST(DegradeTest, DegradeShrinksAdmissionAndComposesWithCapacityScale) {
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load};

  // A deep degrade refuses the same session nominal capacity admits.
  for (const double scale : {1.0, 0.05}) {
    EdgeCluster cluster(config, means);
    ASSERT_TRUE(cluster.set_link_degrade(0, scale, 2.0));
    const std::size_t id = cluster.submit(session_spec(0, 20));
    cluster.step({means[0] * scale});
    const ClusterResult result = cluster.finish();
    EXPECT_EQ(result.sessions[id].session.admitted, scale == 1.0) << scale;
    EXPECT_EQ(result.metrics.link_degrade_events, 1U);
  }

  // Degrade composes multiplicatively with the operator capacity scale on
  // the offered-capacity plane: 0.5 x 0.5 = 0.25 of the feed, exactly.
  EdgeCluster cluster(config, means);
  const double cap = 1.0e5;
  ASSERT_TRUE(cluster.set_link_capacity_scale(0, 0.5));
  ASSERT_TRUE(cluster.set_link_degrade(0, 0.5, 1.0));
  EXPECT_EQ(cluster.link_degrade_scale(0), 0.5);
  EXPECT_EQ(cluster.link_delay(0), 1.0);
  for (std::size_t t = 0; t < 10; ++t) cluster.step({cap});
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.metrics.fleet.capacity_offered, cap * 0.25 * 10.0);

  // Bad inputs refuse.
  EdgeCluster fresh(config, means);
  EXPECT_FALSE(fresh.set_link_degrade(0, -0.5, 0.0));
  EXPECT_FALSE(fresh.set_link_degrade(0, 0.5, -1.0));
  EXPECT_FALSE(fresh.set_link_degrade(1, 0.5, 0.0));  // out of range
}

TEST(DegradeTest, DriverAppliesLinkDegradeEventsAndCounts) {
  ClusterConfig config;
  config.serving = base_serving();
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  EdgeCluster cluster(config, means);
  ConstantChannel a(means[0]), b(means[1]);
  ClusterBackend backend(cluster, {&a, &b});

  DriverConfig driver;
  EventLoop loop(driver, backend);
  loop.schedule_arrival(0, session_spec(0, 60));
  FaultPlan plan;
  plan.degrade_pulse(1, 10, 8, 0.3, 2.0, 10, /*steps=*/2);
  loop.schedule_fault_plan(plan);
  const DriverReport report = loop.run();

  EXPECT_EQ(report.faults_applied, 3U);  // 2 ramp stages + recovery
  EXPECT_EQ(cluster.ledger().link_degrade_events, 3U);
  EXPECT_EQ(report.faults_ignored, 0U);
  EXPECT_EQ(cluster.link_degrade_scale(1), 1.0);  // recovered by the end
  const ClusterResult result = cluster.finish();
  EXPECT_EQ(result.metrics.link_degrade_events, 3U);
}

// ------------------------------------------------------ HandoverPolicy ----

TEST(HandoverPolicyTest, HysteresisEntersAndExitsWithABand) {
  ClusterConfig config;
  config.serving = base_serving();
  config.handover.enabled = true;
  config.handover.enter_score = 0.5;
  config.handover.exit_score = 0.2;
  config.handover.delay_weight = 0.1;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  const std::vector<double> caps{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  // Mid-band score (0.3 + 0.05 = 0.35 < enter): never enters.
  ASSERT_TRUE(cluster.set_link_degrade(0, 0.7, 0.5));
  cluster.step(caps);
  EXPECT_FALSE(cluster.handover_active(0));
  // Deep degrade (0.7 + 0.1 = 0.8 >= enter): enters.
  ASSERT_TRUE(cluster.set_link_degrade(0, 0.3, 1.0));
  cluster.step(caps);
  EXPECT_TRUE(cluster.handover_active(0));
  // Back to mid-band: above exit, stays in — the hysteresis band.
  ASSERT_TRUE(cluster.set_link_degrade(0, 0.7, 0.5));
  cluster.step(caps);
  EXPECT_TRUE(cluster.handover_active(0));
  // Full recovery: exits.
  ASSERT_TRUE(cluster.set_link_degrade(0, 1.0, 0.0));
  cluster.step(caps);
  EXPECT_FALSE(cluster.handover_active(0));
  cluster.finish();

  // enter <= exit is rejected at construction.
  ClusterConfig bad = config;
  bad.handover.enter_score = 0.2;
  bad.handover.exit_score = 0.5;
  EXPECT_THROW(EdgeCluster(bad, means), std::invalid_argument);
}

TEST(HandoverPolicyTest, DegradedLinkHandsSessionsOverAndBooksBalance) {
  // Two links, three long sessions spread across them, then link 0 degrades
  // hard: the policy migrates its sessions onto link 1 mid-stream and the
  // books reconcile exactly.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{8.0 * load, 8.0 * load};

  EdgeCluster cluster(config, means);
  ConstantChannel a(means[0]), b(means[1]);
  ClusterBackend backend(cluster, {&a, &b});
  DriverConfig driver;
  EventLoop loop(driver, backend);
  for (std::size_t i = 0; i < 3; ++i) {
    loop.schedule_arrival(0, session_spec(0, 120, i));
  }
  FaultPlan plan;
  plan.events = {
      {40, FaultKind::kLinkDegrade, 0, 0.2, 3.0},   // score 1.1: enter
      {80, FaultKind::kLinkDegrade, 0, 1.0, 0.0}};  // recover: exit
  loop.schedule_fault_plan(plan);
  const DriverReport report = loop.run();

  EXPECT_GT(report.migrations_completed, 0U);
  EXPECT_EQ(report.migrations_requested,
            report.migrations_completed + report.migrations_aborted);

  const ClusterResult result = cluster.finish();
  const ClusterMetrics& m = result.metrics;
  EXPECT_EQ(m.migrations_requested,
            m.migrations_completed + m.migrations_aborted);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  std::size_t migration_sum = 0;
  for (const ClusterSessionOutcome& s : result.sessions) {
    migration_sum += s.migrations;
    // Every session survived the degradation: no evictions, all on link 1
    // (or still link 1 after the drain).
    EXPECT_FALSE(s.fault_evicted);
    EXPECT_TRUE(s.session.admitted);
  }
  EXPECT_EQ(migration_sum, m.migrations_completed);
}

TEST(HandoverPolicyTest, SessionBudgetSuppressesPingPong) {
  // Alternating degradation between the two links tempts the policy to
  // bounce sessions back and forth every pulse; the per-session window
  // budget caps each session's migrations.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  config.handover.session_budget = 1;
  config.handover.window_slots = 1'000'000;  // one budget for the whole run
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{8.0 * load, 8.0 * load};

  auto run_with_budget = [&](std::size_t budget) {
    ClusterConfig c = config;
    c.handover.session_budget = budget;
    EdgeCluster cluster(c, means);
    ConstantChannel a(means[0]), b(means[1]);
    ClusterBackend backend(cluster, {&a, &b});
    DriverConfig driver;
    EventLoop loop(driver, backend);
    for (std::size_t i = 0; i < 4; ++i) {
      loop.schedule_arrival(0, session_spec(0, 400, i));
    }
    // Flap the degradation between the links every 40 slots.
    FaultPlan flap;
    for (std::uint32_t round = 0; round < 4; ++round) {
      const std::uint32_t link = round % 2;
      const std::size_t at = 40 + round * 80;
      flap.events.push_back({at, FaultKind::kLinkDegrade, link, 0.2, 3.0});
      flap.events.push_back({at + 40, FaultKind::kLinkDegrade, link, 1.0, 0.0});
    }
    loop.schedule_fault_plan(flap);
    loop.run();
    return cluster.finish();
  };

  const ClusterResult tight = run_with_budget(1);
  EXPECT_GT(tight.metrics.migrations_completed, 0U);
  for (const ClusterSessionOutcome& s : tight.sessions) {
    EXPECT_LE(s.migrations, 1U);
  }

  // A looser budget admits more total migrations than the tight one.
  const ClusterResult loose = run_with_budget(8);
  EXPECT_GE(loose.metrics.migrations_completed,
            tight.metrics.migrations_completed);
  std::uint32_t worst = 0;
  for (const ClusterSessionOutcome& s : loose.sessions) {
    worst = std::max(worst, s.migrations);
  }
  EXPECT_GT(worst, 1U) << "the flap must actually ping-pong when allowed";
}

TEST(HandoverPolicyTest, DrainOrderIsWorstBacklogFirstPastBudgetSkips) {
  // Twelve sessions on link 0 in four arrival groups of three: a group's
  // sessions are identical, so their backlogs tie exactly. The worst-served
  // sessions spend their ping-pong budget first, then link 0 degrades. The
  // drain must visit candidates in (backlog desc, runtime id asc) order,
  // skip the spent ones, and migrate exactly the next
  // max_migrations_per_slot — the cut falls inside a backlog tie, so the id
  // tie-break decides who moves.
  ClusterConfig config;
  config.serving = base_serving();
  config.serving.policy = SchedulerPolicy::kWorkConserving;
  config.handover.enabled = true;
  config.handover.delay_weight = 0.1;
  config.handover.max_migrations_per_slot = 2;
  config.handover.window_slots = 1'000'000;  // one budget for the whole run
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{16.0 * load, 16.0 * load};
  // Link 0 runs below its sessions' demand, so backlogs build up.
  const std::vector<double> caps{6.0 * load, 16.0 * load};

  EdgeCluster cluster(config, means);
  ASSERT_TRUE(cluster.set_link_state(1, true));  // everyone lands on link 0
  for (std::size_t i = 0; i < 12; ++i) {
    cluster.submit(session_spec(i / 3, kNeverDeparts));
  }
  for (std::size_t t = 0; t < 4; ++t) cluster.step(caps);
  ASSERT_TRUE(cluster.set_link_state(1, false));
  for (std::size_t t = 0; t < 16; ++t) cluster.step(caps);
  ASSERT_EQ(cluster.link(0).active_count(), 12U);

  // (backlog, runtime id) of link 0's sessions, in drain order.
  const auto drain_order = [&] {
    std::vector<std::pair<double, std::size_t>> order;
    const SessionManager& link0 = cluster.link(0);
    for (std::size_t i = 0; i < link0.active_count(); ++i) {
      order.emplace_back(link0.active_backlogs()[i],
                         link0.active_session_id(i));
    }
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    return order;
  };

  // Spend the budget (2) of the worst-served group: a round trip to link 1
  // and back, which carries the backlog and mints fresh runtime ids. Until
  // then a runtime id is its session id (every session placed at arrival).
  const auto before = drain_order();
  ASSERT_EQ(before[0].first, before[2].first) << "premise: a tied group";
  std::vector<std::size_t> in_budget;
  for (std::size_t i = 0; i < before.size(); ++i) {
    if (i < 3) {
      ASSERT_TRUE(cluster.migrate_session(before[i].second, 1));
      ASSERT_TRUE(cluster.migrate_session(before[i].second, 0));
    } else {
      in_budget.push_back(before[i].second);
    }
  }

  // The first in-budget pair are the next group's first two sessions by
  // id, and its third (tied) one stays behind.
  const auto order = drain_order();
  std::vector<std::size_t> expected;
  std::size_t skipped = 0;
  for (const auto& [backlog, rid] : order) {
    if (std::find(in_budget.begin(), in_budget.end(), rid) ==
        in_budget.end()) {
      ++skipped;
      EXPECT_TRUE(expected.empty()) << "spent sessions lead the order";
    } else if (expected.size() < config.handover.max_migrations_per_slot) {
      expected.push_back(rid);
    }
  }
  ASSERT_EQ(skipped, 3U);
  ASSERT_EQ(order[3].first, order[4].first);
  ASSERT_EQ(order[4].first, order[5].first) << "premise: cut inside a tie";
  ASSERT_GT(order[2].first, order[3].first);
  const std::vector<std::size_t> second_group{order[3].second,
                                              order[4].second};
  ASSERT_EQ(expected, second_group);

  // Degrade link 0 (score 0.8 + 0.3 >= enter): one handover slot.
  const ClusterLedger ledger_before = cluster.ledger();
  ASSERT_TRUE(cluster.set_link_degrade(0, 0.2, 3.0));
  cluster.step(caps);
  ASSERT_TRUE(cluster.handover_active(0));
  EXPECT_EQ(cluster.ledger().migrations_requested -
                ledger_before.migrations_requested,
            config.handover.max_migrations_per_slot);

  // Exactly the expected sessions left link 0; everyone else stayed.
  const SessionManager& link0 = cluster.link(0);
  std::vector<std::size_t> remaining;
  for (std::size_t i = 0; i < link0.active_count(); ++i) {
    remaining.push_back(link0.active_session_id(i));
  }
  EXPECT_EQ(remaining.size(), 12U - expected.size());
  for (const auto& [backlog, rid] : order) {
    const bool moved =
        std::find(expected.begin(), expected.end(), rid) != expected.end();
    EXPECT_EQ(std::find(remaining.begin(), remaining.end(), rid) ==
                  remaining.end(),
              moved)
        << "runtime id " << rid;
  }
  cluster.finish();
}

TEST(HandoverPolicyTest, RebalanceOnDepartureFillsFreedLink) {
  // Three sessions, least-loaded placement: two land on link 0, one on
  // link 1. When link 1's session departs, rebalance-on-departure pulls the
  // worst-served session off link 0 onto the freed link.
  ClusterConfig config;
  config.serving = base_serving();
  config.placement = PlacementPolicy::kLeastLoaded;
  config.handover.enabled = true;
  config.handover.rebalance_on_departure = true;
  const double load = cheapest_load(config.serving.candidates);
  const std::vector<double> means{4.0 * load, 4.0 * load};
  const std::vector<double> caps{4.0 * load, 4.0 * load};

  EdgeCluster cluster(config, means);
  const std::size_t s0 = cluster.submit(session_spec(0, 100, 1));
  const std::size_t s1 = cluster.submit(session_spec(0, 30, 2));
  const std::size_t s2 = cluster.submit(session_spec(0, 100, 3));
  for (std::size_t t = 0; t < 60; ++t) cluster.step(caps);
  const ClusterResult result = cluster.finish();

  EXPECT_EQ(result.metrics.migrations_completed, 1U);
  EXPECT_EQ(result.metrics.migrations_requested, 1U);
  // The departing session never migrated; exactly one of the survivors
  // moved onto its link.
  EXPECT_EQ(result.sessions[s1].migrations, 0U);
  EXPECT_EQ(result.sessions[s0].migrations + result.sessions[s2].migrations,
            1U);
  const int moved_link = result.sessions[s0].migrations == 1
                             ? result.sessions[s0].link
                             : result.sessions[s2].link;
  EXPECT_EQ(moved_link, result.sessions[s1].link);
}

TEST(HandoverPolicyTest, QuietPolicyIsBitIdenticalToDisabled) {
  // An enabled policy with no degradation anywhere must not perturb the run:
  // same churn, same placement, same metrics, bit for bit.
  ScenarioConfig scenario;
  scenario.horizon = 400;
  scenario.mean_duration = 80.0;
  scenario.max_duration = 200;
  scenario.base_rate = 0.5 * 4.0 / scenario.mean_duration;
  scenario.profile_count = 1;
  scenario.seed = 99;

  auto run = [&](bool enabled) {
    ReplayConfig config;
    config.cluster.serving = base_serving();
    config.cluster.placement = PlacementPolicy::kLeastLoaded;
    config.cluster.handover.enabled = enabled;
    config.driver.snapshot_period = 25;
    const double load = cheapest_load(config.cluster.serving.candidates);
    ConstantChannel a(2.4 * load), b(2.4 * load);
    std::vector<ChannelModel*> channels{&a, &b};
    const std::vector<const FrameStatsCache*> profiles{&migration_cache()};
    return replay_scenario(config,
                           *make_scenario(ScenarioKind::kFlashCrowd, scenario),
                           profiles, channels);
  };

  const ReplayResult off = run(false);
  const ReplayResult on = run(true);
  EXPECT_EQ(on.cluster.metrics.migrations_requested, 0U);
  EXPECT_EQ(on.cluster.metrics.fleet.capacity_used,
            off.cluster.metrics.fleet.capacity_used);
  EXPECT_EQ(on.cluster.metrics.fleet.mean_quality,
            off.cluster.metrics.fleet.mean_quality);
  ASSERT_EQ(on.cluster.sessions.size(), off.cluster.sessions.size());
  for (std::size_t i = 0; i < on.cluster.sessions.size(); ++i) {
    EXPECT_EQ(on.cluster.sessions[i].link, off.cluster.sessions[i].link) << i;
    EXPECT_EQ(on.cluster.sessions[i].session.departure_slot,
              off.cluster.sessions[i].session.departure_slot)
        << i;
  }
  ASSERT_EQ(on.report.snapshots.size(), off.report.snapshots.size());
  for (std::size_t i = 0; i < on.report.snapshots.size(); ++i) {
    EXPECT_EQ(on.report.snapshots[i].capacity_used_total,
              off.report.snapshots[i].capacity_used_total)
        << i;
  }
}

// ------------------------------------- churn x flapping degradation ----

TEST(MigrationChurnTest, BooksReconcileUnderChurnAndFlappingDegradation) {
  // Flash-crowd churn with a mobility walk flapping graded degradation
  // across both links and the handover policy live: the full stack —
  // placement, retries, migrations, displaced fallbacks — must keep every
  // book exact, twice over (the run is deterministic).
  ReplayConfig config;
  config.cluster.serving = base_serving();
  config.cluster.placement = PlacementPolicy::kLeastLoaded;
  config.cluster.handover.enabled = true;
  config.cluster.handover.delay_weight = 0.1;
  config.driver.snapshot_period = 25;
  config.driver.retry.enabled = true;

  ScenarioConfig scenario;
  scenario.horizon = 800;
  scenario.mean_duration = 150.0;
  scenario.max_duration = 400;
  scenario.base_rate = 0.5 * 4.0 / scenario.mean_duration;
  scenario.profile_count = 1;
  scenario.seed = 42;
  scenario.spike_duration = 80;
  scenario.spike_multiplier = 8.0;

  config.faults.handover_walk(/*seed=*/0xF00D, /*link_count=*/2,
                              /*walkers=*/2, /*at=*/100, /*horizon=*/600,
                              /*dwell_slots=*/60, /*floor_scale=*/0.2,
                              /*delay=*/3.0);

  auto run = [&] {
    const double load = cheapest_load(config.cluster.serving.candidates);
    ConstantChannel a(2.4 * load), b(2.4 * load);
    std::vector<ChannelModel*> channels{&a, &b};
    const std::vector<const FrameStatsCache*> profiles{&migration_cache()};
    return replay_scenario(config,
                           *make_scenario(ScenarioKind::kFlashCrowd, scenario),
                           profiles, channels);
  };

  const ReplayResult result = run();
  const ClusterMetrics& m = result.cluster.metrics;
  EXPECT_GT(m.link_degrade_events, 0U);
  EXPECT_GT(m.migrations_completed, 0U);
  EXPECT_EQ(m.migrations_requested,
            m.migrations_completed + m.migrations_aborted);
  EXPECT_EQ(m.failover_displaced,
            m.failover_replaced + m.fault_evicted + m.fault_closed);
  std::size_t migration_sum = 0;
  for (const ClusterSessionOutcome& s : result.cluster.sessions) {
    migration_sum += s.migrations;
  }
  EXPECT_EQ(migration_sum, m.migrations_completed);
  // The report mirrors the cluster's books.
  EXPECT_EQ(result.report.migrations_requested, m.migrations_requested);
  EXPECT_EQ(result.report.migrations_completed, m.migrations_completed);
  EXPECT_EQ(result.report.migrations_aborted, m.migrations_aborted);

  // Same seed, same walk, same books — bit for bit.
  const ReplayResult again = run();
  EXPECT_EQ(again.cluster.metrics.migrations_requested,
            m.migrations_requested);
  EXPECT_EQ(again.cluster.metrics.migrations_completed,
            m.migrations_completed);
  EXPECT_EQ(again.cluster.metrics.fleet.capacity_used,
            m.fleet.capacity_used);
  ASSERT_EQ(again.cluster.sessions.size(), result.cluster.sessions.size());
  for (std::size_t i = 0; i < again.cluster.sessions.size(); ++i) {
    EXPECT_EQ(again.cluster.sessions[i].migrations,
              result.cluster.sessions[i].migrations)
        << i;
    EXPECT_EQ(again.cluster.sessions[i].link, result.cluster.sessions[i].link)
        << i;
  }
}

}  // namespace
}  // namespace arvis
