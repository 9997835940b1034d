// Streaming session accounting: the default TraceMode::kNone builds every
// session summary from the drain-phase tally (running sums plus a ring of
// the stability tail) instead of a stored per-slot trace. These tests pin
// that path bit for bit against TraceMode::kAll, whose summaries come from
// the full trace, across every regime that shapes a session's record:
// dense fleets, churn with external closes, sessions too short for a
// verdict, live migration, failover eviction, managers stepped past their
// planned horizon (the ring must grow), sessions ending at every phase
// of the drain's staged tail block, and sessions ending before or right
// after the first block flush allocates their ring. The SLO sampler's
// quality floor, which reads the tally's last quality, is pinned the same
// way.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "queueing/stability.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/session_manager.hpp"
#include "serving/session_store.hpp"

namespace arvis {
namespace {

const FrameStatsCache& tally_cache() {
  static const FrameStatsCache cache(*open_test_subject(23), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(tally_cache(), candidates);
}

ServingConfig base_config(std::size_t steps, TraceMode mode) {
  ServingConfig config;
  config.steps = steps;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(tally_cache(), config.candidates,
                                   4.0 * tally_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  config.trace_mode = mode;
  return config;
}

SessionSpec spec_at(std::size_t arrival, std::size_t departure,
                    std::uint64_t seed, double weight = 1.0) {
  SessionSpec spec;
  spec.cache = &tally_cache();
  spec.arrival_slot = arrival;
  spec.departure_slot = departure;
  spec.seed = seed;
  spec.weight = weight;
  return spec;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_summary_bits(const TraceSummary& a, const TraceSummary& b,
                         std::size_t id) {
  EXPECT_EQ(bits(a.time_average_quality), bits(b.time_average_quality)) << id;
  EXPECT_EQ(bits(a.time_average_backlog), bits(b.time_average_backlog)) << id;
  EXPECT_EQ(bits(a.final_backlog), bits(b.final_backlog)) << id;
  EXPECT_EQ(bits(a.peak_backlog), bits(b.peak_backlog)) << id;
  EXPECT_EQ(bits(a.mean_depth), bits(b.mean_depth)) << id;
  EXPECT_EQ(bits(a.mean_arrivals), bits(b.mean_arrivals)) << id;
  EXPECT_EQ(bits(a.mean_service), bits(b.mean_service)) << id;
  EXPECT_EQ(a.partial, b.partial) << id;
  EXPECT_EQ(a.stability.verdict, b.stability.verdict) << id;
  EXPECT_EQ(bits(a.stability.tail_slope), bits(b.stability.tail_slope)) << id;
  EXPECT_EQ(bits(a.stability.tail_mean), bits(b.stability.tail_mean)) << id;
  EXPECT_EQ(bits(a.stability.peak), bits(b.stability.peak)) << id;
  EXPECT_EQ(bits(a.stability.time_average), bits(b.stability.time_average))
      << id;
  EXPECT_TRUE(bit_identical(a, b)) << id;
}

/// `streamed` ran under kNone, `traced` under kAll on identical inputs.
void expect_outcomes_match(const SessionOutcome& streamed,
                           const SessionOutcome& traced) {
  const std::size_t id = traced.id;
  EXPECT_EQ(streamed.id, traced.id);
  EXPECT_EQ(streamed.admitted, traced.admitted) << id;
  EXPECT_EQ(streamed.arrival_slot, traced.arrival_slot) << id;
  EXPECT_EQ(streamed.departure_slot, traced.departure_slot) << id;
  EXPECT_TRUE(streamed.trace.empty()) << id;
  EXPECT_EQ(traced.slots, traced.trace.size()) << id;
  EXPECT_EQ(streamed.slots, traced.slots) << id;
  ASSERT_EQ(streamed.has_summary, traced.has_summary) << id;
  if (traced.has_summary) {
    expect_summary_bits(streamed.summary, traced.summary, id);
  }
}

void expect_fleets_match(const FleetMetrics& a, const FleetMetrics& b) {
  EXPECT_EQ(a.sessions_submitted, b.sessions_submitted);
  EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected);
  EXPECT_EQ(bits(a.quality_fairness), bits(b.quality_fairness));
  EXPECT_EQ(bits(a.mean_quality), bits(b.mean_quality));
  EXPECT_EQ(bits(a.total_time_average_backlog),
            bits(b.total_time_average_backlog));
  EXPECT_EQ(bits(a.peak_backlog), bits(b.peak_backlog));
  EXPECT_EQ(a.divergent_sessions, b.divergent_sessions);
  EXPECT_EQ(a.partial_summary_sessions, b.partial_summary_sessions);
  EXPECT_EQ(bits(a.capacity_offered), bits(b.capacity_offered));
  EXPECT_EQ(bits(a.capacity_used), bits(b.capacity_used));
  EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
}

/// Runs `run` in both modes and pins every summary and fleet field. Returns
/// the streamed result for regime-specific checks.
ServingResult expect_modes_match(
    const std::function<ServingResult(TraceMode)>& run) {
  ServingResult streamed = run(TraceMode::kNone);
  const ServingResult traced = run(TraceMode::kAll);
  EXPECT_EQ(streamed.session_table.to_string(),
            traced.session_table.to_string());
  expect_fleets_match(streamed.fleet, traced.fleet);
  EXPECT_EQ(streamed.sessions.size(), traced.sessions.size());
  for (std::size_t i = 0;
       i < std::min(streamed.sessions.size(), traced.sessions.size()); ++i) {
    expect_outcomes_match(streamed.sessions[i], traced.sessions[i]);
  }
  return streamed;
}

ClusterResult expect_cluster_modes_match(
    const std::function<ClusterResult(TraceMode)>& run) {
  ClusterResult streamed = run(TraceMode::kNone);
  const ClusterResult traced = run(TraceMode::kAll);
  EXPECT_EQ(streamed.session_table.to_string(),
            traced.session_table.to_string());
  expect_fleets_match(streamed.metrics.fleet, traced.metrics.fleet);
  EXPECT_EQ(streamed.metrics.per_link.size(), traced.metrics.per_link.size());
  for (std::size_t k = 0; k < std::min(streamed.metrics.per_link.size(),
                                       traced.metrics.per_link.size());
       ++k) {
    expect_fleets_match(streamed.metrics.per_link[k],
                        traced.metrics.per_link[k]);
  }
  EXPECT_EQ(streamed.sessions.size(), traced.sessions.size());
  for (std::size_t i = 0;
       i < std::min(streamed.sessions.size(), traced.sessions.size()); ++i) {
    EXPECT_EQ(streamed.sessions[i].link, traced.sessions[i].link) << i;
    EXPECT_EQ(streamed.sessions[i].fault_evicted,
              traced.sessions[i].fault_evicted)
        << i;
    expect_outcomes_match(streamed.sessions[i].session,
                          traced.sessions[i].session);
  }
  return streamed;
}

// ------------------------------------------------------------- regimes ----

TEST(StreamingAccountingTest, DenseFleetsMatchFullTraceInEveryVerdict) {
  // Three dense fleets on one link each: roomy (queues drain to ~zero),
  // balanced (bounded), and starved below the cheapest depth (divergent),
  // so all three stability verdicts go through the ring-tail path.
  std::size_t divergent = 0;
  std::size_t convergent = 0;
  std::size_t bounded = 0;
  for (const double headroom : {8.0, 1.05, 0.6}) {
    const ServingResult streamed = expect_modes_match([&](TraceMode mode) {
      ServingConfig config = base_config(180, mode);
      config.admission.enabled = false;  // the starved fleet must get in
      std::vector<SessionSpec> specs;
      for (std::size_t i = 0; i < 10; ++i) {
        specs.push_back(spec_at(0, kNeverDeparts, i, i % 3 == 0 ? 2.0 : 1.0));
      }
      const double capacity =
          headroom * 10.0 * cheapest_load(config.candidates);
      GilbertElliottChannel channel(capacity, 0.3, 0.1, 0.5, Rng(5));
      return run_serving_scenario(config, specs, channel);
    });
    for (const SessionOutcome& s : streamed.sessions) {
      ASSERT_TRUE(s.has_summary);
      ASSERT_FALSE(s.summary.partial);
      switch (s.summary.stability.verdict) {
        case StabilityVerdict::kDivergent: ++divergent; break;
        case StabilityVerdict::kConvergentToZero: ++convergent; break;
        case StabilityVerdict::kBoundedPositive: ++bounded; break;
      }
    }
  }
  EXPECT_GT(divergent, 0U);
  EXPECT_GT(convergent + bounded, 0U);
}

TEST(StreamingAccountingTest, ChurnWithEarlyClosesMatchesFullTrace) {
  // Staggered arrivals and departures, plus external closes that cut
  // sessions at every age — before their first slot, inside the first 8
  // slots (partial summaries), and deep into their planned window, where
  // the verdict's tail is a short prefix of what the ring was sized for.
  expect_modes_match([](TraceMode mode) {
    const ServingConfig config = base_config(160, mode);
    SessionManager manager(config,
                           6.0 * cheapest_load(config.candidates));
    for (std::size_t i = 0; i < 36; ++i) {
      const std::size_t arrival = (i % 9) * 5;
      const std::size_t departure =
          i % 4 == 0 ? kNeverDeparts : arrival + 20 + (i * 7) % 90;
      manager.submit(spec_at(arrival, departure, i));
    }
    ConstantChannel channel(6.0 * cheapest_load(config.candidates));
    for (std::size_t t = 0; t < config.steps; ++t) {
      if (t == 3) manager.request_close(0);    // 3 slots in: partial
      if (t == 12) manager.request_close(35);  // still pending: cancelled
      if (t == 25) manager.request_close(4);   // 25 slots of a long plan
      if (t == 47) manager.request_close(9);
      if (t == 90) manager.request_close(8);
      manager.step(channel.next_capacity_bytes());
    }
    return manager.finish();
  });
}

TEST(StreamingAccountingTest, SessionsShorterThanEightSlotsStayPartial) {
  const ServingResult streamed = expect_modes_match([](TraceMode mode) {
    ServingConfig config = base_config(40, mode);
    config.admission.enabled = false;
    std::vector<SessionSpec> specs;
    for (std::size_t life = 1; life <= 10; ++life) {
      specs.push_back(spec_at(life, life + life, life));
    }
    ConstantChannel channel(4.0 * cheapest_load(config.candidates));
    return run_serving_scenario(config, specs, channel);
  });
  for (const SessionOutcome& s : streamed.sessions) {
    ASSERT_TRUE(s.has_summary);
    EXPECT_EQ(s.summary.partial, s.slots < 8) << s.id;
  }
  EXPECT_EQ(streamed.fleet.partial_summary_sessions, 7U);
}

TEST(StreamingAccountingTest, MigrationTwinSegmentsMatchFullTrace) {
  // The migration twin: a session moved between equivalent links mid-run
  // reports its target-link segment, whose tally starts at the migration
  // with the carried backlog. Both segments' summaries must agree with the
  // full-trace path.
  expect_cluster_modes_match([](TraceMode mode) {
    ClusterConfig config;
    config.serving = base_config(120, mode);
    const double load = cheapest_load(config.serving.candidates);
    const std::vector<double> caps{4.0 * load, 4.0 * load};
    EdgeCluster cluster(config, caps);
    const std::size_t moved = cluster.submit(spec_at(0, 90, 7));
    const std::size_t late = cluster.submit(spec_at(0, kNeverDeparts, 8));
    cluster.submit(spec_at(5, 60, 9));
    for (std::size_t t = 0; t < 120; ++t) {
      if (t == 20) {
        EXPECT_TRUE(cluster.migrate_session(moved, 1));
      }
      if (t == 83) {
        EXPECT_TRUE(cluster.migrate_session(late, 0));
      }
      cluster.step(caps);
    }
    ClusterResult result = cluster.finish();
    EXPECT_EQ(result.metrics.migrations_completed, 2U);
    return result;
  });
}

TEST(StreamingAccountingTest, FailoverEvictionMatchesFullTrace) {
  // Links going down evict their sessions mid-stream; survivors re-place
  // onto other links (a fresh segment) or are evicted for good. Every
  // segment closes through the retirement path that seals the tally.
  const ClusterResult streamed =
      expect_cluster_modes_match([](TraceMode mode) {
        ClusterConfig config;
        config.serving = base_config(150, mode);
        config.placement = PlacementPolicy::kLeastLoaded;
        const double load = cheapest_load(config.serving.candidates);
        const std::vector<double> means(3, 5.2 * load);
        EdgeCluster cluster(config, means);
        for (std::size_t i = 0; i < 24; ++i) {
          const std::size_t arrival = (i % 6) * 4;
          cluster.submit(spec_at(
              arrival, i % 3 == 0 ? kNeverDeparts : arrival + 70 + i, i));
        }
        for (std::size_t t = 0; t < 150; ++t) {
          if (t == 30) cluster.set_link_state(1, true);
          if (t == 33) cluster.set_link_state(2, true);
          if (t == 70) cluster.set_link_state(1, false);
          if (t == 95) cluster.set_link_state(0, true);
          cluster.step(means);
        }
        return cluster.finish();
      });
  EXPECT_GT(streamed.metrics.failover_displaced, 0U);
  EXPECT_GT(streamed.metrics.fault_evicted, 0U);
}

TEST(StreamingAccountingTest, ManagerSteppedPastItsHorizonGrowsTheRing) {
  // config.steps plans a 24-slot window, but the manager is driven for 300:
  // sessions admitted at slot 0 outlive their ring many times over (4 ring
  // doublings), and sessions submitted past the horizon start from the
  // minimum ring. validate() checks the ring invariants along the way.
  expect_modes_match([](TraceMode mode) {
    const ServingConfig config = base_config(24, mode);
    SessionManager manager(config, 5.0 * cheapest_load(config.candidates));
    for (std::size_t i = 0; i < 4; ++i) {
      manager.submit(spec_at(0, kNeverDeparts, i));
    }
    manager.submit(spec_at(0, 200, 4));
    GilbertElliottChannel channel(5.0 * cheapest_load(config.candidates),
                                  0.3, 0.1, 0.4, Rng(3));
    for (std::size_t t = 0; t < 300; ++t) {
      if (t == 40) manager.submit(spec_at(40, kNeverDeparts, 5));
      if (t == 150) manager.submit(spec_at(150, 170, 6));
      manager.step(channel.next_capacity_bytes());
      if (t % 25 == 0) {
        const Status ok = manager.validate_store();
        EXPECT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
      }
    }
    return manager.finish();
  });
}

TEST(StreamingAccountingTest, StoreRingGrowsFromMinimumPlanAndStaysValid) {
  // Store level: a zero-slot plan starts every ring at 4 samples; draining
  // 200 slots must grow it, keep validate() green at every slot, and still
  // summarize exactly like the stored trace.
  const ServingConfig config = base_config(8, TraceMode::kAll);
  SessionStore store(config.candidates, config.v, TraceMode::kAll);
  for (std::size_t id = 0; id < 3; ++id) {
    ServingSession& s = store.create(id, spec_at(0, kNeverDeparts, id));
    s.phase = SessionPhase::kActive;
    store.activate(s, 0);
  }
  for (std::size_t t = 0; t < 200; ++t) {
    store.decide_all();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      store.drain(i, t, 300.0 + 40.0 * static_cast<double>(i), 0.0);
    }
    const Status ok = store.validate();
    ASSERT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
  }
  for (std::size_t i = 0; i < store.active_count(); ++i) {
    EXPECT_GE(store.tallies()[i].ring_cap,
              stability_tail_length(store.tallies()[i].totals.steps));
    EXPECT_GT(store.tallies()[i].ring_cap, 4U);
  }
  store.retire_active(
      [](const ServingSession&) { return true; },
      [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
  std::vector<double> scratch;
  for (std::size_t pos = 0; pos < store.session_count(); ++pos) {
    const ServingSession& s = store.session(pos);
    ASSERT_EQ(s.tally.totals.steps, 200U);
    ASSERT_EQ(s.tally.ring, s.tail_ring.data());
    expect_summary_bits(summarize_tally(s.tally, scratch),
                        s.trace.summarize_partial(), s.id);
  }
}

TEST(StreamingAccountingTest, StagedTailIsExactAtEveryBlockPhase) {
  // Drain stages each slot's tail sample slot-major and flushes a session's
  // samples into its ring a block of kStageRows steps at a time; retiring a
  // session flushes its partial block. Eight sessions arrive at slots 0..7
  // and all end at slot `end`, so together they end at every block phase
  // (steps % 8 = 0..7), through each path that seals a tally. A one-slot
  // horizon plans every ring at its minimum of 4 samples, which doubles in
  // the flush that brings the flushed steps to 15, then 27, then 51: ends
  // at 15 and 27 grow the ring inside a partial block, in the seal's flush.
  enum class End { kDeparture, kClose, kEviction, kExtraction, kFinish };
  for (const End path : {End::kDeparture, End::kClose, End::kEviction,
                         End::kExtraction, End::kFinish}) {
    for (const std::size_t horizon : {1UL, 64UL}) {
      for (const std::size_t end : {15UL, 27UL, 40UL}) {
        SCOPED_TRACE(::testing::Message()
                     << "path " << static_cast<int>(path) << ", horizon "
                     << horizon << ", end " << end);
        const ServingResult streamed = expect_modes_match([&](TraceMode mode) {
          ServingConfig config = base_config(horizon, mode);
          config.admission.enabled = false;
          const double capacity = 5.0 * cheapest_load(config.candidates);
          SessionManager manager(config, capacity);
          for (std::size_t j = 0; j < kStageRows; ++j) {
            manager.submit(spec_at(
                j, path == End::kDeparture ? end : kNeverDeparts, j));
          }
          GilbertElliottChannel channel(capacity, 0.3, 0.1, 0.4, Rng(11));
          for (std::size_t t = 0; t < end; ++t) {
            manager.step(channel.next_capacity_bytes());
            const Status ok = manager.validate_store();
            EXPECT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
          }
          std::vector<EvictedSession> evicted;
          SessionManager::MigratedSession migrated;
          switch (path) {
            case End::kClose:
              for (std::size_t j = 0; j < kStageRows; ++j) {
                EXPECT_TRUE(manager.request_close(j));
              }
              [[fallthrough]];
            case End::kDeparture:
              // Both retire at the next slot's departure sweep.
              manager.step(capacity);
              break;
            case End::kEviction:
              EXPECT_EQ(manager.evict_all_active(evicted), kStageRows);
              break;
            case End::kExtraction:
              for (std::size_t j = 0; j < kStageRows; ++j) {
                EXPECT_TRUE(manager.extract_session(j, migrated));
              }
              break;
            case End::kFinish:
              break;
          }
          const Status ok = manager.validate_store();
          EXPECT_TRUE(ok.ok()) << ok.to_string();
          return manager.finish();
        });
        ASSERT_EQ(streamed.sessions.size(), kStageRows);
        for (std::size_t j = 0; j < kStageRows; ++j) {
          const SessionOutcome& s = streamed.sessions[j];
          EXPECT_EQ(s.slots, end - j) << j;
          EXPECT_TRUE(s.has_summary) << j;
          EXPECT_FALSE(s.summary.partial) << j;
        }
      }
    }
  }
}

TEST(StreamingAccountingTest, LazyRingIsExactForSessionsEndingEarly) {
  // A session's tail ring is allocated by its first block flush, not at
  // activation. Ten sessions arrive at slots 0..9; the run steps slots
  // 0..8, then opens slot 9 (its departure sweep retires planned
  // departures, and session 9 activates), and every session ends there: the
  // ten cover 9..0 drained steps, on both sides of the first flush at 8.
  // Departure and close retire sessions 0..8 in the sweep (a window cannot
  // be empty, so session 9 ends at finish, and a close cancels it while
  // still pending); eviction, extraction and finish end all ten after it.
  constexpr std::size_t kEnd = 9;
  constexpr std::size_t kSessions = kEnd + 1;
  enum class End { kDeparture, kClose, kEviction, kExtraction, kFinish };
  for (const End path : {End::kDeparture, End::kClose, End::kEviction,
                         End::kExtraction, End::kFinish}) {
    SCOPED_TRACE(::testing::Message() << "path " << static_cast<int>(path));
    const ServingResult streamed = expect_modes_match([&](TraceMode mode) {
      ServingConfig config = base_config(64, mode);
      config.admission.enabled = false;
      const double capacity = 5.0 * cheapest_load(config.candidates);
      SessionManager manager(config, capacity);
      for (std::size_t j = 0; j < kSessions; ++j) {
        const bool departs = path == End::kDeparture && j < kEnd;
        manager.submit(spec_at(j, departs ? kEnd : kNeverDeparts, j));
      }
      GilbertElliottChannel channel(capacity, 0.3, 0.1, 0.4, Rng(11));
      for (std::size_t t = 0; t < kEnd; ++t) {
        manager.step(channel.next_capacity_bytes());
        const Status ok = manager.validate_store();
        EXPECT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
      }
      if (path == End::kClose) {
        for (std::size_t j = 0; j < kSessions; ++j) {
          EXPECT_TRUE(manager.request_close(j));
        }
      }
      manager.begin_slot();
      std::vector<EvictedSession> evicted;
      SessionManager::MigratedSession migrated;
      switch (path) {
        case End::kEviction:
          EXPECT_EQ(manager.evict_all_active(evicted), kSessions);
          break;
        case End::kExtraction:
          for (std::size_t j = 0; j < kSessions; ++j) {
            EXPECT_TRUE(manager.extract_session(j, migrated));
          }
          break;
        default:
          break;
      }
      const Status ok = manager.validate_store();
      EXPECT_TRUE(ok.ok()) << ok.to_string();
      return manager.finish();
    });
    ASSERT_EQ(streamed.sessions.size(), kSessions);
    for (std::size_t j = 0; j < kSessions; ++j) {
      const SessionOutcome& s = streamed.sessions[j];
      if (path == End::kClose && j == kEnd) {
        EXPECT_FALSE(s.admitted) << "cancelled before arrival";
        continue;
      }
      EXPECT_EQ(s.slots, kEnd - j) << j;
      EXPECT_EQ(s.has_summary, s.slots > 0) << j;
      if (s.has_summary) {
        EXPECT_EQ(s.summary.partial, s.slots < 8) << j;
      }
    }
  }
}

TEST(StreamingAccountingTest, RingIsAllocatedByTheFirstFlushNotActivation) {
  // The store allocates no ring when it activates a session; the drain that
  // completes its first block of kStageRows steps does, at the planned
  // capacity. validate() holds at every step on both sides of that flush.
  const ServingConfig config = base_config(8, TraceMode::kNone);
  SessionStore store(config.candidates, config.v, TraceMode::kNone);
  ServingSession& s = store.create(0, spec_at(0, kNeverDeparts, 0));
  s.phase = SessionPhase::kActive;
  store.activate(s, 120);
  ASSERT_EQ(store.active_count(), 1U);
  EXPECT_EQ(store.tallies()[0].ring, nullptr) << "ring allocated at activation";
  EXPECT_EQ(store.tallies()[0].ring_cap, stability_tail_length(120));
  for (std::size_t t = 0; t < 2 * kStageRows; ++t) {
    store.decide_all();
    store.drain(0, t, 300.0, 0.0);
    const SessionTally& tally = store.tallies()[0];
    if (t + 1 < kStageRows) {
      EXPECT_EQ(tally.ring, nullptr) << "ring allocated before a flush, t "
                                     << t;
    } else {
      EXPECT_NE(tally.ring, nullptr) << "ring missing after a flush, t " << t;
      EXPECT_EQ(tally.ring_cap, stability_tail_length(120));
    }
    const Status ok = store.validate();
    ASSERT_TRUE(ok.ok()) << "t " << t << ": " << ok.to_string();
  }
}

// ------------------------------------------------------------ SLO floor ----

void expect_tier_samples_match(const SloTierSample& a, const SloTierSample& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.active, b.active);
  EXPECT_EQ(bits(a.p95_delay_slots), bits(b.p95_delay_slots));
  EXPECT_EQ(bits(a.min_quality), bits(b.min_quality));
  EXPECT_EQ(a.has_quality, b.has_quality);
}

TEST(StreamingAccountingTest, SloObservationIsIdenticalUnderBrownout) {
  // The SLO quality floor reads the tally's last quality; under a brownout
  // (tier ceilings cap delivered quality) it must be identical in both modes
  // and equal to the floor the full traces imply, snapshot by snapshot —
  // including snapshots right after arrivals and departures compacted the
  // active list.
  struct Observed {
    std::vector<SloObservation> samples;
    ServingResult result;
  };
  const auto observe = [](TraceMode mode) {
    ServingConfig config = base_config(90, mode);
    config.degradation.enabled = true;
    config.degradation.enter_utilization = 0.5;
    config.degradation.exit_utilization = 0.2;
    const double load = cheapest_load(config.candidates);
    SessionManager manager(config, 6.0 * load);
    for (std::size_t i = 0; i < 12; ++i) {
      SessionSpec spec =
          spec_at((i % 4) * 6, i % 3 == 0 ? 40 + i : kNeverDeparts, i);
      spec.qos = static_cast<std::uint8_t>(i % kSloTiers);
      manager.submit(spec);
    }
    Observed out;
    bool saw_brownout = false;
    for (std::size_t t = 0; t < config.steps; ++t) {
      manager.step(6.0 * load);
      saw_brownout = saw_brownout || manager.brownout_active();
      if (t % 6 == 0) {
        SloObservation obs;
        obs.slot = t;
        manager.accumulate_slo(obs);
        out.samples.push_back(obs);
      }
    }
    EXPECT_TRUE(saw_brownout);
    out.result = manager.finish();
    return out;
  };
  const Observed streamed = observe(TraceMode::kNone);
  const Observed traced = observe(TraceMode::kAll);
  ASSERT_EQ(streamed.samples.size(), traced.samples.size());
  bool any_quality = false;
  for (std::size_t k = 0; k < streamed.samples.size(); ++k) {
    const SloObservation& a = streamed.samples[k];
    SCOPED_TRACE(a.slot);
    expect_tier_samples_match(a.total, traced.samples[k].total);
    // Trace oracle: sessions that streamed slot `a.slot` delivered the
    // quality of that slot's record; the floor is the per-tier minimum.
    SloTierSample want[kSloTiers];
    for (const SessionOutcome& s : traced.result.sessions) {
      for (const StepRecord& r : s.trace.steps()) {
        if (r.t != a.slot) continue;
        SloTierSample& w = want[s.id % kSloTiers];
        if (!w.has_quality || r.quality < w.min_quality) {
          w.min_quality = r.quality;
          w.has_quality = true;
        }
      }
    }
    for (std::size_t t = 0; t < kSloTiers; ++t) {
      expect_tier_samples_match(a.tier[t], traced.samples[k].tier[t]);
      EXPECT_EQ(a.tier[t].has_quality, want[t].has_quality) << t;
      EXPECT_EQ(bits(a.tier[t].min_quality), bits(want[t].min_quality)) << t;
    }
    any_quality = any_quality || a.total.has_quality;
  }
  EXPECT_TRUE(any_quality);
}

}  // namespace
}  // namespace arvis
