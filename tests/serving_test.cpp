// Tests for the multi-session edge serving runtime: scheduler policy
// invariants, admission boundaries, session churn bookkeeping, and the
// determinism contract of the parallel executor (parallel == serial,
// bit for bit; a lone manager is one shard and ignores `threads`).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <variant>

#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "queueing/stability.hpp"
#include "serving/admission.hpp"
#include "serving/executor.hpp"
#include "serving/metrics.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "sim/replication.hpp"

namespace arvis {
namespace {

const FrameStatsCache& shared_cache() {
  static const FrameStatsCache cache(*open_test_subject(71), 8, 8);
  return cache;
}

double cheapest_load(const std::vector<int>& candidates) {
  return AdmissionController::cheapest_depth_load(shared_cache(), candidates);
}

// ------------------------------------------------------------ Fairness ----

TEST(ServingMetricsTest, JainDegenerateCases) {
  // The new home of jain_fairness_index fixes the all-equal degenerate
  // cases: any constant fleet is perfectly fair, zero included.
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({7.5, 7.5}), 1.0);
  EXPECT_NEAR(jain_fairness_index({1, 0, 0, 0}), 0.25, 1e-12);
  // n-1 equal plus one dominant lands strictly between 1/n and 1.
  const double mixed = jain_fairness_index({10, 1, 1, 1});
  EXPECT_GT(mixed, 0.25);
  EXPECT_LT(mixed, 1.0);
}

// ---------------------------------------------------------- Schedulers ----

/// One session's demand in struct shape: the ref:: algorithms read it, and
/// DemandColumns packs a set of them into the kernels' spans.
struct Demand {
  double backlog = 0.0;
  double arrivals = 0.0;
  double weight = 1.0;
  /// Served-bytes EWMA; negative = no history. A set carries history for
  /// every session or for none (the kernels' input contract).
  double ewma_throughput = -1.0;

  [[nodiscard]] double total() const noexcept { return backlog + arrivals; }
};

/// SoA copy of a demand set. input() carries the default hints (generation
/// 0, uniform false), i.e. the unhinted path, and an EWMA span that is empty
/// unless the whole set has history.
struct DemandColumns {
  explicit DemandColumns(const std::vector<Demand>& demands) {
    std::size_t with_history = 0;
    for (const Demand& d : demands) {
      backlog.push_back(d.backlog);
      arrivals.push_back(d.arrivals);
      weight.push_back(d.weight);
      if (d.ewma_throughput >= 0.0) {
        ewma.push_back(d.ewma_throughput);
        ++with_history;
      }
    }
    if (with_history != demands.size()) {
      EXPECT_EQ(with_history, 0U) << "history for some sessions only";
      ewma.clear();
    }
  }

  [[nodiscard]] SchedulerInput input() const {
    return SchedulerInput{backlog, arrivals, weight, ewma};
  }

  std::vector<double> backlog, arrivals, weight, ewma;
};

/// Unhinted span call over a demand set in struct shape.
void allocate(EdgeScheduler& scheduler, double capacity,
              const std::vector<Demand>& demands,
              std::vector<double>& shares) {
  scheduler.allocate(capacity, DemandColumns(demands).input(), shares);
}

std::vector<Demand> random_demands(Rng& rng, std::size_t n) {
  std::vector<Demand> demands(n);
  for (Demand& d : demands) {
    d.backlog = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 5'000.0);
    d.arrivals = rng.uniform(0.0, 1'000.0);
    d.weight = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 4.0);
  }
  return demands;
}

TEST(SchedulerTest, AllPoliciesConserveCapacity) {
  Rng rng(7);
  std::vector<double> shares;
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kEqualShare, SchedulerPolicy::kWorkConserving,
        SchedulerPolicy::kProportionalFair, SchedulerPolicy::kWeightedPriority,
        SchedulerPolicy::kDeficitRoundRobin}) {
    auto scheduler = make_scheduler(policy);
    for (int trial = 0; trial < 200; ++trial) {
      const std::size_t n = 1 + static_cast<std::size_t>(rng.below(12));
      const auto demands = random_demands(rng, n);
      const double capacity = rng.uniform(0.0, 20'000.0);
      allocate(*scheduler, capacity, demands, shares);
      ASSERT_EQ(shares.size(), n) << scheduler->name();
      double total = 0.0;
      for (double s : shares) {
        EXPECT_GE(s, 0.0) << scheduler->name();
        total += s;
      }
      EXPECT_LE(total, capacity * (1.0 + 1e-9) + 1e-9) << scheduler->name();
    }
  }
}

TEST(SchedulerTest, WorkConservingNeverWastesWhileBacklogged) {
  Rng rng(11);
  WorkConservingScheduler scheduler;
  std::vector<double> shares;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(12));
    const auto demands = random_demands(rng, n);
    const double total_demand = std::accumulate(
        demands.begin(), demands.end(), 0.0,
        [](double acc, const Demand& d) { return acc + d.total(); });
    // Capacity strictly below total demand: some queue stays backlogged, so
    // a work-conserving allocation must hand out every byte.
    const double capacity = rng.uniform(0.0, 0.95) * total_demand;
    allocate(scheduler, capacity, demands, shares);
    const double allocated = std::accumulate(shares.begin(), shares.end(), 0.0);
    EXPECT_NEAR(allocated, capacity, 1e-6 * std::max(capacity, 1.0));
    // And nobody is granted beyond their demand while others starve.
    for (std::size_t i = 0; i < shares.size(); ++i) {
      EXPECT_LE(shares[i], demands[i].total() * (1.0 + 1e-9) + 1e-9);
    }
  }
}

TEST(SchedulerTest, WorkConservingMeetsAllDemandsUnderLightLoad) {
  WorkConservingScheduler scheduler;
  std::vector<double> shares;
  const std::vector<Demand> demands{
      {100.0, 50.0, 1.0}, {0.0, 0.0, 1.0}, {10.0, 5.0, 1.0}};
  allocate(scheduler, 1'000.0, demands, shares);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_GE(shares[i], demands[i].total());
  }
  // Full pipe still handed out (excess is wasted by the queues, not here).
  EXPECT_NEAR(shares[0] + shares[1] + shares[2], 1'000.0, 1e-9);
}

TEST(SchedulerTest, ProportionalFairSplitsByWeightedDemand) {
  ProportionalFairScheduler scheduler;
  std::vector<double> shares;
  // Overload with equal weights: pure proportional split by demand.
  allocate(scheduler, 200.0, {{100.0, 0.0, 1.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
  // Weight doubles a session's pull.
  allocate(scheduler, 120.0, {{100.0, 0.0, 2.0}, {100.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 80.0, 1e-9);
  EXPECT_NEAR(shares[1], 40.0, 1e-9);
  // A capped heavy-weight session's surplus flows to the rest instead of
  // being wasted.
  allocate(scheduler, 200.0, {{100.0, 0.0, 4.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 100.0, 1e-9);
  // Light load: everyone gets exactly their demand, never more.
  allocate(scheduler, 1'000.0, {{100.0, 0.0, 1.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 300.0, 1e-9);
  // A weight-0 session draws no proportional offer but is not starved:
  // once only zero-weight demand remains, the surplus water-fills it.
  allocate(scheduler, 100.0, {{50.0, 0.0, 0.0}, {10.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 10.0, 1e-9);
}

TEST(SchedulerTest, WeightedPriorityGroupsWeightsFromDifferentArithmetic) {
  WeightedPriorityScheduler scheduler;
  std::vector<double> shares;
  // 0.1 + 0.2 != 0.3 in binary floating point; exact == grouping split these
  // into a phantom priority tier and starved the "lower" one. The epsilon
  // tier grouping treats them as one tier: equal-split water-fill.
  const double w_sum = 0.1 + 0.2;
  const double w_lit = 0.3;
  ASSERT_NE(w_sum, w_lit);  // the premise: different arithmetic paths differ
  allocate(scheduler, 100.0, {{150.0, 0.0, w_sum}, {150.0, 0.0, w_lit}},
                     shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // Order-independent: the literal first gets the same split.
  allocate(scheduler, 100.0, {{150.0, 0.0, w_lit}, {150.0, 0.0, w_sum}},
                     shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // Humanly distinct weights still tier strictly.
  allocate(scheduler, 100.0, {{150.0, 0.0, 0.3}, {150.0, 0.0, 0.31}}, shares);
  EXPECT_NEAR(shares[0], 0.0, 1e-9);
  EXPECT_NEAR(shares[1], 100.0, 1e-9);
}

TEST(SchedulerTest, WeightedPriorityServesTiersInOrder) {
  WeightedPriorityScheduler scheduler;
  std::vector<double> shares;
  // The weight-2 tier drains fully before the weight-1 tier sees a byte.
  allocate(scheduler, 200.0, {{150.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 150.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // Under overload the low tier starves entirely.
  allocate(scheduler, 100.0, {{150.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 0.0, 1e-9);
  // Equal weights degenerate to equal-split water-filling.
  allocate(scheduler, 100.0, {{150.0, 0.0, 1.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
}

TEST(SchedulerTest, ProportionalFairEwmaFavorsHistoricallyStarved) {
  ProportionalFairScheduler scheduler;
  std::vector<double> shares;
  // Equal weight, equal demand; session 0 has been drinking 1000 bytes/slot
  // while session 1 got nothing. True PF hands the starved session the lion's
  // share: pulls are 1/1001 vs 1/1.
  allocate(scheduler, 100.0,
                     {{200.0, 0.0, 1.0, 1'000.0}, {200.0, 0.0, 1.0, 0.0}},
                     shares);
  EXPECT_LT(shares[0], 1.0);
  EXPECT_GT(shares[1], 99.0);
  EXPECT_NEAR(shares[0] + shares[1], 100.0, 1e-9);
  // Equal histories collapse to the legacy demand-proportional split.
  allocate(scheduler, 200.0,
                     {{100.0, 0.0, 1.0, 500.0}, {300.0, 0.0, 1.0, 500.0}},
                     shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
  // No history (< 0, the default) is the legacy behaviour bit for bit.
  allocate(scheduler, 200.0, {{100.0, 0.0, 1.0}, {300.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
}

TEST(SchedulerTest, DeficitRoundRobinIsWeightedMaxMin) {
  DeficitRoundRobinScheduler scheduler;
  std::vector<double> shares;
  // Equal weights under overload: equal split.
  allocate(scheduler, 100.0, {{150.0, 0.0, 1.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  // 2:1 weights under overload: 2:1 split.
  allocate(scheduler, 90.0, {{150.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 60.0, 1e-9);
  EXPECT_NEAR(shares[1], 30.0, 1e-9);
  // Grants cap at demand; the surplus reaches the still-hungry session
  // (max-min, not strict priority).
  allocate(scheduler, 300.0, {{100.0, 0.0, 2.0}, {150.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 100.0, 1e-9);
  EXPECT_NEAR(shares[1], 150.0, 1e-9);
  // Zero-weight sessions are served from leftovers only.
  allocate(scheduler, 100.0, {{80.0, 0.0, 0.0}, {50.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[1], 50.0, 1e-9);
  EXPECT_NEAR(shares[0], 50.0, 1e-9);  // leftover 50 of the 80 wanted
  // Under overload nothing leaks to weight zero.
  allocate(scheduler, 40.0, {{80.0, 0.0, 0.0}, {50.0, 0.0, 1.0}}, shares);
  EXPECT_NEAR(shares[0], 0.0, 1e-9);
  EXPECT_NEAR(shares[1], 40.0, 1e-9);
}

TEST(SchedulerTest, DeficitRoundRobinHandlesVanishinglySmallWeights) {
  // The per-round quantum is recomputed from the surviving ring's weight, so
  // a near-zero-weight straggler (trace files accept any weight >= 0) drains
  // in O(1) rounds instead of ~capacity/(capacity * w/Σw) of them — this
  // call used to take hours at weight 1e-12.
  DeficitRoundRobinScheduler scheduler;
  std::vector<double> shares;
  allocate(scheduler, 1'000.0, {{1'000.0, 0.0, 1e-12}, {10.0, 0.0, 1.0}},
                     shares);
  EXPECT_NEAR(shares[1], 10.0, 1e-9);
  EXPECT_NEAR(shares[0], 990.0, 1e-6);
}

TEST(SchedulerTest, DeficitRoundRobinRotatesTheResidue) {
  // Capacity runs dry mid-round, so whoever is visited first in the final
  // round keeps the residue; the cursor rotates that advantage across slots.
  DeficitRoundRobinScheduler scheduler;
  std::vector<double> shares;
  const std::vector<Demand> demands{
      {5.0, 0.0, 1.0}, {100.0, 0.0, 1.0}, {100.0, 0.0, 1.0}};
  allocate(scheduler, 30.0, demands, shares);  // rotation starts at index 0
  const std::vector<double> first = shares;
  allocate(scheduler, 30.0, demands, shares);
  allocate(scheduler, 30.0, demands, shares);  // rotation starts at index 2
  const std::vector<double> third = shares;
  // Session 0's tiny demand is always met; the big pair split the rest, and
  // the 5-byte residue lands on whichever of them the rotation favours.
  EXPECT_NEAR(first[0], 5.0, 1e-9);
  EXPECT_NEAR(third[0], 5.0, 1e-9);
  EXPECT_NEAR(first[1], 15.0, 1e-9);
  EXPECT_NEAR(first[2], 10.0, 1e-9);
  EXPECT_NEAR(third[1], 10.0, 1e-9);
  EXPECT_NEAR(third[2], 15.0, 1e-9);
}

// ------------------------------------- scheduler fast-path equivalence ----
// Reference implementations of the pre-incremental generic algorithms (as
// they stood before the fused first rounds, cached tier permutation, and
// lazy DRR residue landed). The production kernels' fast paths must
// reproduce them share for share — exact doubles, not NEAR.

namespace ref {

double water_fill(double capacity, const std::vector<Demand>& d,
                  std::vector<std::size_t>& unsatisfied,
                  std::vector<double>& shares) {
  while (capacity > 0.0 && !unsatisfied.empty()) {
    const double slice = capacity / static_cast<double>(unsatisfied.size());
    std::size_t kept = 0;
    double granted = 0.0;
    for (std::size_t i : unsatisfied) {
      const double want = d[i].total() - shares[i];
      if (want <= slice) {
        shares[i] += want;
        granted += want;
      } else {
        shares[i] += slice;
        granted += slice;
        unsatisfied[kept++] = i;
      }
    }
    capacity -= granted;
    if (kept == unsatisfied.size()) break;
    unsatisfied.resize(kept);
  }
  return std::max(capacity, 0.0);
}

void work_conserving(double capacity, const std::vector<Demand>& d,
                     std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  std::vector<std::size_t> unsatisfied(n);
  for (std::size_t i = 0; i < n; ++i) unsatisfied[i] = i;
  const double leftover = water_fill(capacity, d, unsatisfied, shares);
  if (leftover > 0.0) {
    const double bonus = leftover / static_cast<double>(n);
    for (double& s : shares) s += bonus;
  }
}

void proportional_fair(double capacity, const std::vector<Demand>& d,
                       std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  const auto pull = [&](std::size_t i) {
    const double want = d[i].total() - shares[i];
    const double history = d[i].ewma_throughput;
    const double denom = history >= 0.0 ? 1.0 + history : 1.0;
    return d[i].weight * want / denom;
  };
  std::vector<std::size_t> unsatisfied(n);
  for (std::size_t i = 0; i < n; ++i) unsatisfied[i] = i;
  while (capacity > 0.0 && !unsatisfied.empty()) {
    double mass = 0.0;
    for (std::size_t i : unsatisfied) mass += pull(i);
    if (mass <= 0.0) {
      water_fill(capacity, d, unsatisfied, shares);
      break;
    }
    std::size_t kept = 0;
    double granted = 0.0;
    bool capped = false;
    for (std::size_t i : unsatisfied) {
      const double want = d[i].total() - shares[i];
      const double offer = capacity * pull(i) / mass;
      if (want <= offer) {
        shares[i] += want;
        granted += want;
        capped = true;
      } else {
        shares[i] += offer;
        granted += offer;
        unsatisfied[kept++] = i;
      }
    }
    capacity -= granted;
    if (!capped) break;
    unsatisfied.resize(kept);
  }
}

void weighted_priority(double capacity, const std::vector<Demand>& d,
                       std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    if (d[a].weight != d[b].weight) return d[a].weight > d[b].weight;
    return a < b;
  });
  const auto same_tier = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  std::size_t begin = 0;
  while (begin < n && capacity > 0.0) {
    std::size_t end = begin + 1;
    while (end < n &&
           same_tier(d[perm[end - 1]].weight, d[perm[end]].weight)) {
      ++end;
    }
    std::vector<std::size_t> tier(perm.begin() + begin, perm.begin() + end);
    capacity = water_fill(capacity, d, tier, shares);
    begin = end;
  }
}

void deficit_round_robin(double capacity,
                         const std::vector<Demand>& d,
                         std::size_t cursor, std::vector<double>& shares) {
  const std::size_t n = d.size();
  shares.assign(n, 0.0);
  if (n == 0) return;
  const std::size_t start = cursor % n;
  std::vector<std::size_t> ring;
  double ring_weight = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = (start + j) % n;
    if (d[i].weight > 0.0 && d[i].total() > 0.0) {
      ring.push_back(i);
      ring_weight += d[i].weight;
    }
  }
  double remaining = capacity;
  if (!ring.empty() && ring_weight > 0.0 && remaining > 0.0) {
    std::vector<double> deficit(n, 0.0);
    while (remaining > 0.0 && !ring.empty()) {
      const double quantum = capacity / ring_weight;
      std::size_t kept = 0;
      double kept_weight = 0.0;
      for (std::size_t idx = 0; idx < ring.size() && remaining > 0.0; ++idx) {
        const std::size_t i = ring[idx];
        deficit[i] += quantum * d[i].weight;
        const double want = d[i].total() - shares[i];
        const double grant = std::min({deficit[i], want, remaining});
        shares[i] += grant;
        deficit[i] -= grant;
        remaining -= grant;
        if (want - grant > 0.0) {
          ring[kept++] = i;
          kept_weight += d[i].weight;
        }
      }
      ring.resize(kept);
      ring_weight = kept_weight;
    }
  }
  if (remaining > 0.0) {
    std::vector<std::size_t> leftover;
    for (std::size_t i = 0; i < n; ++i) {
      if (d[i].weight <= 0.0 && d[i].total() - shares[i] > 0.0) {
        leftover.push_back(i);
      }
    }
    if (!leftover.empty()) water_fill(remaining, d, leftover, shares);
  }
}

}  // namespace ref

TEST(SchedulerTest, FastPathsMatchReferenceBitForBit) {
  Rng rng(4242);
  WorkConservingScheduler wc;
  ProportionalFairScheduler pf;
  WeightedPriorityScheduler wp;
  std::vector<double> shares, want, hinted;
  std::size_t drr_calls = 0;
  DeficitRoundRobinScheduler drr;

  for (int iter = 0; iter < 300; ++iter) {
    const std::size_t n = rng.below(18);
    std::vector<Demand> demands = random_demands(rng, n);
    // Exercise every regime the fast paths special-case: uniform weights,
    // PF history (for every session or for none), zero-demand and
    // zero-weight stragglers, dry capacity.
    const bool uniform = rng.bernoulli(0.4);
    const bool history = rng.bernoulli(0.5);
    for (Demand& d : demands) {
      if (uniform) d.weight = 1.5;
      if (history) d.ewma_throughput = rng.uniform(0.0, 2'000.0);
      if (rng.bernoulli(0.1)) d.weight = 0.0;
      if (rng.bernoulli(0.1)) {
        d.backlog = 0.0;
        d.arrivals = 0.0;
      }
    }
    double total = 0.0;
    for (const Demand& d : demands) total += d.total();
    const double capacity =
        rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.0, total * 1.4 + 10.0);

    // SoA mirror of the demand set. `plain` keeps the default hints (the
    // unhinted path); `input` carries the aggregate hints the hot path
    // would supply.
    const DemandColumns columns(demands);
    const SchedulerInput plain = columns.input();
    bool bits_uniform = true;
    for (const Demand& d : demands) {
      if (d.weight != demands[0].weight) bits_uniform = false;
    }
    SchedulerInput input = plain;
    input.membership_generation = static_cast<std::uint64_t>(iter) + 1;
    input.uniform_weights = bits_uniform;

    ref::work_conserving(capacity, demands, want);
    wc.allocate(capacity, plain, shares);
    ASSERT_EQ(shares, want) << "wc iter " << iter;
    wc.allocate(capacity, input, hinted);
    ASSERT_EQ(hinted, want) << "wc hinted iter " << iter;

    ref::proportional_fair(capacity, demands, want);
    pf.allocate(capacity, plain, shares);
    ASSERT_EQ(shares, want) << "pf iter " << iter;
    pf.allocate(capacity, input, hinted);
    ASSERT_EQ(hinted, want) << "pf hinted iter " << iter;

    ref::weighted_priority(capacity, demands, want);
    wp.allocate(capacity, plain, shares);
    ASSERT_EQ(shares, want) << "wp iter " << iter;
    // Twice with the same generation: the second call replays the cached
    // tier permutation and must not drift by a bit.
    wp.allocate(capacity, input, hinted);
    ASSERT_EQ(hinted, want) << "wp hinted iter " << iter;
    wp.allocate(capacity, input, hinted);
    ASSERT_EQ(hinted, want) << "wp cached iter " << iter;

    // DRR is stateful (rotation cursor, lazy residue): drive one scheduler
    // object across all iterations and mirror the cursor in the reference
    // (the cursor only advances on non-empty demand sets).
    ref::deficit_round_robin(capacity, demands, drr_calls, want);
    if (n > 0) ++drr_calls;
    drr.allocate(capacity, plain, shares);
    ASSERT_EQ(shares, want) << "drr iter " << iter;
    ref::deficit_round_robin(capacity, demands, drr_calls, want);
    if (n > 0) ++drr_calls;
    drr.allocate(capacity, input, hinted);
    ASSERT_EQ(hinted, want) << "drr hinted iter " << iter;
  }
}

TEST(SchedulerTest, TierPartitionMatchesSortAtFleetScale) {
  // The tier permutation is a counting partition over distinct weights; the
  // reference sorts all n sessions. Every call carries a fresh membership
  // generation — the churn regime, where the partition is rebuilt each
  // slot — and the shares must match the sorted reference bit for bit.
  // Within a tier the water-fill's running sums follow index order, so an
  // unstable partition changes the shares' bits.
  Rng rng(2500);
  WeightedPriorityScheduler wp;
  std::vector<double> shares, want;
  std::uint64_t generation = 0;
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> weight_sets = {
      {2.0},                  // one QoS class (uniform)
      {1.0, 4.0},             // two classes
      {1.0, 2.0, 4.0},        // three classes
      {0.0, 1.0, 3.0},        // zero weights among live ones
      {0.0, -0.0, 2.0},       // +0.0 and -0.0 are one weight
      {0.1 + 0.2, 0.3, 0.5},  // epsilon-equal pair: one tier
      {inf, 1.0},             // inf never merges with itself
      {inf},                  // an all-inf fleet is one tier per session
  };
  for (const std::size_t n : {0UL, 1UL, 2UL, 17UL, 2500UL, 5000UL}) {
    // The distinct-weight sets, then all-distinct weights (k = n).
    for (std::size_t set = 0; set <= weight_sets.size(); ++set) {
      for (int draw = 0; draw < 2; ++draw) {
        std::vector<Demand> demands = random_demands(rng, n);
        for (std::size_t i = 0; i < n; ++i) {
          demands[i].weight =
              set < weight_sets.size()
                  ? weight_sets[set][rng.below(weight_sets[set].size())]
                  : rng.uniform(0.0, 8.0);
        }
        double total = 0.0;
        for (const Demand& d : demands) total += d.total();
        const double capacity = rng.uniform(0.0, total * 1.2 + 10.0);

        std::vector<double> backlog(n), arrivals(n), weight(n);
        bool bits_uniform = true;
        for (std::size_t i = 0; i < n; ++i) {
          backlog[i] = demands[i].backlog;
          arrivals[i] = demands[i].arrivals;
          weight[i] = demands[i].weight;
          if (std::bit_cast<std::uint64_t>(weight[i]) !=
              std::bit_cast<std::uint64_t>(weight[0])) {
            bits_uniform = false;
          }
        }
        SchedulerInput input{backlog, arrivals, weight, {}};
        input.membership_generation = ++generation;
        input.uniform_weights = bits_uniform;

        ref::weighted_priority(capacity, demands, want);
        wp.allocate(capacity, input, shares);
        ASSERT_EQ(shares, want)
            << "n=" << n << " set=" << set << " draw=" << draw;
      }
    }
  }
}

// ----------------------------------------------------------- Admission ----

TEST(AdmissionTest, AcceptRejectBoundary) {
  const std::vector<int> candidates{3, 4, 5, 6};
  const double load = cheapest_load(candidates);
  ASSERT_GT(load, 0.0);

  // Room for exactly two sessions' cheapest-depth load.
  AdmissionConfig config;
  config.utilization_target = 1.0;
  AdmissionController admission(config, 2.5 * load);

  const auto first = admission.try_admit(shared_cache(), candidates);
  EXPECT_TRUE(first.admitted);
  EXPECT_NEAR(first.cheapest_load, load, 1e-9);
  EXPECT_GE(first.max_sustainable_depth, 3);
  const auto second = admission.try_admit(shared_cache(), candidates);
  EXPECT_TRUE(second.admitted);
  // Third would need 3x the load on a 2.5x link: rejected, and the
  // stability-region probe reports "not even the cheapest depth".
  const auto third = admission.try_admit(shared_cache(), candidates);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.max_sustainable_depth, 2);

  EXPECT_EQ(admission.stats().attempts, 3U);
  EXPECT_EQ(admission.stats().accepted, 2U);
  EXPECT_EQ(admission.stats().rejected, 1U);
  EXPECT_NEAR(admission.reserved_load(), 2.0 * load, 1e-9);

  // A departure frees the slot.
  admission.release(load);
  EXPECT_TRUE(admission.try_admit(shared_cache(), candidates).admitted);
}

/// The per-frame scan try_admit ran on every call before it memoized the
/// load curve, verbatim: the reference the memo must reproduce bit for bit.
AdmissionDecision scanned_decision(const FrameStatsCache& cache,
                                   const std::vector<int>& candidates,
                                   double residual) {
  AdmissionDecision decision;
  decision.residual_capacity = residual;
  const int d_min = *std::min_element(candidates.begin(), candidates.end());
  const int d_max = *std::max_element(candidates.begin(), candidates.end());
  decision.cheapest_load =
      AdmissionController::cheapest_depth_load(cache, candidates);
  std::vector<double> mean_bytes(static_cast<std::size_t>(d_max) + 1, 0.0);
  for (std::size_t t = 0; t < cache.frame_count(); ++t) {
    const FrameWorkload& frame = cache.workload(t);
    for (int d = d_min; d <= d_max; ++d) {
      mean_bytes[static_cast<std::size_t>(d)] += frame.bytes(d);
    }
  }
  for (double& b : mean_bytes) b /= static_cast<double>(cache.frame_count());
  decision.max_sustainable_depth =
      max_sustainable_depth(mean_bytes, residual, d_min, d_max);
  decision.admitted = decision.max_sustainable_depth >= d_min;
  return decision;
}

TEST(AdmissionTest, MemoizedDecisionsMatchThePerCallScanBitForBit) {
  // Every profile seed the suite's cluster benchmarks stream, and three
  // candidate sets (one unsorted, one a single depth), alternated arrival
  // by arrival through one controller under capacity scales 1, 0.5 and 0,
  // with departures releasing load: each decision must equal the per-call
  // scan's, bit for bit, as must the best-fit load lookup.
  std::vector<std::unique_ptr<FrameStatsCache>> profiles;
  for (const std::uint64_t seed : {17ULL, 23ULL, 31ULL, 47ULL, 71ULL}) {
    profiles.push_back(
        std::make_unique<FrameStatsCache>(*open_test_subject(seed), 8, 8));
  }
  // The single depth comes first: a memo blind to the candidate range would
  // then serve its one-depth curve to the wider sets.
  const std::vector<std::vector<int>> candidate_sets{
      {4}, {3, 4, 5, 6}, {6, 3, 5}};
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  AdmissionConfig config;
  config.utilization_target = 1.0;
  const double capacity =
      3.0 * AdmissionController::cheapest_depth_load(*profiles[0],
                                                     candidate_sets[1]);
  AdmissionController admission(config, capacity);
  double reserved = 0.0;  // the reference books, kept the same way
  std::vector<double> held;
  std::size_t admits = 0;
  std::size_t rejects = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const double scale = std::array{1.0, 0.5, 0.0}[(i / 10) % 3];
    admission.set_capacity_scale(scale);
    if (i % 4 == 3 && !held.empty()) {
      admission.release(held.front());
      reserved = std::max(reserved - held.front(), 0.0);
      held.erase(held.begin());
    }
    const FrameStatsCache& cache = *profiles[i % profiles.size()];
    const std::vector<int>& candidates =
        candidate_sets[(i / profiles.size()) % candidate_sets.size()];
    const double residual = std::max(capacity * scale - reserved, 0.0);
    const AdmissionDecision want =
        scanned_decision(cache, candidates, residual);
    const AdmissionDecision got = admission.try_admit(cache, candidates);
    ASSERT_EQ(bits(got.cheapest_load), bits(want.cheapest_load)) << i;
    ASSERT_EQ(bits(got.residual_capacity), bits(want.residual_capacity)) << i;
    ASSERT_EQ(got.max_sustainable_depth, want.max_sustainable_depth) << i;
    ASSERT_EQ(got.admitted, want.admitted) << i;
    ASSERT_EQ(bits(admission.cheapest_load(cache, candidates)),
              bits(want.cheapest_load))
        << i;
    if (got.admitted) {
      reserved += got.cheapest_load;
      held.push_back(got.cheapest_load);
      ++admits;
    } else {
      ++rejects;
    }
    ASSERT_EQ(bits(admission.reserved_load()), bits(reserved)) << i;
  }
  EXPECT_GT(admits, 30U);
  EXPECT_GT(rejects, 30U);
}

TEST(AdmissionTest, DisabledAdmitsEverything) {
  AdmissionConfig config;
  config.enabled = false;
  AdmissionController admission(config, 1.0);  // capacity irrelevant
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(admission.try_admit(shared_cache(), {3, 4, 5}).admitted);
  }
  EXPECT_EQ(admission.stats().rejected, 0U);
}

TEST(AdmissionTest, Validation) {
  AdmissionConfig config;
  EXPECT_THROW(AdmissionController(config, 0.0), std::invalid_argument);
  config.utilization_target = 1.5;
  EXPECT_THROW(AdmissionController(config, 100.0), std::invalid_argument);
  config.utilization_target = 0.9;
  AdmissionController admission(config, 1e9);
  EXPECT_THROW(admission.try_admit(shared_cache(), {}),
               std::invalid_argument);
}

// ------------------------------------------------------------ Executor ----

TEST(ParallelExecutorTest, RunsEveryIndexExactlyOnce) {
  ParallelExecutor executor(4);
  EXPECT_EQ(executor.threads(), 4U);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  executor.parallel_for(257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Reusable across jobs (the pool persists between calls).
  executor.parallel_for(257, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
  executor.parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(ParallelExecutorTest, PropagatesExceptions) {
  ParallelExecutor executor(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      executor.parallel_for(64,
                            [&](std::size_t i) {
                              ++ran;
                              if (i == 13) throw std::runtime_error("boom");
                            }),
      std::runtime_error);
  // The loop drains instead of abandoning indices mid-flight.
  EXPECT_EQ(ran.load(), 64);
  // The pool survives a throwing job.
  executor.parallel_for(8, [](std::size_t) {});

  // The serial (threads == 1) inline path honours the same drain contract,
  // so the error path is thread-count-invariant too.
  ParallelExecutor serial(1);
  ran = 0;
  EXPECT_THROW(
      serial.parallel_for(64,
                          [&](std::size_t i) {
                            ++ran;
                            if (i == 13) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 64);
}

// ---------------------------------------------------------------- Churn ----

ServingConfig small_config() {
  ServingConfig config;
  config.steps = 120;
  config.candidates = {3, 4, 5, 6};
  config.v = calibrate_streaming_v(shared_cache(), config.candidates,
                                   4.0 * shared_cache().workload(0).bytes(5));
  config.admission.utilization_target = 1.0;
  return config;
}

TEST(SessionManagerTest, ChurnBookkeeping) {
  ServingConfig config = small_config();
  config.trace_mode = TraceMode::kAll;  // reads per-slot traces
  const double load = cheapest_load(config.candidates);
  // Fits two cheapest-depth sessions, not three.
  ConstantChannel channel(2.5 * load);
  SessionManager manager(config, channel.mean_capacity_bytes());

  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.departure_slot = 60;
  const std::size_t a = manager.submit(spec);  // slots [0, 60)
  spec.arrival_slot = 20;
  spec.departure_slot = kNeverDeparts;
  const std::size_t b = manager.submit(spec);  // slots [20, end)
  spec.arrival_slot = 30;
  const std::size_t c = manager.submit(spec);  // rejected: link is full
  spec.arrival_slot = 80;
  const std::size_t d = manager.submit(spec);  // admitted: a left at 60

  EXPECT_EQ(manager.active_count(), 0U);
  for (std::size_t t = 0; t < config.steps; ++t) {
    manager.step(channel.next_capacity_bytes());
    if (t < 20) {
      EXPECT_EQ(manager.active_count(), 1U) << t;
    } else if (t < 60) {
      EXPECT_EQ(manager.active_count(), 2U) << t;
    } else if (t < 80) {
      EXPECT_EQ(manager.active_count(), 1U) << t;
    } else {
      EXPECT_EQ(manager.active_count(), 2U) << t;
    }
  }

  const ServingResult result = manager.finish();
  ASSERT_EQ(result.sessions.size(), 4U);
  EXPECT_TRUE(result.sessions[a].admitted);
  EXPECT_EQ(result.sessions[a].trace.size(), 60U);
  EXPECT_EQ(result.sessions[a].departure_slot, 60U);
  EXPECT_TRUE(result.sessions[b].admitted);
  EXPECT_EQ(result.sessions[b].trace.size(), 100U);
  EXPECT_EQ(result.sessions[b].departure_slot, 120U);
  EXPECT_FALSE(result.sessions[c].admitted);
  EXPECT_EQ(result.sessions[c].trace.size(), 0U);
  EXPECT_TRUE(result.sessions[d].admitted);
  EXPECT_EQ(result.sessions[d].trace.size(), 40U);

  EXPECT_EQ(result.admission.attempts, 4U);
  EXPECT_EQ(result.admission.accepted, 3U);
  EXPECT_EQ(result.admission.rejected, 1U);
  EXPECT_EQ(result.fleet.sessions_admitted, 3U);
  EXPECT_EQ(result.fleet.sessions_rejected, 1U);
  EXPECT_EQ(result.fleet.peak_concurrency, 2U);
  EXPECT_EQ(result.session_table.row_count(), 4U);

  EXPECT_THROW(manager.step(1.0), std::logic_error);
  EXPECT_THROW(manager.submit(spec), std::logic_error);
}

TEST(SessionManagerTest, EveryMidRunCloseCountsOnceAndFinishCountsNone) {
  // Departure, migration extract and eviction all retire through one path:
  // each bumps the closed counter and lifetime histogram once, records one
  // kClose flight event (a = id, b = lifetime) and releases its admission
  // reservation. finish() closes what is still active without either.
  ServingConfig config = small_config();
  TelemetryRegistry registry;
  FlightRecorder recorder;
  config.telemetry.mode = TelemetryMode::kCounters;
  config.telemetry.registry = &registry;
  config.telemetry.flight = &recorder;
  const double load = cheapest_load(config.candidates);
  ConstantChannel channel(8.0 * load);
  SessionManager manager(config, channel.mean_capacity_bytes());

  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.departure_slot = 10;
  manager.submit(spec);  // id 0: departs at 10
  spec.departure_slot = kNeverDeparts;
  manager.submit(spec);  // id 1: extracted at 15
  spec.arrival_slot = 5;
  manager.submit(spec);  // id 2: evicted at 20
  spec.arrival_slot = 0;
  manager.submit(spec);  // id 3: evicted at 20
  spec.arrival_slot = 25;
  manager.submit(spec);  // id 4: still active at finish

  while (manager.slot() < 15) manager.step(channel.next_capacity_bytes());
  SessionManager::MigratedSession carried;
  ASSERT_TRUE(manager.extract_session(1, carried));
  while (manager.slot() < 20) manager.step(channel.next_capacity_bytes());
  std::vector<EvictedSession> evicted;
  EXPECT_EQ(manager.evict_all_active(evicted), 2U);
  EXPECT_NEAR(manager.admission().reserved_load(), 0.0, 1e-9 * load);
  while (manager.slot() < 30) manager.step(channel.next_capacity_bytes());
  const ServingResult result = manager.finish();

  const std::size_t departures[] = {10, 15, 20, 20, 30};
  for (std::size_t id = 0; id < 5; ++id) {
    EXPECT_EQ(result.sessions[id].departure_slot, departures[id]) << id;
  }
  EXPECT_EQ(registry.find_counter("link0/sessions_closed")->value(), 4U);
  EXPECT_EQ(registry.find_histogram("link0/session_lifetime_slots")->count(),
            4U);
  std::vector<std::pair<double, double>> closes;
  for (std::size_t i = 0; i < recorder.size(); ++i) {
    const FlightEvent& e = recorder.at(i);
    if (e.kind == FlightEventKind::kClose) closes.emplace_back(e.a, e.b);
  }
  std::sort(closes.begin(), closes.end());
  const std::vector<std::pair<double, double>> want = {
      {0.0, 10.0}, {1.0, 15.0}, {2.0, 15.0}, {3.0, 20.0}};
  EXPECT_EQ(closes, want);
}

TEST(SessionManagerTest, Validation) {
  ServingConfig config = small_config();
  SessionManager manager(config, 1e6);
  SessionSpec spec;
  EXPECT_THROW(manager.submit(spec), std::invalid_argument);  // null cache
  spec.cache = &shared_cache();
  spec.arrival_slot = 10;
  spec.departure_slot = 10;
  EXPECT_THROW(manager.submit(spec), std::invalid_argument);
  spec.departure_slot = 11;
  spec.weight = -1.0;
  EXPECT_THROW(manager.submit(spec), std::invalid_argument);

  // A window that fully elapsed before submission can never stream a slot
  // inside its declared lifetime.
  SessionSpec elapsed;
  elapsed.cache = &shared_cache();
  elapsed.departure_slot = 3;
  for (int t = 0; t < 5; ++t) manager.step(1e6);
  EXPECT_THROW(manager.submit(elapsed), std::invalid_argument);
  // An elapsed *arrival* with a live departure is fine: it arrives now.
  elapsed.departure_slot = 100;
  EXPECT_NO_THROW(manager.submit(elapsed));

  ServingConfig bad = config;
  bad.steps = 0;
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.candidates = {};
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.v = -1.0;  // the controller's V >= 0 contract, enforced at the door
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.candidates = {5, 4};  // must be strictly ascending
  EXPECT_THROW(SessionManager(bad, 1e6), std::invalid_argument);
  bad = config;
  bad.candidates = {42};
  SessionManager out_of_range(bad, 1e6);
  SessionSpec ok;
  ok.cache = &shared_cache();
  EXPECT_THROW(out_of_range.submit(ok), std::invalid_argument);
}

TEST(SessionManagerTest, LateSubmitArrivesAtSubmissionSlot) {
  ServingConfig config = small_config();
  config.trace_mode = TraceMode::kAll;  // reads per-slot traces
  ConstantChannel channel(1e6);
  SessionManager manager(config, channel.mean_capacity_bytes());
  for (int t = 0; t < 10; ++t) manager.step(channel.next_capacity_bytes());

  // Declared arrival is in the past: the session arrives now, and the
  // reported window matches the trace exactly.
  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.arrival_slot = 0;
  const std::size_t id = manager.submit(spec);
  for (int t = 0; t < 20; ++t) manager.step(channel.next_capacity_bytes());

  const ServingResult result = manager.finish();
  EXPECT_EQ(result.sessions[id].arrival_slot, 10U);
  EXPECT_EQ(result.sessions[id].departure_slot, 30U);
  EXPECT_EQ(result.sessions[id].trace.size(), 20U);
}

TEST(SessionManagerTest, NeverArrivedSessionIsNeitherAdmittedNorRejected) {
  ServingConfig config = small_config();
  config.steps = 20;
  ConstantChannel channel(1e9);
  SessionSpec active;
  active.cache = &shared_cache();
  SessionSpec never;
  never.cache = &shared_cache();
  never.arrival_slot = 500;  // beyond the horizon

  const ServingResult result =
      run_serving_scenario(config, {active, never}, channel);
  // Admission never saw the future session, and the fleet counters agree.
  EXPECT_EQ(result.admission.attempts, 1U);
  EXPECT_EQ(result.admission.rejected, 0U);
  EXPECT_EQ(result.fleet.sessions_submitted, 2U);
  EXPECT_EQ(result.fleet.sessions_admitted, 1U);
  EXPECT_EQ(result.fleet.sessions_rejected, 0U);
}

TEST(SessionManagerTest, CapacityUsedEqualsBytesActuallyDrained) {
  // Queues serve only pre-existing backlog (Lindley: serve, then admit), so
  // the link must be charged min(Q(t), share) per session — the old
  // min(share, backlog + arrivals) counted undrainable same-slot arrivals
  // as used capacity and over-reported utilization.
  ServingConfig config = small_config();
  config.steps = 40;
  config.trace_mode = TraceMode::kAll;  // sums the per-slot records
  ConstantChannel channel(1e9);  // never the bottleneck
  std::vector<SessionSpec> specs(3);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].cache = &shared_cache();
    specs[i].seed = i;
  }
  const ServingResult result = run_serving_scenario(config, specs, channel);

  double drained = 0.0;       // what the queues actually served
  double old_accounting = 0.0;  // what the old code charged the link
  for (const SessionOutcome& s : result.sessions) {
    for (const StepRecord& r : s.trace.steps()) {
      drained += std::min(r.backlog_begin, r.service);
      old_accounting += std::min(r.service, r.backlog_begin + r.arrivals);
    }
  }
  EXPECT_DOUBLE_EQ(result.fleet.capacity_used, drained);
  // The over-report was real: with arrivals every slot the old accounting
  // strictly exceeds the drained bytes.
  EXPECT_GT(old_accounting, drained);
  EXPECT_LE(result.fleet.capacity_used, result.fleet.capacity_offered);
}

TEST(SessionManagerTest, ShortSessionGetsPartialSummary) {
  // A 3-slot session used to vanish from fleet quality aggregates and print
  // a "-" row; now it carries a partial summary with a "too-short" verdict.
  ServingConfig config = small_config();
  config.steps = 30;
  config.trace_mode = TraceMode::kAll;  // reads per-slot traces
  ConstantChannel channel(1e9);
  SessionSpec brief;
  brief.cache = &shared_cache();
  brief.arrival_slot = 0;
  brief.departure_slot = 3;
  SessionSpec full;
  full.cache = &shared_cache();
  const ServingResult result =
      run_serving_scenario(config, {brief, full}, channel);

  const SessionOutcome& short_session = result.sessions[0];
  ASSERT_TRUE(short_session.admitted);
  ASSERT_EQ(short_session.trace.size(), 3U);
  ASSERT_TRUE(short_session.has_summary);
  EXPECT_TRUE(short_session.summary.partial);
  EXPECT_GT(short_session.summary.time_average_quality, 0.0);
  EXPECT_GE(short_session.summary.mean_depth, config.candidates.front());
  EXPECT_LE(short_session.summary.mean_depth, config.candidates.back());

  // Both sessions now count toward the fleet aggregates.
  EXPECT_EQ(result.fleet.partial_summary_sessions, 1U);
  EXPECT_GT(result.fleet.mean_quality, 0.0);
  EXPECT_GT(result.fleet.quality_fairness, 0.0);

  // The report row carries the means and the "too-short" verdict.
  EXPECT_EQ(std::get<std::string>(result.session_table.at(0, 8)),
            "too-short");
  EXPECT_TRUE(
      std::holds_alternative<double>(result.session_table.at(0, 5)));
  // The full-horizon session keeps a real verdict.
  EXPECT_NE(std::get<std::string>(result.session_table.at(1, 8)), "-");
  EXPECT_NE(std::get<std::string>(result.session_table.at(1, 8)),
            "too-short");
}

TEST(SessionManagerTest, OutOfOrderSubmissionsAdmitInArrivalOrder) {
  // The pending list admits by (arrival slot, id) regardless of submission
  // order — the latest-arriving session was submitted first, and the link
  // only fits two, so it is the one refused.
  ServingConfig config = small_config();
  const double load = cheapest_load(config.candidates);
  ConstantChannel channel(2.5 * load);
  SessionManager manager(config, channel.mean_capacity_bytes());

  SessionSpec spec;
  spec.cache = &shared_cache();
  spec.arrival_slot = 30;
  const std::size_t last = manager.submit(spec);
  spec.arrival_slot = 20;
  const std::size_t middle = manager.submit(spec);
  spec.arrival_slot = 10;
  const std::size_t first = manager.submit(spec);

  for (std::size_t t = 0; t < config.steps; ++t) {
    manager.step(channel.next_capacity_bytes());
  }
  const ServingResult result = manager.finish();
  EXPECT_TRUE(result.sessions[first].admitted);
  EXPECT_TRUE(result.sessions[middle].admitted);
  EXPECT_FALSE(result.sessions[last].admitted);
  EXPECT_EQ(result.sessions[last].arrival_slot, 30U);
  EXPECT_EQ(result.admission.attempts, 3U);
}

// -------------------------------------------------------- Determinism ----

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

TEST(SessionManagerTest, ThreadsSettingLeavesALoneManagerBitIdentical) {
  ServingConfig config = small_config();
  config.steps = 150;
  config.trace_mode = TraceMode::kAll;  // compares per-slot traces
  config.policy = SchedulerPolicy::kProportionalFair;
  const auto specs = churn_specs(9);
  const double capacity = 9.0 * shared_cache().workload(0).bytes(4);

  config.threads = 1;
  ConstantChannel ch_serial(capacity);
  const ServingResult serial = run_serving_scenario(config, specs, ch_serial);
  config.threads = 4;
  ConstantChannel ch_parallel(capacity);
  const ServingResult parallel =
      run_serving_scenario(config, specs, ch_parallel);

  ASSERT_EQ(serial.sessions.size(), parallel.sessions.size());
  for (std::size_t i = 0; i < serial.sessions.size(); ++i) {
    const Trace& a = serial.sessions[i].trace;
    const Trace& b = parallel.sessions[i].trace;
    ASSERT_EQ(a.size(), b.size()) << "session " << i;
    for (std::size_t t = 0; t < a.size(); ++t) {
      // Bit-exact equality, not approximate: a lone manager is one shard
      // and runs serially, so `threads` must not change a single bit.
      EXPECT_EQ(a.at(t).depth, b.at(t).depth);
      EXPECT_EQ(a.at(t).arrivals, b.at(t).arrivals);
      EXPECT_EQ(a.at(t).service, b.at(t).service);
      EXPECT_EQ(a.at(t).backlog_begin, b.at(t).backlog_begin);
      EXPECT_EQ(a.at(t).backlog_end, b.at(t).backlog_end);
      EXPECT_EQ(a.at(t).quality, b.at(t).quality);
    }
  }
  EXPECT_EQ(serial.fleet.quality_fairness, parallel.fleet.quality_fairness);
  EXPECT_EQ(serial.fleet.total_time_average_backlog,
            parallel.fleet.total_time_average_backlog);
}

TEST(ReplicationTest, ParallelReplicateMatchesSerialExactly) {
  const auto factory = [](std::uint64_t seed) {
    StreamingConfig config;
    config.steps = 64;
    config.candidates = {3, 4, 5, 6};
    LyapunovDepthController controller(calibrate_streaming_v(
        shared_cache(), config.candidates,
        3.0 * shared_cache().workload(0).bytes(4)));
    GilbertElliottChannel channel(shared_cache().workload(0).bytes(4) * 1.3,
                                  0.4, 0.1, 0.3, Rng(seed));
    return run_streaming_session(config, shared_cache(), controller, channel);
  };

  const ReplicationSummary serial = replicate(10, factory, 1);
  const ReplicationSummary parallel = replicate(10, factory, 4);
  EXPECT_EQ(serial.replicates, parallel.replicates);
  EXPECT_EQ(serial.quality.mean, parallel.quality.mean);
  EXPECT_EQ(serial.quality.ci_half_width, parallel.quality.ci_half_width);
  EXPECT_EQ(serial.backlog.mean, parallel.backlog.mean);
  EXPECT_EQ(serial.backlog.min, parallel.backlog.min);
  EXPECT_EQ(serial.backlog.max, parallel.backlog.max);
  EXPECT_EQ(serial.mean_depth.mean, parallel.mean_depth.mean);
  EXPECT_EQ(serial.divergent_count, parallel.divergent_count);
}

TEST(SessionManagerTest, PfEwmaWindowValidationAndEffect) {
  ServingConfig config = small_config();
  config.policy = SchedulerPolicy::kProportionalFair;
  config.pf_ewma_window = -1.0;
  EXPECT_THROW(SessionManager(config, 1e6), std::invalid_argument);
  config.pf_ewma_window = 0.5;  // alpha would exceed 1
  EXPECT_THROW(SessionManager(config, 1e6), std::invalid_argument);

  // The knob changes real allocations: under contention, true PF serves the
  // fleet differently from the instantaneous-demand split.
  const auto run_with_window = [&](double window) {
    ServingConfig c = small_config();
    c.steps = 200;
    c.policy = SchedulerPolicy::kProportionalFair;
    c.pf_ewma_window = window;
    c.trace_mode = TraceMode::kAll;  // compares per-slot service
    std::vector<SessionSpec> specs(3);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].cache = &shared_cache();
      specs[i].seed = i;
      specs[i].weight = i == 0 ? 2.0 : 1.0;
    }
    // Scarce link: queues stay backlogged, so the scheduler's choices bite.
    ConstantChannel channel(2.0 * shared_cache().workload(0).bytes(3));
    return run_serving_scenario(c, specs, channel);
  };
  const ServingResult legacy = run_with_window(0.0);
  const ServingResult true_pf = run_with_window(32.0);
  ASSERT_EQ(legacy.sessions.size(), true_pf.sessions.size());
  bool any_service_differs = false;
  for (std::size_t i = 0; i < legacy.sessions.size(); ++i) {
    const Trace& a = legacy.sessions[i].trace;
    const Trace& b = true_pf.sessions[i].trace;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
      if (a.at(t).service != b.at(t).service) any_service_differs = true;
    }
  }
  EXPECT_TRUE(any_service_differs);
  // Same capacity offered either way — the knob moves bytes between
  // sessions, it does not mint or lose any.
  EXPECT_EQ(legacy.fleet.capacity_offered, true_pf.fleet.capacity_offered);
}

// -------------------------------------------------------- Session store ----

const FrameStatsCache& alt_cache() {
  // Different subject than shared_cache() -> different workload/quality
  // tables, so a session deciding on the wrong table decides differently.
  static const FrameStatsCache cache(*open_test_subject(72), 8, 8);
  return cache;
}

TEST(SessionStoreTest, ValidatePassesThroughLifecycle) {
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  EXPECT_TRUE(store.validate().ok());

  SessionSpec spec;
  spec.cache = &shared_cache();
  for (std::size_t id = 0; id < 6; ++id) {
    spec.departure_slot = (id % 2 == 0) ? 4 : kNeverDeparts;
    spec.weight = (id % 3 == 0) ? 2.0 : 1.0;
    ServingSession& s = store.create(id, spec);
    s.phase = SessionPhase::kActive;
    store.activate(s, 0);
  }
  EXPECT_TRUE(store.validate().ok()) << store.validate().to_string();

  for (std::size_t t = 0; t < 8; ++t) {
    store.retire_departed(t, [](ServingSession& s) {
      s.phase = SessionPhase::kClosed;
    });
    store.decide_all();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      store.drain(i, t, 500.0, 0.25);
    }
    const Status ok = store.validate();
    EXPECT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
  }
  EXPECT_EQ(store.active_count(), 3U);  // the even ids departed at slot 4
}

TEST(SessionStoreTest, ValidateDetectsSlabMirrorDivergence) {
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v);
  SessionSpec spec;
  spec.cache = &shared_cache();
  ServingSession& s = store.create(0, spec);
  s.phase = SessionPhase::kActive;
  store.activate(s, 0);
  ASSERT_TRUE(store.validate().ok());

  // A spec mutated behind the store's back must be caught: the weight and
  // departure mirrors are bit-compared against the cold slab.
  s.spec.weight = 3.0;
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  s.spec.weight = 1.0;
  ASSERT_TRUE(store.validate().ok());

  s.spec.departure_slot = 7;  // without mirror_departure()
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  store.mirror_departure(s);  // the sanctioned mutation path repairs it
  EXPECT_TRUE(store.validate().ok());

  s.phase = SessionPhase::kClosed;  // active slot pointing at a closed record
  EXPECT_EQ(store.validate().code(), StatusCode::kFailedPrecondition);
  s.phase = SessionPhase::kActive;
  EXPECT_TRUE(store.validate().ok());
}

TEST(SessionStoreTest, ReinterningTablesMidRunKeepsDecisionsExact) {
  // Regression for the decide-memo key scheme: memo entries are keyed by
  // (interned table id, row offset), never by the row's address. The
  // adversarial shape is sessions on *different* tables whose (row offset,
  // backlog bits) collide exactly — fresh activations all start at row 0
  // with backlog 0 — plus a table retired from use and re-interned mid-run.
  // A key scheme that conflates tables would group them together and decide
  // some sessions on the wrong table; every decision is therefore checked
  // bit-for-bit against a twin store driven only by the scalar kernel.
  const ServingConfig config = small_config();
  // Both stores keep full traces: the comparison below is per slot.
  SessionStore store(config.candidates, config.v,
                     TraceMode::kAll);  // decide_all (memoized)
  SessionStore oracle(config.candidates, config.v,
                      TraceMode::kAll);  // decide(i) (scalar)

  std::size_t next_id = 0;
  const auto spawn = [&](const FrameStatsCache& cache, std::size_t count,
                         std::size_t departure) {
    SessionSpec spec;
    spec.cache = &cache;
    spec.departure_slot = departure;
    for (std::size_t k = 0; k < count; ++k, ++next_id) {
      for (SessionStore* st : {&store, &oracle}) {
        ServingSession& s = st->create(next_id, spec);
        s.phase = SessionPhase::kActive;
        st->activate(s, 0);
      }
    }
  };
  const auto step = [&](std::size_t t) {
    for (SessionStore* st : {&store, &oracle}) {
      st->retire_departed(
          t, [](ServingSession& s) { s.phase = SessionPhase::kClosed; });
    }
    store.decide_all();
    for (std::size_t i = 0; i < oracle.active_count(); ++i) oracle.decide(i);
    ASSERT_EQ(store.active_count(), oracle.active_count());
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      // Identical per-session share so backlogs stay bit-identical too.
      store.drain(i, t, 700.0, 0.0);
      oracle.drain(i, t, 700.0, 0.0);
    }
    const Status ok = store.validate();
    ASSERT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
  };

  spawn(shared_cache(), 3, 4);            // cohort A: table 0, departs at 4
  spawn(alt_cache(), 3, kNeverDeparts);   // cohort B: table 1, same row/backlog
  for (std::size_t t = 0; t < 4; ++t) step(t);
  // Cohort A is gone; re-intern its table mid-run (must find table id 0, not
  // mint a duplicate) alongside more sessions on table 1.
  spawn(shared_cache(), 2, kNeverDeparts);
  spawn(alt_cache(), 2, kNeverDeparts);
  for (std::size_t t = 4; t < 12; ++t) step(t);

  // Bit-for-bit comparison of every surviving session's full trace.
  ASSERT_EQ(store.session_count(), oracle.session_count());
  for (std::size_t pos = 0; pos < store.session_count(); ++pos) {
    const Trace& got = store.session(pos).trace;
    const Trace& want = oracle.session(pos).trace;
    ASSERT_EQ(got.size(), want.size()) << "session " << pos;
    for (std::size_t t = 0; t < got.size(); ++t) {
      const StepRecord& g = got.at(t);
      const StepRecord& w = want.at(t);
      EXPECT_EQ(g.depth, w.depth) << "session " << pos << " slot " << t;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.arrivals),
                std::bit_cast<std::uint64_t>(w.arrivals));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.quality),
                std::bit_cast<std::uint64_t>(w.quality));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(g.backlog_end),
                std::bit_cast<std::uint64_t>(w.backlog_end));
    }
  }
  // The engine rebuilt across the lifecycle edges above; now exercise the
  // reuse path too: with no drain or churn since the previous call, the
  // second decide_all must reuse the grouping (and still match the oracle).
  EXPECT_GT(store.decide_group_rebuilds(), 0U);
  store.decide_all();  // rebuilds: the last drain dirtied the backlogs
  store.decide_all();  // provably unchanged since -> reuse
  EXPECT_TRUE(store.last_decide_reused_groups());
  EXPECT_GT(store.decide_group_reuses(), 0U);
}

TEST(SessionStoreTest, MemoHashGrowsMidScanAndStaysExact) {
  // The decide memo hash is sized by distinct keys: it starts small and
  // doubles whenever a grouping scan would push its load past 1/8,
  // re-inserting the groups minted so far. A fleet whose (row, backlog,
  // ceiling) keys fan out from a few groups to over a hundred within one
  // slot forces several doublings inside a single decide_all(); every
  // decision must still match the scalar kernel bit for bit, equal keys
  // far apart in the scan must still share one group across a doubling,
  // and validate() checks the capacity invariant each slot.
  const ServingConfig config = small_config();
  SessionStore store(config.candidates, config.v, TraceMode::kAll);
  SessionStore oracle(config.candidates, config.v, TraceMode::kAll);
  const auto width = static_cast<std::uint32_t>(config.candidates.size());
  const std::uint32_t limits[] = {1, 2, width};
  const std::uint32_t swapped[] = {2, 1, width};

  std::size_t next_id = 0;
  const auto spawn = [&](std::size_t count, std::size_t slot) {
    for (std::size_t k = 0; k < count; ++k, ++next_id) {
      SessionSpec spec;
      spec.cache = &shared_cache();
      spec.qos = static_cast<std::uint8_t>(next_id % kSloTiers);
      for (SessionStore* st : {&store, &oracle}) {
        ServingSession& s = st->create(next_id, spec);
        s.phase = SessionPhase::kActive;
        st->activate(s, slot);
      }
    }
  };
  // Shares below one slot's arrivals with period 29 and tiers with period
  // 3: backlogs diverge from the second drain on, and each key recurs every
  // 87 sessions of a cohort, far from its first occurrence.
  const double a0 = shared_cache().workload(0).bytes(config.candidates[0]);
  const std::size_t frames = shared_cache().frame_count();
  std::size_t max_doublings = 0;
  for (std::size_t t = 0; t < 24; ++t) {
    if (t % 4 == 0 && t < 12) spawn(120, t);
    if (t == 0 || t == 12) {
      for (SessionStore* st : {&store, &oracle}) {
        st->set_tier_limits(t == 0 ? limits : swapped);
      }
    }
    const std::size_t before = store.memo_capacity();
    store.decide_all();
    const std::size_t after = store.memo_capacity();
    if (before > 0 && after > before) {
      max_doublings = std::max<std::size_t>(
          max_doublings, static_cast<std::size_t>(std::countr_zero(after) -
                                                  std::countr_zero(before)));
    }
    for (std::size_t i = 0; i < oracle.active_count(); ++i) oracle.decide(i);
    ASSERT_EQ(store.active_count(), oracle.active_count());
    const auto got = store.decided_arrivals();
    const auto want = oracle.decided_arrivals();
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "slot " << t << " session " << i;
    }
    EXPECT_GE(store.memo_capacity(), 8 * store.last_decide_groups());
    // One group per distinct key, no more (a lost re-insert would mint
    // duplicates): the row is the frame a cohort has reached, and a cohort
    // (120 ids, activated at slot 4 x cohort) never retires here.
    std::set<std::tuple<std::size_t, std::uint64_t, std::uint32_t>> keys;
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      const std::size_t row = (t - 4 * (i / 120)) % frames;
      keys.emplace(row, std::bit_cast<std::uint64_t>(store.backlogs()[i]),
                   store.tier_limit(static_cast<std::uint8_t>(i % kSloTiers)));
    }
    EXPECT_EQ(store.last_decide_groups(), keys.size()) << "slot " << t;
    for (std::size_t i = 0; i < store.active_count(); ++i) {
      const double share = a0 * (0.2 + 0.013 * static_cast<double>(i % 29));
      store.drain(i, t, share, 0.0);
      oracle.drain(i, t, share, 0.0);
    }
    const Status ok = store.validate();
    ASSERT_TRUE(ok.ok()) << "slot " << t << ": " << ok.to_string();
  }
  EXPECT_GE(store.last_decide_groups(), 100U);
  EXPECT_GE(max_doublings, 3U) << "no decide_all() grew the hash repeatedly";

  ASSERT_EQ(store.session_count(), oracle.session_count());
  for (std::size_t pos = 0; pos < store.session_count(); ++pos) {
    const Trace& got = store.session(pos).trace;
    const Trace& want = oracle.session(pos).trace;
    ASSERT_EQ(got.size(), want.size()) << "session " << pos;
    for (std::size_t t = 0; t < got.size(); ++t) {
      ASSERT_EQ(got.at(t).depth, want.at(t).depth)
          << "session " << pos << " slot " << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(t).quality),
                std::bit_cast<std::uint64_t>(want.at(t).quality));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(t).backlog_end),
                std::bit_cast<std::uint64_t>(want.at(t).backlog_end));
    }
  }
}

// ------------------------------------------------- Serving end-to-end ----

TEST(ServingScenarioTest, AdmissionKeepsFleetStable) {
  // Twice as many sessions as the link's stability region fits; admission
  // must turn the overflow away and every admitted session must stay
  // non-divergent.
  ServingConfig config = small_config();
  config.steps = 400;
  const double load = cheapest_load(config.candidates);
  ConstantChannel channel(4.2 * load);
  std::vector<SessionSpec> specs(8);
  for (auto& spec : specs) spec.cache = &shared_cache();

  const ServingResult result = run_serving_scenario(config, specs, channel);
  EXPECT_EQ(result.admission.accepted, 4U);
  EXPECT_EQ(result.admission.rejected, 4U);
  EXPECT_EQ(result.fleet.divergent_sessions, 0U);
  EXPECT_GT(result.fleet.quality_fairness, 0.99);
  EXPECT_GT(result.fleet.utilization(), 0.5);
}

}  // namespace
}  // namespace arvis
