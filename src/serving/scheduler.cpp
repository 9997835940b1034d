#include "serving/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace arvis {

namespace {

/// Water-fills `capacity` over the sessions in `unsatisfied` (a subset of
/// `demands`), equal-split seeded and weight-blind: repeatedly grant every
/// unsatisfied session an equal slice of what remains, capping each at its
/// demand, until capacity runs out or everyone is satisfied. Adds grants
/// into `shares` (callers zero-init). Consumes `unsatisfied` in place
/// (compacting between rounds — no allocation) and returns the capacity
/// left over once every demand in the subset is met.
double water_fill(double capacity, const SchedulerInput& demands,
                  std::vector<std::size_t>& unsatisfied,
                  std::vector<double>& shares) {
  while (capacity > 0.0 && !unsatisfied.empty()) {
    const double slice = capacity / static_cast<double>(unsatisfied.size());
    std::size_t kept = 0;
    double granted = 0.0;
    for (std::size_t i : unsatisfied) {
      const double want = demands.total(i) - shares[i];
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
    // No one was capped this round: everyone took a full slice, so the
    // remaining capacity is (numerically) zero and further rounds would
    // only chase rounding error.
    if (kept == unsatisfied.size()) break;
    unsatisfied.resize(kept);
  }
  return std::max(capacity, 0.0);
}

void fill_indices(std::vector<std::size_t>& index, std::size_t n) {
  index.resize(n);
  for (std::size_t i = 0; i < n; ++i) index[i] = i;
}

/// Two weights belong to the same priority tier when they differ by no more
/// than a relative epsilon — wide enough to absorb accumulated rounding from
/// different arithmetic paths, far too narrow to merge humanly distinct
/// priorities.
bool same_tier(double a, double b) noexcept {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// Marks a free slot of WeightedPriorityScheduler's distinct-weight table.
constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFU;

/// Open-addressed lookup over a power-of-two table of bucket ids: the slot
/// holding the bucket whose value has these bits, or the empty slot where
/// it belongs. Fibonacci hashing takes the product's top bits, which depend
/// on every bit of the key (weights such as 1.0, 2.0, 4.0 differ only in
/// their exponent).
std::size_t probe(const std::vector<std::uint32_t>& table,
                  const std::vector<double>& values, std::uint64_t bits) {
  const std::size_t mask = table.size() - 1;
  std::size_t slot = static_cast<std::size_t>(
      (bits * 0x9E3779B97F4A7C15ULL) >> (64 - std::countr_zero(table.size())));
  while (table[slot] != kEmptySlot &&
         std::bit_cast<std::uint64_t>(values[table[slot]]) != bits) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

}  // namespace

void EqualShareScheduler::allocate(double capacity,
                                   const SchedulerInput& demands,
                                   std::vector<double>& shares) {
  const std::size_t n = demands.size();
  ++stats_.calls;
  ++stats_.fast_path;  // closed form — there is no generic fallback
  shares.assign(n, n == 0 ? 0.0 : capacity / static_cast<double>(n));
}

void WorkConservingScheduler::allocate(double capacity,
                                       const SchedulerInput& demands,
                                       std::vector<double>& shares) {
  const std::size_t n = demands.size();
  ++stats_.calls;
  if (n == 0) {
    ++stats_.fast_path;  // trivially nothing to do — still classified
    shares.clear();
    return;
  }
  // Fused first round: in the common regime (capacity covers every demand —
  // steady state under admission control) the generic path's first
  // water-fill round caps everyone and the loop ends, so detect that in one
  // read-only pass and write want+bonus directly — no zero-fill, no index
  // list, no compaction. Arithmetic is operation-for-operation the generic
  // round's (want accumulates left to right, 0.0 + want == want,
  // want + bonus unchanged), so shares are bit-identical (tested).
  if (capacity > 0.0) {
    const double slice = capacity / static_cast<double>(n);
    double granted = 0.0;
    bool all_capped = true;
    for (std::size_t i = 0; i < n; ++i) {
      const double want = demands.total(i);
      if (want <= slice) {
        granted += want;
      } else {
        all_capped = false;
        break;
      }
    }
    if (all_capped) {
      ++stats_.fast_path;
      shares.resize(n);
      const double leftover = std::max(capacity - granted, 0.0);
      if (leftover > 0.0) {
        const double bonus = leftover / static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i) {
          shares[i] = demands.total(i) + bonus;
        }
      } else {
        for (std::size_t i = 0; i < n; ++i) shares[i] = demands.total(i);
      }
      return;
    }
  }
  ++stats_.generic;
  shares.assign(n, 0.0);
  fill_indices(scratch_, n);
  const double leftover = water_fill(capacity, demands, scratch_, shares);
  // All demands met with capacity to spare: hand the excess back out
  // equally so an idle fleet still sees the full pipe (it will be wasted
  // by the queues, but the allocation itself stays work-conserving and
  // matches the seed's "equal split" baseline when nobody is backlogged).
  if (leftover > 0.0) {
    const double bonus = leftover / static_cast<double>(n);
    for (double& s : shares) s += bonus;
  }
}

void ProportionalFairScheduler::allocate(double capacity,
                                         const SchedulerInput& demands,
                                         std::vector<double>& shares) {
  const std::size_t n = demands.size();
  ++stats_.calls;
  shares.assign(n, 0.0);
  if (n == 0) {
    ++stats_.fast_path;  // trivially nothing to do — still classified
    return;
  }

  // True PF when history is supplied: divide each session's pull by
  // (1 + EWMA served bytes/slot). The +1 byte floors the denominator so a
  // brand-new session (EWMA 0) gets the largest catch-up pull instead of a
  // division by zero; at streaming scales (KBs/slot) the offset is noise.
  // History comes for every session or for none, so the only test left is
  // loop-invariant; without history the denominator is 1.0 for everyone,
  // which keeps the instantaneous-demand pull bit for bit.
  const std::span<const double> history = demands.ewma_throughput;
  const auto denom = [&](std::size_t i) {
    return history.empty() ? 1.0 : 1.0 + history[i];
  };
  const auto pull = [&](std::size_t i) {
    const double want = demands.total(i) - shares[i];
    return demands.weight[i] * want / denom(i);
  };
  // First-round pull with shares implicitly zero: total(i) - 0.0 == total(i)
  // bitwise for the non-negative demands the runtime produces, so the fused
  // round below reproduces the generic round exactly.
  const auto pull0 = [&](std::size_t i) {
    return demands.weight[i] * demands.total(i) / denom(i);
  };

  std::vector<std::size_t>& unsatisfied = scratch_;

  // Fused first round over the implicit full index range: no zero-fill of
  // `shares`, no index-list materialization. Every arithmetic step mirrors
  // the generic loop's first iteration operation for operation (tested
  // bit-for-bit against the reference algorithm).
  double mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) mass += pull0(i);
  if (!(capacity > 0.0) || mass <= 0.0) {
    ++stats_.generic;
    shares.assign(n, 0.0);
    if (capacity > 0.0) {
      // Only zero-weight (or zero-demand) sessions exist: proportional
      // offers would starve them forever, so the surplus-redistribution
      // contract falls back to plain water-filling.
      fill_indices(unsatisfied, n);
      water_fill(capacity, demands, unsatisfied, shares);
    }
    return;
  }
  shares.resize(n);
  unsatisfied.clear();
  {
    double granted = 0.0;
    bool capped = false;
    for (std::size_t i = 0; i < n; ++i) {
      const double want = demands.total(i);
      const double offer = capacity * pull0(i) / mass;
      if (want <= offer) {
        shares[i] = want;
        granted += want;
        capped = true;
      } else {
        shares[i] = offer;
        granted += offer;
        unsatisfied.push_back(i);
      }
    }
    capacity -= granted;
    if (!capped) {
      ++stats_.fast_path;  // the fused round settled the whole slot
      return;              // everyone took exactly their proportional offer
    }
  }
  if (unsatisfied.empty() || !(capacity > 0.0)) {
    ++stats_.fast_path;  // fused round capped everyone / spent the link
  } else {
    ++stats_.generic;
  }

  // Remaining rounds: the generic iteration over the surviving set.
  while (capacity > 0.0 && !unsatisfied.empty()) {
    double round_mass = 0.0;
    for (std::size_t i : unsatisfied) {
      round_mass += pull(i);
    }
    if (round_mass <= 0.0) {
      water_fill(capacity, demands, unsatisfied, shares);
      break;
    }
    std::size_t kept = 0;
    double granted = 0.0;
    bool capped = false;
    for (std::size_t i : unsatisfied) {
      const double want = demands.total(i) - shares[i];
      const double offer = capacity * pull(i) / round_mass;
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
    if (!capped) break;  // everyone took exactly their proportional offer
    unsatisfied.resize(kept);
  }
}

void WeightedPriorityScheduler::rebuild_tiers(const SchedulerInput& demands) {
  const std::size_t n = demands.size();
  // The permutation is the one a sort by (weight desc, index asc) yields,
  // built as a stable counting partition over the k distinct weights.
  //
  // 1. Bucket every session by its weight. Keys are the bits of w + 0.0,
  //    which folds -0.0 into +0.0 so the two share a bucket exactly as `!=`
  //    equates them. bucket_fill_ counts each bucket's sessions.
  if (table_.empty()) table_.resize(16);
  std::fill(table_.begin(), table_.end(), kEmptySlot);
  bucket_value_.clear();
  bucket_fill_.clear();
  bucket_of_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double w = demands.weight[i] + 0.0;
    const std::size_t slot =
        probe(table_, bucket_value_, std::bit_cast<std::uint64_t>(w));
    std::uint32_t bucket = table_[slot];
    if (bucket == kEmptySlot) {
      bucket = static_cast<std::uint32_t>(bucket_value_.size());
      table_[slot] = bucket;
      bucket_value_.push_back(w);
      bucket_fill_.push_back(0);
      // Keep the table at most half full; it only ever grows, so
      // steady-state rebuilds allocate nothing.
      if (2 * bucket_value_.size() > table_.size()) {
        table_.assign(2 * table_.size(), kEmptySlot);
        for (std::uint32_t b = 0; b < bucket_value_.size(); ++b) {
          table_[probe(table_, bucket_value_,
                       std::bit_cast<std::uint64_t>(bucket_value_[b]))] = b;
        }
      }
    }
    bucket_of_[i] = bucket;
    ++bucket_fill_[bucket];
  }

  // 2. Order the k buckets by descending weight (distinct values, so no
  //    ties), turn counts into start offsets, and scatter sessions in
  //    ascending index order: within a bucket the index order survives.
  order_.resize(bucket_value_.size());
  for (std::uint32_t b = 0; b < order_.size(); ++b) order_[b] = b;
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return bucket_value_[a] > bucket_value_[b];
            });
  std::size_t offset = 0;
  for (const std::uint32_t b : order_) {
    const std::size_t count = bucket_fill_[b];
    bucket_fill_[b] = offset;
    offset += count;
  }
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[bucket_fill_[bucket_of_[i]]++] = i;

  // 3. Tiers are maximal runs of same_tier neighbours in that permutation.
  //    Across a bucket boundary the neighbours are the two distinct values;
  //    inside a bucket every neighbour pair is (w, w), which fails same_tier
  //    only for inf and NaN — those sessions stand alone, one tier each.
  //    bucket_fill_[b] now holds the end of bucket b.
  tier_bounds_.clear();
  std::size_t begin = 0;
  for (std::size_t r = 0; r < order_.size(); ++r) {
    const double w = bucket_value_[order_[r]];
    const std::size_t end = bucket_fill_[order_[r]];
    if (r > 0 && same_tier(bucket_value_[order_[r - 1]], w)) {
      tier_bounds_.back().second = begin + 1;
    } else {
      tier_bounds_.emplace_back(begin, begin + 1);
    }
    if (same_tier(w, w)) {
      tier_bounds_.back().second = end;
    } else {
      for (std::size_t p = begin + 1; p < end; ++p) {
        tier_bounds_.emplace_back(p, p + 1);
      }
    }
    begin = end;
  }
}

void WeightedPriorityScheduler::allocate(double capacity,
                                         const SchedulerInput& demands,
                                         std::vector<double>& shares) {
  const std::size_t n = demands.size();
  ++stats_.calls;
  shares.assign(n, 0.0);
  if (n == 0) {
    ++stats_.fast_path;  // trivially nothing to do — still classified
    return;
  }

  // Uniform fleet (hinted by the store's weight histogram): the permutation
  // would be the identity and the tier split one maximal run, so the whole
  // policy degenerates to a single water-fill over everyone — bit-identical,
  // no partition. An inf or NaN weight fails same_tier against itself, one
  // tier per session, so such a fleet takes the tier path.
  if (demands.uniform_weights &&
      same_tier(demands.weight[0], demands.weight[0])) {
    ++stats_.fast_path;
    if (capacity > 0.0) {
      fill_indices(tier_, n);
      water_fill(capacity, demands, tier_, shares);
    }
    return;
  }

  // Weights belong to sessions and sessions only change at lifecycle edges,
  // so the tier permutation is valid as long as the caller's membership
  // generation holds still: the linear rebuild runs once per
  // arrival/departure batch, and not at all in a slot without churn.
  const bool cached = demands.membership_generation != 0 &&
                      demands.membership_generation == cached_generation_ &&
                      perm_.size() == n;
  if (!cached) {
    ++stats_.generic;  // membership changed: rebuild the partition
    rebuild_tiers(demands);
    cached_generation_ = demands.membership_generation;
  } else {
    ++stats_.fast_path;  // cached tier permutation reused across slots
  }

  for (const auto& [begin, end] : tier_bounds_) {
    if (!(capacity > 0.0)) break;
    tier_.assign(perm_.begin() + static_cast<std::ptrdiff_t>(begin),
                 perm_.begin() + static_cast<std::ptrdiff_t>(end));
    capacity = water_fill(capacity, demands, tier_, shares);
  }
}

void DeficitRoundRobinScheduler::allocate(double capacity,
                                          const SchedulerInput& demands,
                                          std::vector<double>& shares) {
  const std::size_t n = demands.size();
  ++stats_.calls;
  ++stats_.generic;  // DRR always runs its ring rounds — no fused shortcut
  shares.assign(n, 0.0);
  if (n == 0) return;
  // Rotation order for this slot; the cursor advances once per allocation so
  // the position served first (which matters when capacity runs dry
  // mid-round) rotates across the fleet.
  const std::size_t start = cursor_ % n;
  ++cursor_;

  ring_.clear();
  // Deficit residue is initialized lazily for ring members only (while the
  // build loop already touches them): sessions outside the ring are never
  // read, so the old fleet-wide zero-fill was pure O(n) waste.
  deficit_.resize(n);
  double ring_weight = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = (start + j) % n;
    if (demands.weight[i] > 0.0 && demands.total(i) > 0.0) {
      ring_.push_back(i);
      ring_weight += demands.weight[i];
      deficit_[i] = 0.0;
    }
  }

  double remaining = capacity;
  if (!ring_.empty() && ring_weight > 0.0 && remaining > 0.0) {
    // The quantum is recomputed from the *surviving* ring's weight each
    // round, so every round tops deficits up by exactly `capacity` in
    // aggregate no matter who already left — the loop meets every demand or
    // exhausts the link in O(1) rounds even when the last survivor's weight
    // is vanishingly small (a trace file may carry any weight >= 0).
    // Deficits persist across rounds within the slot (the "deficit" of the
    // name) so under-granted sessions catch up before anyone laps them.
    while (remaining > 0.0 && !ring_.empty()) {
      const double quantum = capacity / ring_weight;
      std::size_t kept = 0;
      double kept_weight = 0.0;
      for (std::size_t idx = 0; idx < ring_.size() && remaining > 0.0; ++idx) {
        const std::size_t i = ring_[idx];
        deficit_[i] += quantum * demands.weight[i];
        const double want = demands.total(i) - shares[i];
        const double grant = std::min({deficit_[i], want, remaining});
        shares[i] += grant;
        deficit_[i] -= grant;
        remaining -= grant;
        if (want - grant > 0.0) {
          ring_[kept++] = i;
          kept_weight += demands.weight[i];
        }
      }
      ring_.resize(kept);
      ring_weight = kept_weight;
    }
  }

  // Every weighted demand met with capacity left (or only zero-weight
  // sessions exist): zero-weight stragglers drink from the leftovers via
  // plain water-filling. Anything still left after that is wasted — DRR
  // grants no idle bonus, unlike WorkConserving.
  if (remaining > 0.0) {
    leftover_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (demands.weight[i] <= 0.0 && demands.total(i) - shares[i] > 0.0) {
        leftover_.push_back(i);
      }
    }
    if (!leftover_.empty()) water_fill(remaining, demands, leftover_, shares);
  }
}

const char* to_string(SchedulerPolicy policy) noexcept {
  switch (policy) {
    case SchedulerPolicy::kEqualShare: return "equal-share";
    case SchedulerPolicy::kWorkConserving: return "work-conserving";
    case SchedulerPolicy::kProportionalFair: return "proportional-fair";
    case SchedulerPolicy::kWeightedPriority: return "weighted-priority";
    case SchedulerPolicy::kDeficitRoundRobin: return "deficit-round-robin";
  }
  return "?";
}

std::unique_ptr<EdgeScheduler> make_scheduler(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kEqualShare:
      return std::make_unique<EqualShareScheduler>();
    case SchedulerPolicy::kWorkConserving:
      return std::make_unique<WorkConservingScheduler>();
    case SchedulerPolicy::kProportionalFair:
      return std::make_unique<ProportionalFairScheduler>();
    case SchedulerPolicy::kWeightedPriority:
      return std::make_unique<WeightedPriorityScheduler>();
    case SchedulerPolicy::kDeficitRoundRobin:
      return std::make_unique<DeficitRoundRobinScheduler>();
  }
  throw std::invalid_argument("make_scheduler: unknown policy");
}

}  // namespace arvis
