// Per-slot link capacity allocation among concurrent serving sessions.
//
// The policy is the one piece of the edge that is centralized — devices stay
// fully distributed, the link merely divides its own capacity — so it is
// pluggable. All policies are functionally stateless per slot (they may keep
// scratch buffers so steady-state allocation stays zero, but no decision
// depends on a previous slot) and must uphold two invariants, checked by
// tests:
//   * shares[i] >= 0 for all i,
//   * sum(shares) <= capacity (+ float slack).
//
// The kernels consume *flat per-field arrays* (SchedulerInput spans over the
// session store's SoA mirrors) so the schedule phase walks contiguous
// memory with no per-session struct copy-in.
//
// Steady-state cost is kept proportional to what changed, not to the
// population, wherever that is possible without perturbing a single bit.
// No policy sorts the sessions: weighted-priority's tier permutation is a
// linear counting partition over the distinct weights, and the input's
// O(changed) aggregate hints (membership generation, weight uniformity),
// maintained by the session store at lifecycle edges, only let it skip that
// rebuild while membership holds still or all weights are equal; the
// multi-round policies run a fused first round over the implicit full index
// range (no index-list materialization, no zero-fill pass) that reproduces
// the generic round's arithmetic operation for operation; DRR initializes
// deficit residue for ring members only. Incrementally-maintained floating
// point *sums* are deliberately absent: they round differently from the
// canonical left-to-right pass, and every fast path here must be (and is,
// tested) bit-identical to the reference algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace arvis {

/// One slot's demand set as flat per-field spans (SoA), index-parallel.
struct SchedulerInput {
  /// Queue backlog Q(t) at slot start (bytes).
  std::span<const double> backlog;
  /// Bytes enqueued this slot, a(d(t)).
  std::span<const double> arrivals;
  /// Relative priority (>= 0; only weighted policies look at it).
  std::span<const double> weight;
  /// EWMA of bytes actually served per slot (>= 0), maintained by the
  /// session manager when ServingConfig::pf_ewma_window > 0. Either EMPTY —
  /// no history for anyone, the default: proportional-fair then weighs
  /// instantaneous demand — or full-length with history for every session.
  std::span<const double> ewma_throughput;

  // O(changed) aggregate hints, maintained by the session store at lifecycle
  // edges (never by a per-slot pass). Pure accelerators: every policy
  // produces bit-identical shares with or without them.
  //
  /// Monotone generation of the active-set membership behind these spans.
  /// Nonzero generations promise: equal generation (from the same caller) ⇒
  /// identical session set in identical index order with identical weights,
  /// so policies may cache cross-slot structure (weighted-priority's
  /// tier permutation) keyed on it. 0 (the default) = uncacheable —
  /// rebuild every call.
  std::uint64_t membership_generation = 0;
  /// True promises that every weight has the same bit pattern. The default
  /// false promises nothing and takes the general path.
  bool uniform_weights = false;

  [[nodiscard]] std::size_t size() const noexcept { return backlog.size(); }
  /// Most session i could drain this slot.
  [[nodiscard]] double total(std::size_t i) const noexcept {
    return backlog[i] + arrivals[i];
  }
};

/// Always-on dispatch accounting, kept as plain cumulative uint64s (one or
/// two adds per allocate — slot granularity, free by the smoke budget). The
/// session manager samples per-slot deltas into the telemetry registry.
struct SchedulerStats {
  /// Span-kernel allocate() invocations.
  std::uint64_t calls = 0;
  /// Slots served entirely by a fused / cached / uniform fast path.
  std::uint64_t fast_path = 0;
  /// Slots that fell through to the generic multi-round algorithm.
  std::uint64_t generic = 0;
};

/// Interface: divides one slot's link capacity among sessions.
class EdgeScheduler {
 public:
  virtual ~EdgeScheduler() = default;

  /// Writes shares[i] = bytes granted to session i (resizes `shares`).
  /// `capacity` >= 0. Implementations never allocate more than `capacity`
  /// in total; whether capacity beyond a session's demand is wasted or
  /// redistributed is the policy's defining choice. The spans must stay
  /// valid for the duration of the call only.
  virtual void allocate(double capacity, const SchedulerInput& demands,
                        std::vector<double>& shares) = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Cumulative dispatch accounting since construction.
  [[nodiscard]] const SchedulerStats& stats() const noexcept { return stats_; }

 protected:
  SchedulerStats stats_;
};

/// capacity / N to every session regardless of demand; unused share wasted
/// (TDMA-like).
class EqualShareScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;
  [[nodiscard]] std::string name() const override { return "equal-share"; }
};

/// Equal split, but shares unused by under-demanding sessions are
/// redistributed to backlogged ones (iterated to a fixpoint, i.e. full
/// water-filling — the seed ran a single redistribution round). Work
/// conserving: while any session's demand is unmet, no capacity is wasted.
class WorkConservingScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;
  [[nodiscard]] std::string name() const override { return "work-conserving"; }

 private:
  std::vector<std::size_t> scratch_;  // reused across slots: no per-slot allocs
};

/// Shares proportional to weight * demand, capped at demand, with the
/// surplus re-divided among still-unsatisfied sessions (iterated). Sessions
/// with larger queues drain proportionally faster, which equalizes sojourn
/// times across heterogeneous content.
///
/// When demands carry an EWMA throughput history (a non-empty
/// ewma_throughput span, fed by the session manager's pf_ewma_window knob)
/// the offer becomes true
/// proportional fairness: weight * demand / (1 + historical throughput), so
/// a session that has been drinking from the link for many slots yields to
/// one that has been starved, instead of the instantaneous-demand split that
/// lets a heavy backlog monopolize the link forever.
class ProportionalFairScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;
  [[nodiscard]] std::string name() const override {
    return "proportional-fair";
  }

 private:
  std::vector<std::size_t> scratch_;  // reused across slots: no per-slot allocs
};

/// Strict priority tiers by descending weight: each tier water-fills the
/// remaining capacity before any lower tier sees a byte. Within a tier,
/// equal-split water-filling. Starvation of low tiers under overload is the
/// intended behaviour (premium sessions).
///
/// The tier order is the index permutation sorted by (weight descending,
/// index ascending), split where adjacent weights differ by more than a
/// relative epsilon — never by exact `double ==`, so weights that should be
/// equal but were produced by different arithmetic paths (0.1 + 0.2 vs 0.3)
/// land in one tier instead of silently forming a phantom priority level.
/// rebuild_tiers() builds that permutation without sorting the sessions: a
/// stable counting partition over the k distinct weight values (found with
/// an open-addressed table, sorted among themselves — k is 1–3 for QoS
/// classes), then tier bounds from merging adjacent distinct values, O(k).
/// The whole rebuild is O(n + k log k) and reuses member scratch, so a slot
/// that rebuilds still allocates nothing. The permutation is cached while
/// the caller's membership_generation holds still; under churn the
/// generation moves almost every slot and the rebuild runs every slot.
/// Rebuilds still count as stats().generic (the `scheduler_generic` registry
/// counter) and reuses as fast_path, so the fast-path ratio keeps its
/// meaning: the share of slots that skipped the rebuild. A fleet hinted
/// uniform (uniform_weights) skips the partition altogether — one water-fill
/// over everyone, which is exactly what the partition degenerates to when
/// all weights are equal.
class WeightedPriorityScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;
  [[nodiscard]] std::string name() const override {
    return "weighted-priority";
  }

 private:
  void rebuild_tiers(const SchedulerInput& demands);

  std::vector<std::size_t> perm_;  // reused across slots: no per-slot allocs
  std::vector<std::size_t> tier_;
  // Cached tier structure: valid while cached_generation_ matches the
  // caller's nonzero membership generation (and n is unchanged).
  std::vector<std::pair<std::size_t, std::size_t>> tier_bounds_;
  std::uint64_t cached_generation_ = 0;
  // rebuild_tiers() scratch: the open-addressed table of bucket ids, each
  // bucket's weight and fill cursor, each session's bucket, and the buckets
  // in descending weight order.
  std::vector<std::uint32_t> table_;
  std::vector<double> bucket_value_;
  std::vector<std::size_t> bucket_fill_;
  std::vector<std::uint32_t> bucket_of_;
  std::vector<std::uint32_t> order_;
};

/// Deficit round-robin, byte-granular: each round every positive-weight
/// session's deficit counter is topped up by its weighted quantum
/// (capacity * weight / Σweights) and the session drains up to its deficit,
/// visited in rotation order. The outcome is weighted max-min (unlike
/// WorkConserving's weight-blind split, ProportionalFair's demand-
/// proportional split, or WeightedPriority's strict tiers); the rotation
/// cursor advances one position per slot so the quantization residue —
/// whoever is visited first when capacity runs dry mid-round — does not
/// favour a fixed index. The cursor is the policy's only cross-slot state
/// and is deterministic, so runs stay bit-reproducible for any thread count.
/// Zero-weight sessions are served from leftovers only (plain water-fill
/// after every weighted demand is met).
class DeficitRoundRobinScheduler final : public EdgeScheduler {
 public:
  void allocate(double capacity, const SchedulerInput& demands,
                std::vector<double>& shares) override;
  [[nodiscard]] std::string name() const override {
    return "deficit-round-robin";
  }

 private:
  std::size_t cursor_ = 0;
  // Reused across slots: no per-slot allocs.
  std::vector<std::size_t> ring_;
  std::vector<std::size_t> leftover_;
  std::vector<double> deficit_;
};

/// The pluggable policies by name (for configs and benches).
enum class SchedulerPolicy {
  kEqualShare,
  kWorkConserving,
  kProportionalFair,
  kWeightedPriority,
  kDeficitRoundRobin,
};

const char* to_string(SchedulerPolicy policy) noexcept;

std::unique_ptr<EdgeScheduler> make_scheduler(SchedulerPolicy policy);

}  // namespace arvis
