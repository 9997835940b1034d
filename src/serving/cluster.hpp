// EdgeCluster: the serving runtime sharded across K independent links.
//
// The paper's controller is per-session and the single-link SessionManager
// scales the session count; the next scale axis is the *link*. An EdgeCluster
// owns K links — each with its own capacity stream, AdmissionController and
// EdgeScheduler — plus a PlacementPolicy that assigns every arriving session
// to a link. A session refused by its first-choice link may spill to the
// next-best link(s) before being refused outright. Once placed, a session
// lives entirely on its link: the paper's distributed-operation claim is
// untouched (controllers stay session-local; each link divides only its own
// capacity; the only new centralized act is the arrival-time placement).
//
// Cluster slot loop (EdgeCluster::step):
//   1. every link closes its departures (so arrivals see freed reservations
//      on any link);
//   2. the cluster places this slot's arrivals: rank links by the placement
//      policy, try admission in rank order (first choice, then up to
//      spill_limit spills), refuse when every tried link rejects; then
//      (2b) the handover policy migrates sessions between links. Steps 1-2b
//      are serial: they are the only acts that cross links;
//   3. shards: every link runs the rest of its slot loop — the memoized
//      decide engine, then schedule + drain with its own capacity draw — as
//      one index of a ParallelExecutor loop. A link's slot touches only that
//      link's state (the paper's controllers read only their own queue and
//      each link divides only its own capacity), so any thread count is
//      bit-identical to serial;
//   4. after the barrier, the per-link slot reports are summed in link order
//      into the cluster fleet view (the same additions in the same order for
//      any thread count).
//
// With K = 1 and round-robin placement the cluster reproduces
// run_serving_scenario bit for bit (tested): the single-link runtime is the
// K = 1 special case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/chunked_array.hpp"
#include "common/status.hpp"
#include "net/channel.hpp"
#include "serving/executor.hpp"
#include "serving/session_manager.hpp"

namespace arvis {

/// How arriving sessions are assigned to links.
enum class PlacementPolicy {
  /// Links in rotation, one step per arrival; spills continue the rotation.
  kRoundRobin,
  /// Link with the least reserved admission load first (ties: lowest index).
  kLeastLoaded,
  /// Link whose residual admissible capacity most tightly fits the session's
  /// cheapest-depth load (best fit); links that cannot fit rank after, by
  /// descending residual. Packs tight links first, preserving large holes
  /// for heavy sessions.
  kBestFit,
};

const char* to_string(PlacementPolicy policy) noexcept;

/// Live-migration handover control. When enabled, the cluster scores every
/// link's degradation each slot — the graded kLinkDegrade fault signal
/// (lost capacity fraction + reported per-slot delay) plus utilization
/// imbalance — and moves sessions off links whose score crosses
/// `enter_score` onto the healthiest link, mid-stream, carrying their hot
/// state (EdgeCluster::migrate_session). Enter/exit hysteresis plus a
/// per-session migration budget keep a flapping radio from ping-ponging
/// sessions. Free when disabled: one branch per slot.
struct HandoverPolicy {
  bool enabled = false;
  /// A link whose degradation score reaches this enters handover: its
  /// sessions start migrating off. Score = (1 - degrade scale)
  /// + delay_weight * reported delay + imbalance_weight * max(0,
  /// utilization - fleet mean utilization).
  double enter_score = 0.5;
  /// A link in handover whose score falls to or below this exits (the
  /// hysteresis band; must be < enter_score, validated).
  double exit_score = 0.2;
  /// Score contribution per slot of reported kLinkDegrade delay.
  double delay_weight = 0.1;
  /// Score contribution per unit of utilization excess over the fleet mean
  /// (0 = pure fault-signal scoring).
  double imbalance_weight = 0.0;
  /// Sessions migrated off a degraded link per slot (paces the drain so a
  /// handover is a stream, not a stampede).
  std::size_t max_migrations_per_slot = 4;
  /// Migrations one session may undergo within any `window_slots` window;
  /// the ping-pong guard (tested: a flapping radio cannot exceed it).
  std::size_t session_budget = 2;
  std::size_t window_slots = 64;
  /// Rebalance-on-departure: when a departure frees reserved capacity on a
  /// link below the fleet's mean load, migrate the worst-served (largest
  /// backlog) session from the most reserved link onto it — one per slot,
  /// same per-session budget.
  bool rebalance_on_departure = false;
};

/// Most links one cluster may run: the migration flight event packs
/// `reason·2^20 + from·2^10 + to` into one payload, so link ids must fit in
/// 10 bits to decode unambiguously.
inline constexpr std::size_t kMaxClusterLinks = 1024;

struct ClusterConfig {
  /// Per-link runtime configuration (scheduler policy, candidates, V,
  /// admission target). `serving.threads` sizes the cluster's shard
  /// executor; each link is one shard.
  ServingConfig serving;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  /// Extra links an arrival may try after its first choice rejects it
  /// (0 = no spill; 1 = the next-best link, the default).
  std::size_t spill_limit = 1;
  /// Mid-stream session migration (off by default — fault-free runs stay
  /// bit-identical).
  HandoverPolicy handover;
};

/// One session's cluster-level run record.
struct ClusterSessionOutcome {
  /// Link the session streamed on; -1 when refused or never arrived. For a
  /// failed-over session this is the *last* link it streamed on.
  int link = -1;
  /// Admitted by a link other than its first choice.
  bool spilled = false;
  /// False when the run ended before the session's arrival slot: placement
  /// never saw it, so it counts as neither admitted nor refused.
  bool arrived = false;
  /// Times the session was re-placed after its link went down.
  std::uint32_t failovers = 0;
  /// Times the session migrated between links mid-stream (completed
  /// migrations only; an aborted migration shows up as a failover once the
  /// displaced path re-places it).
  std::uint32_t migrations = 0;
  /// Ended by an outage: displaced with no surviving link taking it (or no
  /// lifetime left). `session` covers the window up to the eviction.
  bool fault_evicted = false;
  SessionOutcome session;
};

/// A rejected or fault-evicted session offered back to the driver's retry
/// loop. Produced only when the retry feed is enabled (enable_retry_feed);
/// `spec` is the live spec with its original absolute departure slot.
struct RetrySeed {
  /// Cluster session id the seed descends from (the driver tracks attempt
  /// counts across generations by this id).
  std::size_t session_id = 0;
  SessionSpec spec;
  /// True when an outage evicted the session mid-stream; false for a
  /// placement reject at arrival.
  bool fault_evicted = false;
};

/// Every cluster-level count, in one place. EdgeCluster bumps its ledger
/// where each event happens; ClusterMetrics, the driver's fault-plane
/// sample, the DriverReport migration triple and `live_stats.json` are all
/// read from it. The books balance exactly:
///   failover_displaced == failover_replaced + fault_evicted + fault_closed
///   migrations_requested == migrations_completed + migrations_aborted
/// (every displaced session is re-placed, evicted, or externally closed, and
/// every aborted migration re-enters the failover books through the
/// displaced path — nothing is stranded; tested).
struct ClusterLedger {
  /// Sessions admitted at arrival, on any link.
  std::size_t placed = 0;
  /// Sessions admitted via a non-first-choice link.
  std::size_t spills = 0;
  /// Sessions refused by every link they were offered to.
  std::size_t placement_rejects = 0;
  /// Link up→down transitions applied (a down on a downed link is a no-op
  /// and does not count).
  std::size_t link_down_events = 0;
  /// Link down→up transitions applied.
  std::size_t link_up_events = 0;
  /// Capacity-scale (fade/brownout) changes applied.
  std::size_t capacity_scale_events = 0;
  /// Graded kLinkDegrade events applied.
  std::size_t link_degrade_events = 0;
  /// Active sessions drained off a link when it went down, plus aborted
  /// migrations.
  std::size_t failover_displaced = 0;
  /// Displaced sessions re-admitted onto a surviving link.
  std::size_t failover_replaced = 0;
  /// Displaced sessions no surviving link would take (or with no lifetime
  /// left) — ended at the eviction slot.
  std::size_t fault_evicted = 0;
  /// Displaced sessions externally closed before re-placement.
  std::size_t fault_closed = 0;
  /// Mid-stream migrations attempted (policy-driven + explicit).
  std::size_t migrations_requested = 0;
  /// Migrations whose target link admitted the carried session.
  std::size_t migrations_completed = 0;
  /// Migrations the target refused — the session fell back to the
  /// displaced path (re-placement, eviction, or close).
  std::size_t migrations_aborted = 0;

  bool operator==(const ClusterLedger&) const = default;
};

/// Fleet view across all links: the end-of-run ledger plus the fleet
/// aggregates.
struct ClusterMetrics : ClusterLedger {
  std::size_t link_count = 0;
  /// Cluster-wide aggregates over every submitted session and the summed
  /// per-slot link capacities (for K = 1 this equals the single-link
  /// FleetMetrics bit for bit).
  FleetMetrics fleet;
  /// Each link's own fleet view (covers only sessions placed on that link).
  std::vector<FleetMetrics> per_link;
  /// Each link's admission counters (spill attempts count per link tried).
  std::vector<AdmissionStats> per_link_admission;
  /// Jain fairness of per-link capacity_used — how evenly the placement
  /// policy spread real work across links.
  double link_load_fairness = 0.0;
};

struct ClusterResult {
  std::vector<ClusterSessionOutcome> sessions;  // submission order
  ClusterMetrics metrics;
  /// Per-session report with link assignment.
  CsvTable session_table = CsvTable({"session"});
  /// Per-link rollup (placed/utilization/fairness inputs).
  CsvTable link_table = CsvTable({"link"});
};

/// The sharded serving runtime. Submit sessions up front (or between steps),
/// then drive it one slot at a time with one capacity draw per link;
/// finish() closes the books. Not thread-safe — one cluster per run; the
/// parallelism is inside step(), one shard per link.
class EdgeCluster {
 public:
  /// `link_mean_capacity_bytes[k]` calibrates link k's admission controller
  /// (ChannelModel::mean_capacity_bytes() of the stream that will drive it).
  /// Throws std::invalid_argument on zero links, more than kMaxClusterLinks
  /// links, or a bad serving config.
  EdgeCluster(const ClusterConfig& config,
              const std::vector<double>& link_mean_capacity_bytes);
  ~EdgeCluster();

  EdgeCluster(const EdgeCluster&) = delete;
  EdgeCluster& operator=(const EdgeCluster&) = delete;

  /// Registers a session; placement happens at its arrival slot. Returns the
  /// cluster-wide session id (submission index). Same spec validation as
  /// SessionManager::submit.
  std::size_t submit(const SessionSpec& spec);

  /// Advances one slot. `link_capacity_bytes` holds this slot's capacity for
  /// every link (size must equal link_count()).
  void step(const std::vector<double>& link_capacity_bytes);

  [[nodiscard]] std::size_t link_count() const noexcept {
    return links_.size();
  }
  [[nodiscard]] std::size_t slot() const noexcept { return slot_; }
  /// Sessions currently streaming, across all links.
  [[nodiscard]] std::size_t active_count() const noexcept;
  /// Link k's runtime (admission state, active count) — read-only.
  [[nodiscard]] const SessionManager& link(std::size_t k) const {
    return *links_.at(k);
  }

  // Running counters, readable mid-run (the event-driven driver samples
  // them for periodic metrics snapshots).
  /// Cluster-wide slot aggregates (summed capacity offered/used).
  [[nodiscard]] const ServerMetrics& metrics() const noexcept {
    return metrics_;
  }
  /// Every cluster-level count so far (placement, fault plane, migration).
  [[nodiscard]] const ClusterLedger& ledger() const noexcept {
    return ledger_;
  }

  // -- Fault plane -----------------------------------------------------
  /// Marks link `link` down (drains its active sessions into the failover
  /// queue; they re-enter placement on the next step) or back up (the link
  /// rejoins the placement rotation; sessions do NOT migrate back). Returns
  /// false for an out-of-range link or after finish(); a transition to the
  /// state the link is already in is a true no-op.
  bool set_link_state(std::size_t link, bool down);

  /// Scales link `link`'s admissible capacity (radio fade / brownout). The
  /// caller also scales the capacity it feeds step() for that link — the
  /// cluster applies the same factor to the admission controller so both
  /// planes agree. scale = 1 restores nominal. Returns false for an
  /// out-of-range link, a non-finite or negative scale, or after finish().
  bool set_link_capacity_scale(std::size_t link, double scale);

  /// Graded degradation (the kLinkDegrade fault verb): link `link` keeps
  /// `scale` of its capacity — the cluster folds the factor into the
  /// admission budget and its own effective-capacity computation, composing
  /// multiplicatively with set_link_capacity_scale — and reports `delay`
  /// slots of added per-slot latency, which feeds the HandoverPolicy
  /// degradation score (the capacity plane itself carries no delay, so the
  /// signal is observability + handover pressure, not throughput). scale = 1
  /// with delay = 0 restores nominal. Returns false for an out-of-range
  /// link, a non-finite or negative scale/delay, or after finish().
  bool set_link_degrade(std::size_t link, double scale, double delay);

  /// Mid-stream live migration: moves active session `session_id` onto
  /// `target_link`, carrying its hot SoA state (backlog, served-bytes EWMA,
  /// frame-row cursor) so its decide/drain sequence continues bit for bit
  /// on an equivalent link. On target refusal the session is NOT lost: it
  /// falls back to the displaced/failover path (counted in
  /// migrations_aborted) and re-enters placement next slot. Returns true
  /// only for a completed migration; false for an aborted one or invalid
  /// input (unknown/inactive session, bad/downed/same target, finished
  /// cluster — invalid input does not count as requested).
  bool migrate_session(std::size_t session_id, std::size_t target_link);

  [[nodiscard]] bool link_down(std::size_t link) const {
    return link_down_.at(link) != 0;
  }
  [[nodiscard]] double link_capacity_scale(std::size_t link) const {
    return link_scale_.at(link);
  }
  [[nodiscard]] double link_degrade_scale(std::size_t link) const {
    return link_degrade_scale_.at(link);
  }
  /// Reported per-slot delay of the last kLinkDegrade on `link` (0 nominal).
  [[nodiscard]] double link_delay(std::size_t link) const {
    return link_delay_.at(link);
  }
  /// True while the HandoverPolicy holds `link` in handover (its sessions
  /// are migrating off).
  [[nodiscard]] bool handover_active(std::size_t link) const {
    return handover_active_.at(link) != 0;
  }

  /// Turns on retry-seed collection: placement rejects and fault evictions
  /// append a RetrySeed instead of vanishing. The driver drains the feed via
  /// take_retry_feed and re-submits with backoff.
  void enable_retry_feed() noexcept { collect_retry_ = true; }
  [[nodiscard]] bool retry_feed_pending() const noexcept {
    return !retry_feed_.empty();
  }
  /// Appends the pending seeds to `out` (in production order) and clears the
  /// feed.
  void take_retry_feed(std::vector<RetrySeed>& out);

  /// Folds the cluster's SLO sample into `observation`: every link's
  /// per-tier counters and gauges (worst-link view — see
  /// SessionManager::accumulate_slo) plus the cumulative placement
  /// outcomes. Snapshot cadence only.
  void accumulate_slo(SloObservation& observation);

  /// Cross-checks every link's session store against its cold slab
  /// (SessionStore::validate); the first failure wins. For tests and the
  /// bench oracles — never part of the slot loop.
  [[nodiscard]] Status validate_stores() const {
    for (const auto& link : links_) {
      Status s = link->validate_store();
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  /// External-close control: ends session `session_id` at the current slot.
  /// A placed session closes on its link (trace covers [arrival, now)); a
  /// not-yet-arrived session is cancelled and reports as never-arrived.
  /// Returns false for unknown, already-closed, or refused ids.
  bool request_close(std::size_t session_id);

  /// Due slot of the earliest not-yet-placed submitted session, or
  /// kNeverDeparts when none are pending.
  [[nodiscard]] std::size_t next_pending_arrival_slot() const noexcept;

  /// Fast-forwards every link's slot clock across an idle stretch (no active
  /// sessions on any link). Same contract as
  /// SessionManager::skip_idle_slots: clamps at the earliest pending
  /// arrival, skipped slots offer no capacity, returns slots skipped.
  std::size_t skip_idle_slots(std::size_t max_slots);

  /// Closes every still-active session at the current slot and returns the
  /// full result. The cluster is spent afterwards (submit/step throw).
  ClusterResult finish();

 private:
  struct Entry;

  /// Outcome of one ranked try-admission pass (place_ranked).
  struct RankedPlacement {
    bool admitted = false;
    /// Admitting link and its rank position (0 = first choice).
    std::size_t link = 0;
    std::size_t rank = 0;
    /// Links the pass could try: min(surviving links, spill_limit + 1).
    std::size_t attempts = 0;
    /// Admitted: the admitting link's depth headroom. Refused: the best any
    /// tried link reported (0 when no link could be tried).
    int max_sustainable_depth = 0;
  };

  void place_arrivals();
  void place_displaced();
  void rank_links(const Entry& entry);
  /// Ranks the links for `entry` and tries admission under `runtime_id` in
  /// rank order: the first choice, then up to spill_limit spills.
  RankedPlacement place_ranked(const Entry& entry, std::size_t runtime_id);
  /// Queues `entry` (already out of its link's books) for re-placement.
  void displace(Entry& entry);
  /// Ends a displaced `entry` at the current slot as fault-evicted.
  void fault_evict(Entry& entry);
  /// The HandoverPolicy slot pass: score links, update hysteresis state,
  /// drain sessions off links in handover, and (when configured) rebalance
  /// one worst-served session onto a link a departure just freed. Runs
  /// between placement and the shard loop; called only when the policy is
  /// enabled.
  void evaluate_handover();
  /// Shared migration mechanics behind migrate_session and the policy
  /// paths. `reason`: 0 = degraded-link handover, 1 = rebalance-on-
  /// departure, 2 = explicit call (the kMigration flight encoding).
  bool do_migrate(std::size_t session_id, std::size_t target_link,
                  unsigned reason);
  /// Mints a fresh per-link session id for a failover segment and records
  /// its owning entry. Re-placement cannot reuse the entry id: a session that
  /// bounces back onto a link it streamed on earlier would collide with its
  /// own retired id in that link's books.
  std::size_t mint_runtime_id(std::size_t entry_id);
  [[nodiscard]] std::size_t owner_of(std::size_t runtime_id) const;

  ClusterConfig config_;
  /// Runs the per-link shards of step(); at most min(threads, links) of its
  /// workers are busy in a slot.
  ParallelExecutor executor_;
  std::vector<std::unique_ptr<SessionManager>> links_;
  /// Submission order (index = id); entries never move, and only the
  /// submit that opens a chunk allocates.
  ChunkedArray<Entry, 1024> entries_;
  // Not-yet-arrived entry indices, sorted by (due slot, id); the prefix
  // before pending_head_ has been consumed (same O(arrivals due) scheme as
  // SessionManager).
  std::vector<std::size_t> pending_;
  std::size_t pending_head_ = 0;
  std::size_t rr_cursor_ = 0;
  ServerMetrics metrics_;  // cluster-wide slot + session aggregates
  std::size_t slot_ = 0;
  bool finished_ = false;
  ClusterLedger ledger_;
  // Scratch reused across slots.
  std::vector<std::size_t> rank_;
  /// Each shard's slot report, written by its own executor index.
  std::vector<SessionManager::SlotReport> reports_;
  // -- Fault plane (all vectors preallocated; idle cost is one branch per
  // link per slot and a ×1.0 capacity multiply, which is bitwise identity) --
  std::vector<std::uint8_t> link_down_;  // 1 = down
  std::vector<double> link_scale_;       // admission/capacity scale, 1 = nominal
  std::vector<double> caps_scratch_;     // effective per-link capacity this slot
  std::vector<std::size_t> displaced_;   // entry ids awaiting re-placement
  std::vector<EvictedSession> evict_scratch_;
  // Failover runtime ids are kFailoverIdBase + index into this owner map.
  std::vector<std::size_t> failover_owner_;
  bool collect_retry_ = false;
  std::vector<RetrySeed> retry_feed_;
  // -- Handover / live migration (vectors preallocated at construction;
  // with the policy off the slot loop pays one branch, and the degrade
  // factor folds into link_effective_scale_ at fault edges, so the
  // fault-free capacity math is untouched bit for bit) --------------------
  std::vector<double> link_degrade_scale_;  // kLinkDegrade scale, 1 = nominal
  std::vector<double> link_delay_;          // reported per-slot delay
  /// link_scale_ × link_degrade_scale_, the factor both the admission
  /// budget and the per-slot capacity math consume (recomputed only at
  /// fault edges).
  std::vector<double> link_effective_scale_;
  std::vector<std::uint8_t> handover_active_;  // hysteresis state, 1 = in
  std::vector<double> handover_score_;         // scratch: per-link score
  std::vector<double> prev_reserved_;  // reserved load before begin_slot
  /// Scratch: (backlog, runtime id) candidates of the link being drained.
  std::vector<std::pair<double, std::size_t>> migrate_scratch_;
  // Telemetry (see session_manager.hpp for the null-pointer cost model).
  // Links carry their own per-link instruments (tid = link index), each
  // written only by that link's shard; these are the cluster-level ones,
  // written only by the serial steps: placement outcomes under "cluster/",
  // spans on the kClusterTid lane.
  PhaseTracer* tracer_ = nullptr;
  TelemetryCounter* c_placed_ = nullptr;
  TelemetryCounter* c_spills_ = nullptr;
  TelemetryCounter* c_rejects_ = nullptr;
  /// Cluster-level flight events (spill/refusal on the kClusterTid lane);
  /// the links record their own admit/reject/close events.
  FlightRecorder* flight_ = nullptr;
};

/// Convenience one-shot mirroring run_serving_scenario: submits `specs`,
/// steps `config.serving.steps` slots drawing every link's capacity from its
/// channel (`channels[k]` drives link k; all non-null), and finishes. A thin
/// wrapper over an EventLoop in fixed-horizon mode (defined in
/// serving/driver/event_loop.cpp).
ClusterResult run_cluster_scenario(const ClusterConfig& config,
                                   const std::vector<SessionSpec>& specs,
                                   const std::vector<ChannelModel*>& channels);

}  // namespace arvis
