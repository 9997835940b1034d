// The multi-session edge serving runtime.
//
// Owns the session lifecycle the seed's per-bench loops could not express:
// sessions arrive mid-run (through admission control), stream for a window,
// and depart, while a pluggable scheduler divides each slot's link capacity
// and every session's depth decisions stay purely local (the paper's
// distributed-operation claim survives intact — the only centralized pieces
// are the link dividing its own capacity and the edge refusing sessions that
// cannot fit its stability region).
//
// Slot loop (SessionManager::step):
//   1. close this slot's departures, then admit its arrivals (so a
//      same-slot arrival sees the freed link reservation);
//   2. decide: every active session runs its own controller on local state
//      (the memoized engine: one argmax per distinct decide key);
//   3. schedule: the EdgeScheduler divides the slot's capacity;
//   4. drain: queues advance, per-session tallies and fleet metrics record.
//
// Data layout (the hot-path contract): sessions live in the SessionStore's
// stable-index slab, and the per-slot fields the three phases touch are
// mirrored into dense struct-of-arrays vectors indexed by the active list —
// decide is a flattened argmax over precomputed candidate rows, schedule
// consumes the SoA spans directly (no demand-struct copy-in), drain walks
// the same arrays. See session_store.hpp; bench_hot_path measures the
// resulting ns/session·slot and its --smoke oracle asserts the layout is
// behaviour-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "net/channel.hpp"
#include "serving/admission.hpp"
#include "serving/metrics.hpp"
#include "serving/scheduler.hpp"
#include "serving/session_store.hpp"
#include "serving/telemetry/flight_recorder.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/slo.hpp"
#include "serving/telemetry/tracer.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"

namespace arvis {

/// Brownout degradation: under overload or reduced capacity the manager
/// lowers the per-QoS quality ceiling (restricting each session's decide
/// candidate set to a prefix) *before* admission starts hard-rejecting —
/// everyone streams a little worse instead of newcomers streaming not at
/// all. Transitions are hysteretic (enter above one utilization, exit below
/// a lower one) and recorded as flight events, so the SLO quality-floor spec
/// and the black box both see them. Free when disabled: one branch per slot.
struct DegradationPolicy {
  bool enabled = false;
  /// Enter brownout when reserved load / scaled admissible capacity reaches
  /// this fraction. Must exceed exit_utilization.
  double enter_utilization = 0.98;
  /// Exit brownout when utilization falls back to this fraction.
  double exit_utilization = 0.85;
  /// Candidates shaved off the top of each tier's set during brownout
  /// (0 = best-effort, 1 = standard, 2 = premium). Clamped so at least
  /// min_candidates survive.
  std::size_t tier_drop[kSloTiers] = {3, 2, 1};
  /// Floor on every tier's brownout candidate count. >= 1.
  std::size_t min_candidates = 1;
};

/// A session forcibly evicted by the fault plane (its link went down),
/// reported to the caller for failover re-placement. `spec` is the live
/// spec: the departure slot reflects any external close applied since
/// admission.
struct EvictedSession {
  std::size_t id = 0;
  SessionSpec spec;
};

struct ServingConfig {
  std::size_t steps = 800;
  std::vector<int> candidates{5, 6, 7, 8, 9, 10};
  SchedulerPolicy policy = SchedulerPolicy::kWorkConserving;
  /// Tradeoff knob V of every session's Lyapunov controller (byte domain —
  /// calibrate with calibrate_streaming_v).
  double v = 0.0;
  AdmissionConfig admission;
  /// Shard workers of an EdgeCluster: each link runs its whole slot loop
  /// (decide, schedule, drain) as one shard, so at most min(threads, links)
  /// workers are busy; 1 = serial, 0 = all cores. A lone SessionManager is
  /// one shard and always runs serially. Results are bit-identical for any
  /// value.
  std::size_t threads = 1;
  /// Averaging window (slots) of the per-session served-bytes EWMA fed to
  /// the proportional-fair scheduler: alpha = 1 / window. 0 (default)
  /// disables the history signal — proportional-fair then weighs
  /// instantaneous demand, the legacy behaviour, bit for bit. Must be 0 or
  /// >= 1.
  double pf_ewma_window = 0.0;
  /// Observability wiring (off by default — and free when off: the
  /// instrumentation points are null checks and slot-boundary counter
  /// bumps, never per-session work). See serving/telemetry/.
  TelemetryConfig telemetry;
  /// Brownout degradation policy (off by default; requires admission
  /// enabled to observe utilization).
  DegradationPolicy degradation;
  /// Per-slot traces: kNone (default) keeps only the streaming tallies the
  /// summaries are built from; kAll also fills SessionOutcome::trace.
  /// Summaries, fleet metrics and SLO samples are bit-identical either way.
  TraceMode trace_mode = TraceMode::kNone;
};

/// One session's run record.
struct SessionOutcome {
  std::size_t id = 0;
  bool admitted = false;
  /// Slot the session actually became active. Equals the spec's
  /// arrival_slot unless the spec was submitted between steps with an
  /// already-elapsed arrival, in which case it arrived at submission time.
  std::size_t arrival_slot = 0;
  /// Actual last-active bound (run end for sessions that never departed).
  std::size_t departure_slot = 0;
  double weight = 1.0;
  /// Depth headroom the admission controller saw at arrival.
  int max_sustainable_depth = 0;
  /// Slots the session actually streamed (0 when rejected or never
  /// arrived); equals trace.size() under TraceMode::kAll.
  std::size_t slots = 0;
  /// True when `summary` is populated (admitted and streamed >= 1 slot);
  /// computed once at finish() so consumers need not re-summarize. Sessions
  /// active < 8 slots carry a partial summary (summary.partial) whose means
  /// are valid but whose stability verdict is reported as "too-short".
  bool has_summary = false;
  TraceSummary summary;
  /// Per-slot record over the active window. Empty unless the run used
  /// ServingConfig::trace_mode = TraceMode::kAll (and when rejected).
  Trace trace;
};

struct ServingResult {
  std::vector<SessionOutcome> sessions;  // in submission order
  AdmissionStats admission;
  FleetMetrics fleet;
  /// Per-session report table (ServerMetrics::session_table()).
  CsvTable session_table = CsvTable({"session"});
};

/// The serving runtime. Submit sessions up front (or between steps), then
/// drive it one slot at a time; finish() closes the books. Not thread-safe —
/// one manager per run. A manager is one link, i.e. one shard of an
/// EdgeCluster, and runs its slot loop on the calling thread.
class SessionManager {
 public:
  /// `mean_capacity_bytes` calibrates admission (ChannelModel::
  /// mean_capacity_bytes() of the link the run will use). Throws
  /// std::invalid_argument on an empty or non-ascending candidate set,
  /// steps == 0, or a bad admission config.
  SessionManager(const ServingConfig& config, double mean_capacity_bytes);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Registers a session; it stays pending until its arrival slot, when
  /// admission decides. Returns the session id (submission index). Throws
  /// std::invalid_argument on a null cache, a candidate outside the cache's
  /// depth range, or departure <= arrival.
  std::size_t submit(const SessionSpec& spec);

  /// Advances one slot, consuming `capacity_bytes` of link capacity.
  /// Equivalent to begin_slot() + decide_phase() +
  /// finish_slot(capacity_bytes).
  void step(double capacity_bytes);

  // --- Phase API -----------------------------------------------------------
  // step() split open so an external driver (EdgeCluster) can interleave the
  // phases of several links: close/admit on every link, place cross-link
  // arrivals serially, then run each link's decide_phase() + finish_slot()
  // as one shard on the cluster's executor. Call order per slot:
  // begin_slot() [+ try_place()*] -> decide_phase() -> finish_slot().
  // step() composes exactly these. Between begin_slot() and the barrier
  // after finish_slot(), a link touches only its own state.

  /// Link-level outcome of one slot, returned by finish_slot() so external
  /// drivers can aggregate fleet metrics across links.
  struct SlotReport {
    double capacity_offered = 0.0;
    /// Bytes that actually drained queues (never exceeds offered).
    double capacity_used = 0.0;
    std::size_t active_sessions = 0;
  };

  /// Closes this slot's departures, then admits its due internal arrivals
  /// (so a same-slot arrival sees the freed link reservation).
  void begin_slot();

  /// Active sessions this slot (the width of the decide phase).
  [[nodiscard]] std::size_t decide_width() const noexcept {
    return store_.active_count();
  }

  /// The decide phase: every active session's local controller for this
  /// slot, through the store's incremental memoized engine (group by exact
  /// inputs, blocked argmax per distinct key, fan out). Bit-identical to the
  /// scalar per-session kernel SessionStore::decide (asserted by the
  /// bench_hot_path oracle and the store-level memo tests).
  void decide_phase() {
    const PhaseSpan span(tracer_, Phase::kDecide, slot_, tid_);
    store_.decide_all();
    // Memoization outcome, sampled once per decide (never per session).
    if (c_decide_reuse_ != nullptr && store_.active_count() > 0) {
      (store_.last_decide_reused_groups() ? c_decide_reuse_
                                          : c_decide_rebuild_)
          ->add(1);
      h_decide_groups_->record(
          static_cast<double>(store_.last_decide_groups()));
    }
  }

  /// Schedules the slot's capacity over the store's SoA spans, drains
  /// queues, records metrics, and advances the slot clock.
  SlotReport finish_slot(double capacity_bytes);

  /// External-placement hook (EdgeCluster): runs this link's admission on
  /// `spec` right now. On accept the session is created *active at the
  /// current slot* under the caller-assigned `session_id`. On reject
  /// nothing is recorded beyond admission stats — the caller may spill the
  /// session to another link.
  /// Same validation as submit(). Call between begin_slot() and the decide
  /// phase.
  AdmissionDecision try_place(const SessionSpec& spec, std::size_t session_id);

  /// The link's admission state (reserved load / residual capacity), for
  /// external placement policies.
  [[nodiscard]] const AdmissionController& admission() const noexcept {
    return admission_;
  }
  /// Cheapest-depth load a session streaming `cache` reserves on admission
  /// here, read from the admission memo (best-fit placement ranks by it).
  [[nodiscard]] double cheapest_load(const FrameStatsCache& cache) {
    return admission_.cheapest_load(cache, config_.candidates);
  }

  /// External-close control: ends session `session_id` at the current slot.
  /// An active session departs before this slot streams (its trace covers
  /// [arrival, now)); a still-pending session is cancelled and reports as
  /// never-arrived. Returns false for unknown or already-closed ids, true
  /// when the close/cancel took effect. Call between slots or before the
  /// decide phase (the driver fires close events before stepping the slot).
  bool request_close(std::size_t session_id);

  /// The spec checks submit()/try_place() apply (null cache, candidate
  /// range, window ordering, elapsed departure, negative or non-finite
  /// weight). Public so external drivers validate at their own door with the
  /// same rules instead of re-implementing them. Throws
  /// std::invalid_argument.
  void validate_spec(const SessionSpec& spec) const;

  // --- Fault plane -----------------------------------------------------------

  /// Force-closes every active session at the current slot (the link went
  /// down), appending each one's id and live spec to `out` so the caller can
  /// re-place them elsewhere. Pending internal arrivals stay pending — a
  /// recovered link admits them normally. Admission reservations are
  /// released; lifetimes are recorded like ordinary closes. Returns the
  /// number evicted. Allocation only when `out` grows — a fault edge, never
  /// steady-state work.
  std::size_t evict_all_active(std::vector<EvictedSession>& out);

  // --- Live migration --------------------------------------------------------

  /// A session pulled out of this link mid-stream for live migration: the
  /// live spec plus the hot SoA state its decide/drain continuity needs.
  struct MigratedSession {
    std::size_t id = 0;
    SessionSpec spec;
    HotSessionState hot;
  };

  /// Live-migration extraction: captures active session `session_id`'s live
  /// spec and hot state into `out`, then retires it from this link exactly
  /// like an eviction (admission reservation released, lifetime recorded,
  /// kClose flight event). Returns false when the id is not active here —
  /// pending and closed sessions cannot migrate. A handover edge, never
  /// steady-state work.
  bool extract_session(std::size_t session_id, MigratedSession& out);

  /// Live-migration injection: the same admission gate as try_place, but on
  /// accept the session resumes with its carried hot state (backlog, EWMA,
  /// frame-row cursor) instead of starting a fresh stream — its decide
  /// sequence continues bit for bit when source and target links are
  /// equivalent. The candidate ceiling is *this* link's brownout state, not
  /// the source's. Call between begin_slot() and the decide phase.
  AdmissionDecision place_migrated(const MigratedSession& migrated,
                                   std::size_t session_id);

  /// Active session i's runtime id — the handover candidate scan, paired
  /// with the index-parallel active_backlogs() span.
  [[nodiscard]] std::size_t active_session_id(std::size_t i) const noexcept {
    return store_.active_session(i).id;
  }
  /// The active fleet's backlog mirror (index-parallel with the ids above).
  [[nodiscard]] std::span<const double> active_backlogs() const noexcept {
    return store_.backlogs();
  }

  /// Fault-plane capacity scaling: multiplies the admission budget (and the
  /// brownout utilization denominator) by `scale`. 1.0 restores nominal
  /// capacity and is the bitwise identity. Throws std::invalid_argument on a
  /// non-finite or negative scale.
  void set_capacity_scale(double scale);
  [[nodiscard]] double capacity_scale() const noexcept {
    return admission_.capacity_scale();
  }

  /// True while the degradation policy has the quality ceilings lowered.
  [[nodiscard]] bool brownout_active() const noexcept { return brownout_; }
  /// Brownout windows entered over the run.
  [[nodiscard]] std::size_t brownout_enters() const noexcept {
    return brownout_enters_;
  }

  /// Slots elapsed.
  [[nodiscard]] std::size_t slot() const noexcept { return slot_; }
  /// Sessions currently streaming.
  [[nodiscard]] std::size_t active_count() const noexcept;
  [[nodiscard]] const AdmissionStats& admission_stats() const noexcept;

  /// Running slot/session aggregates, readable mid-run (the event-driven
  /// driver samples them for periodic metrics snapshots).
  [[nodiscard]] const ServerMetrics& metrics() const noexcept {
    return metrics_;
  }

  /// Folds this link's SLO sample into `observation`: per-tier cumulative
  /// admission counters, active counts, the link-exact p95 of the
  /// backlog-age proxy (backlog · active / mean link capacity — slots of
  /// queued work at a fair share), and the delivered-quality floor over
  /// active sessions. Additive (merge_slo_sample semantics), so a cluster
  /// calls it once per link and gets the worst-link gauge view. Snapshot
  /// cadence only — O(active log active), never part of the slot loop; it
  /// reads the store's hot mirrors (QoS tier, tally) and never the cold
  /// slab.
  void accumulate_slo(SloObservation& observation);

  /// Cross-checks the session store's SoA mirrors against the cold slab
  /// (SessionStore::validate). O(active + slab), callable mid-run between
  /// phases — tests and the bench oracles call it at checkpoints; it is
  /// never part of the slot loop.
  [[nodiscard]] Status validate_store() const { return store_.validate(); }

  /// Fast-forwards the slot clock across an idle stretch: no sessions are
  /// active, so the skipped slots would only have drawn and wasted capacity.
  /// Skipped slots offer no capacity and record no metrics — an event-driven
  /// server does not burn link time while nobody streams. Clamps at the
  /// earliest pending internal arrival's due slot and returns the slots
  /// actually skipped. Throws std::logic_error when sessions are active or
  /// the manager is finished.
  std::size_t skip_idle_slots(std::size_t max_slots);

  /// Closes every still-active session at the current slot and returns the
  /// full result. The manager is spent afterwards (submit/step throw).
  ServingResult finish();
  /// finish() without the per-session table (session_table stays at its
  /// one-column default): the close a cluster runs on each link, whose
  /// tables it never reads — it builds its own from the outcomes.
  ServingResult finish_link();

 private:
  void admit_arrivals();
  void close_departures();
  /// Ends active session `s` at the current slot: phase, departure slot,
  /// admission release, the closed counter + lifetime histogram and the
  /// kClose flight event. Every mid-run close (departure, eviction,
  /// migration extract) goes through here.
  void retire(ServingSession& s);
  void activate(ServingSession& s);
  void register_telemetry();
  void evaluate_brownout();

  ServingConfig config_;
  /// Mean link capacity admission calibrated against; the SLO sampler's
  /// service-rate proxy for the backlog-age gauge.
  double mean_capacity_bytes_ = 0.0;
  AdmissionController admission_;
  std::unique_ptr<EdgeScheduler> scheduler_;
  /// The session arena: cold slab + hot SoA mirrors (see session_store.hpp).
  SessionStore store_;
  // Not-yet-arrived sessions, sorted by (due slot, id); the prefix before
  // pending_head_ has been consumed. Keeps the per-slot arrival scan at
  // O(arrivals due) instead of O(all sessions ever submitted).
  std::vector<ServingSession*> pending_;
  std::size_t pending_head_ = 0;
  ServerMetrics metrics_;
  std::size_t slot_ = 0;
  bool finished_ = false;
  // Scratch reused across slots.
  std::vector<double> shares_;

  // Telemetry. tracer_ is null unless full tracing is on (a PhaseSpan over a
  // null tracer is one branch); the handle pointers are null unless counters
  // are on, so the hot path pays one predictable check per instrumentation
  // point. Handles are registered once at construction under "link<tid>/".
  PhaseTracer* tracer_ = nullptr;
  std::uint32_t tid_ = 0;
  TelemetryCounter* c_slots_ = nullptr;
  TelemetryCounter* c_adm_accept_ = nullptr;
  TelemetryCounter* c_adm_reject_ = nullptr;
  TelemetryCounter* c_closed_ = nullptr;
  TelemetryCounter* c_decide_reuse_ = nullptr;
  TelemetryCounter* c_decide_rebuild_ = nullptr;
  TelemetryCounter* c_sched_fast_ = nullptr;
  TelemetryCounter* c_sched_generic_ = nullptr;
  TelemetryHistogram* h_decide_groups_ = nullptr;
  TelemetryHistogram* h_active_ = nullptr;
  TelemetryHistogram* h_slot_used_ = nullptr;
  TelemetryHistogram* h_lifetime_ = nullptr;
  // Last-flushed scheduler stats (registry counters get per-slot deltas).
  std::uint64_t sched_fast_seen_ = 0;
  std::uint64_t sched_generic_seen_ = 0;

  // Flight recorder (default ON — resolve_flight_recorder falls back to the
  // process-global ring). record() is a relaxed fetch_add plus six plain
  // stores and fires only at lifecycle edges and slot-phase transitions,
  // never per session·slot, so it lives inside the existing allocation
  // probes and hot-path budget (bench_hot_path --slo measures the A/B).
  FlightRecorder* flight_ = nullptr;
  /// Whether the previous slot's schedule took the generic path — the
  /// fast->generic transition edge is a flight event.
  bool last_slot_generic_ = false;

  // SLO accounting: cumulative per-tier admission outcomes (both internal
  // arrivals and external placements) and the snapshot-time delay scratch
  // ([tier 0..2] + [all tiers]).
  std::uint64_t tier_accepted_[kSloTiers] = {};
  std::uint64_t tier_rejected_[kSloTiers] = {};
  std::vector<double> slo_scratch_[kSloTiers + 1];

  // Brownout degradation state. The limit scratch is preallocated at
  // construction so transitions allocate nothing.
  bool brownout_ = false;
  std::size_t brownout_enters_ = 0;
  std::vector<std::uint32_t> tier_limit_scratch_;
  TelemetryCounter* c_brownout_ = nullptr;
};

/// Convenience one-shot: submits `specs`, steps `config.steps` slots drawing
/// capacity from `channel`, and finishes — the plain submit/step/finish
/// loop. The usual entry point for benches, examples and the multi-device
/// ensemble tests; the K = 1 round-robin cluster on the EventLoop reproduces
/// it bit for bit (tested).
ServingResult run_serving_scenario(const ServingConfig& config,
                                   const std::vector<SessionSpec>& specs,
                                   ChannelModel& channel);

}  // namespace arvis
