// SessionStore: the serving runtime's session arena, its hot-path data
// layout, and the incremental decide engine.
//
// The slot loop's cost has two components. PR 4 attacked *memory traffic*:
// the store separates a session's cold slab record (spec, queue statistics,
// trace) from dense struct-of-arrays mirrors of exactly the
// fields the decide/schedule/drain phases read every slot, so each phase is
// a linear walk over contiguous doubles. This PR attacks *redundant
// arithmetic*: in a dense fleet thousands of sessions share one flattened
// decide table and bit-identical backlogs, so re-running the same argmax per
// session is pure waste. The decide phase is now an incremental engine:
//
//   group   one pass groups active sessions by their exact decide inputs —
//           (candidate-row pointer, backlog bit pattern) — via neighbour
//           run-detection (cohorts that arrived together sit adjacently and
//           evolve identically) backed by an epoch-stamped open-addressing
//           hash for scattered duplicates. The argmax inputs are *exactly*
//           these two values (V and the candidate set are store constants;
//           weight/EWMA feed the scheduler, never the argmax), so sessions
//           sharing a key provably share the decision bit for bit.
//
//   reuse   when no session arrived, departed, or changed backlog since the
//           groups were built (membership generation + a backlog dirty flag,
//           both maintained by the store), the group structure is provably
//           unchanged — keys of distinct groups can never collide as rows
//           advance and equal keys advance equally — so the grouping pass is
//           skipped and only each group's row pointer is advanced: the
//           steady-state decide cost is O(distinct keys), not O(sessions).
//
//   kernel  the distinct keys run through a blocked, branch-light argmax
//           (kDecideLanes lane-parallel argmaxes over contiguous candidate
//           rows); results fan out to members by group id.
//
// Session accounting is streaming: the drain phase folds each slot into a
// per-session SessionTally (the five summary sums, peak/final backlog, last
// quality, step count) held index-parallel with the active list, so
// finish() can summarize every session exactly without a per-slot record.
// The stability verdict also needs the last third of each session's backlog
// series, kept in a per-session heap ring. Drain does not write that ring:
// it writes slot t's backlog into a slot-major stage, row t mod kStageRows
// at the session's active index — one sequential store per session per
// slot, like every other SoA write. When a session completes a block of
// kStageRows steps, drain flushes the block into its ring oldest first (one
// ring cache line per session per block instead of one per slot), and
// retirement flushes the partial block, so a sealed ring is exactly the
// ring a per-slot write would have left. The first flush allocates the
// ring, so activation (on the serial placement path) allocates none and the
// allocation runs inside the link's shard. The scheme relies on a store's
// active sessions draining at consecutive slots (DCHECKed). The cold record
// is touched at lifecycle edges only; per-slot StepRecord traces are opt-in
// (TraceMode).
//
// Frame rows are addressed by a per-session *row cursor* advanced in the
// drain phase (every active session drains every slot), replacing the
// per-session `(slot - arrival) % frames` integer division of the PR 4
// kernel — the single most expensive instruction the old decide executed.
//
// The store also maintains exact O(changed) aggregates for the scheduler:
// a membership generation (bumped on any activation/retirement) and a
// weight histogram keyed by weight bit patterns (per-tier session counts),
// which let weighted policies reuse their tier permutation across
// slots and skip tier-finding entirely for uniform fleets. Floating-point
// *sums* are deliberately not maintained incrementally: an incrementally
// updated sum rounds differently from the canonical left-to-right pass, and
// everything here must stay bit-for-bit against the view-based oracle
// (asserted by bench_hot_path --smoke and the serving determinism tests).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/chunked_array.hpp"
#include "common/status.hpp"
#include "sim/frame_stats_cache.hpp"
#include "sim/trace.hpp"

namespace arvis {

/// A session's lifetime is [arrival_slot, departure_slot); this sentinel
/// means "stays until the run ends".
inline constexpr std::size_t kNeverDeparts =
    std::numeric_limits<std::size_t>::max();

/// Lane width of the blocked decide kernel (independent argmaxes advanced in
/// lockstep — one cache line of doubles halved, the sweet spot for the
/// 4-6-wide candidate rows the runtime uses).
inline constexpr std::size_t kDecideLanes = 4;

/// Poison bit pattern written into freed SoA backlog/weight slots when the
/// check layer is on: a quiet NaN with a recognizable payload, so a stale
/// index that survives the bounds DCHECK still trips the poison DCHECK
/// instead of silently reading a retired session's data.
inline constexpr std::uint64_t kPoisonedSlotBits = 0x7FF8DEADBEEFDEADULL;

/// QoS tiers the store tracks candidate ceilings for. Sized above kSloTiers
/// so this layer stays independent of the telemetry headers; the manager
/// validates spec.qos < kSloTiers long before activation.
inline constexpr std::size_t kStoreQosTiers = 8;

/// Which sessions keep a full per-slot StepRecord trace. Summaries are
/// exact in either mode; kAll exists for oracles, replays and plots that
/// need the slot-by-slot record, at 56 B per session·slot.
enum class TraceMode : std::uint8_t {
  kNone,  // streaming accounting only (the default)
  kAll,   // every admitted session also records its full trace
};

/// Backlog samples a session stages before its ring sees them: drain
/// writes slot t's sample into the store's stage row t mod kStageRows, and
/// each completed block of kStageRows steps is flushed into the ring.
inline constexpr std::size_t kStageRows = 8;
// A power of two, so slot arithmetic mod kStageRows survives unsigned
// wraparound (row of slot t - k is (t - k) % kStageRows for any k).
static_assert(std::has_single_bit(kStageRows));

/// A session's streaming accounting, folded by SessionStore::drain() once
/// per slot: exactly what summarize_totals() needs. `ring` is a circular
/// buffer of the last `ring_cap` backlog_begin samples of the *flushed*
/// steps (storage owned by the store while active, by the cold record once
/// retired). It stays null until the first flush allocates it, so
/// activation allocates nothing per session; ring_cap is its planned size
/// meanwhile. While the session is active, its newest totals.steps mod
/// kStageRows samples sit in the store's stage rows instead; retirement
/// flushes them, so a sealed ring holds every step's sample. The ring
/// always holds the stability tail of the flushed steps, doubling in the
/// flush that would otherwise overwrite a sample that tail still needs.
struct SessionTally {
  TraceTotals totals;
  /// Quality of the last drained slot (valid once totals.steps > 0).
  double last_quality = 0.0;
  double* ring = nullptr;
  std::uint32_t ring_head = 0;  // next write position
  std::uint32_t ring_cap = 0;
  /// Flushed-step count at which the ring must double first: a flush that
  /// brings the flushed steps to grow_at or past it grows the ring before
  /// writing.
  std::size_t grow_at = 0;
};

/// The exact summary of a sealed tally (summarize_totals over the unrolled
/// ring tail); `scratch` is reused across calls. Precondition:
/// tally.totals.steps > 0, and every step is flushed into the ring (the
/// tally was sealed at retirement).
TraceSummary summarize_tally(const SessionTally& tally,
                             std::vector<double>& scratch);

/// One streaming client as submitted to the server.
struct SessionSpec {
  /// Frame statistics of the content this session streams (non-null;
  /// sessions may share a cache).
  const FrameStatsCache* cache = nullptr;
  std::size_t arrival_slot = 0;
  std::size_t departure_slot = kNeverDeparts;
  /// Scheduler priority (finite, >= 0; weighted policies only).
  double weight = 1.0;
  /// Caller-owned tag: a trace replay stores the row index here, and a
  /// benchmark may store a lineage key. The runtime carries it with the
  /// session and never reads it.
  std::uint64_t seed = 0;
  /// QoS tier for SLO accounting: 0 = best-effort, 1 = standard,
  /// 2 = premium. Raw index (not the driver-layer QosClass enum — this layer
  /// sits below the trace format); must be < kSloTiers, which the manager
  /// validates. Tiering affects accounting only, never scheduling.
  std::uint8_t qos = 1;
};

enum class SessionPhase : std::uint8_t { kPending, kActive, kClosed };

/// The hot SoA state carried across a live migration: backlog, served-bytes
/// EWMA, and the frame-row cursor. Extracted from the source link's store
/// just before the session retires there and injected into the target's
/// store right after activation, so the migrated session's decide/drain
/// sequence continues bit for bit — the row cursor stays valid because
/// every link shares one ServingConfig (same candidate width) and caches
/// intern to tables of identical geometry. Deliberately *not* carried: the
/// candidate ceiling (limit), which is the target link's brownout state, and
/// the weight, which rides in the spec.
struct HotSessionState {
  double backlog = 0.0;
  double ewma = 0.0;
  std::size_t row_off = 0;
};

/// The cold per-session record (slab resident; read at lifecycle edges,
/// never in the per-slot phases — drain appends to `trace` under
/// TraceMode::kAll only).
struct ServingSession {
  ServingSession(std::size_t id_in, const SessionSpec& spec_in)
      : id(id_in), spec(spec_in), arrival_actual(spec_in.arrival_slot) {}

  std::size_t id;
  SessionSpec spec;
  /// Full per-slot record; stays empty unless the store runs TraceMode::kAll.
  Trace trace;
  /// The session's accounting, sealed here (with its ring storage) when it
  /// retires from the active list; meaningless while it is active.
  SessionTally tally;
  std::vector<double> tail_ring;
  SessionPhase phase = SessionPhase::kPending;
  bool admitted = false;
  /// Cancelled by an external-close control event before it ever arrived;
  /// admission skips it and it reports as never-arrived.
  bool cancelled = false;
  int max_sustainable_depth = 0;
  double cheapest_load = 0.0;
  /// First slot admission may consider this session: the declared arrival,
  /// or the submission-time slot when the declared arrival already elapsed.
  std::size_t due_slot = 0;
  /// Slot the session actually became active; session-local frame time
  /// counts from here.
  std::size_t arrival_actual = 0;
  std::size_t departure_actual = 0;
};

/// Per-cache flattened decide tables: for every cached frame, the
/// per-candidate (utility, arrivals) pairs laid out as one contiguous row
/// [u_0 .. u_{w-1} | a_0 .. a_{w-1}]. Values reproduce LogPointQualityView /
/// ByteWorkloadView bit for bit (same clamping, same log10 inputs).
class FlatDecideTable {
 public:
  FlatDecideTable(const FrameStatsCache& cache,
                  std::span<const int> candidates);

  [[nodiscard]] const double* data() const noexcept { return data_.data(); }
  [[nodiscard]] std::size_t frames() const noexcept { return frames_; }

 private:
  std::size_t frames_;
  std::vector<double> data_;  // frames_ rows of 2·|candidates| doubles
};

/// The arena + hot-mirror container. The SessionManager owns one and drives
/// it; the store's job is keeping the SoA arrays in lockstep with the
/// active list so the phase loops can trust plain indices.
class SessionStore {
 public:
  /// `candidates` must be non-empty (the manager validates ordering/range).
  SessionStore(std::vector<int> candidates, double v,
               TraceMode trace_mode = TraceMode::kNone);

  // --- slab ---------------------------------------------------------------

  /// Appends a cold record (stable reference; insertion order preserved).
  /// Ids need not be ordered (cluster placement can create them out of
  /// submission order) but must be unique within one store.
  ServingSession& create(std::size_t id, const SessionSpec& spec);
  [[nodiscard]] std::size_t session_count() const noexcept {
    return slab_.size();
  }
  /// Insertion-order access (the finish() walk).
  [[nodiscard]] ServingSession& session(std::size_t pos) noexcept {
    return slab_[pos];
  }
  /// Slab record with the given id, nullptr when unknown. O(sessions) —
  /// used by the rare external-close path only, never per slot.
  [[nodiscard]] ServingSession* find(std::size_t id) noexcept;

  // --- active list + hot mirrors ------------------------------------------

  /// Marks `s` active and mirrors its hot fields into the SoA arrays
  /// (interning its cache's FlatDecideTable on first sight). `planned_slots`
  /// is how long it is expected to stream; it sizes the stability-tail ring
  /// that the session's first block flush allocates (a session that
  /// outlives the plan grows its ring, so any value is correct — a good one
  /// just never pays the growth).
  void activate(ServingSession& s, std::size_t planned_slots);

  /// Compacts the active list, retiring every session `should_close`
  /// selects (sealing its tally into the cold record, then invoking
  /// `on_close(session)`) while keeping all SoA mirrors index-parallel.
  /// Preserves relative order of survivors.
  template <class ShouldClose, class OnClose>
  void retire_active(ShouldClose should_close, OnClose on_close) {
    const std::size_t n = active_.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ServingSession& s = *active_[i];
      if (should_close(s)) {
        histo_remove(std::bit_cast<std::uint64_t>(weight_[i]));
        seal(i, s);
        on_close(s);
        continue;
      }
      compact_to(kept, i);
      ++kept;
    }
    if (kept != n) {
      resize_active(kept);
      ++generation_;
    }
  }

  /// The per-slot departure sweep: retires every session whose departure
  /// slot has been reached. Same contract as retire_active with the
  /// departure predicate, but the scan reads only the dense departure
  /// mirror — in the no-departure steady state it never touches the cold
  /// slab at all.
  template <class OnClose>
  void retire_departed(std::size_t slot, OnClose on_close) {
    const std::size_t n = active_.size();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (departure_[i] <= slot) {
        histo_remove(std::bit_cast<std::uint64_t>(weight_[i]));
        seal(i, *active_[i]);
        on_close(*active_[i]);
        continue;
      }
      compact_to(kept, i);
      ++kept;
    }
    if (kept != n) {
      resize_active(kept);
      ++generation_;
    }
  }

  /// Re-mirrors session `s`'s departure slot after the caller mutated it
  /// (the external-close control path). O(active) pointer scan — closes are
  /// calendar events, never per-slot work.
  void mirror_departure(const ServingSession& s) noexcept {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (active_[i] == &s) {
        departure_[i] = s.spec.departure_slot;
        return;
      }
    }
  }

  [[nodiscard]] std::size_t active_count() const noexcept {
    return active_.size();
  }
  [[nodiscard]] ServingSession& active_session(std::size_t i) noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(active_[i] != nullptr, "poisoned active slot");
    return *active_[i];
  }
  [[nodiscard]] const ServingSession& active_session(
      std::size_t i) const noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(active_[i] != nullptr, "poisoned active slot");
    return *active_[i];
  }

  // --- live-migration state transfer ---------------------------------------

  /// Reads active session i's hot mirrors for migration extraction (called
  /// before the session retires from this store, while the mirrors are
  /// still live — the poison check proves it).
  [[nodiscard]] HotSessionState hot_state(std::size_t i) const noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[i]) != kPoisonedSlotBits,
        "hot_state on poisoned (released) slot");
    return HotSessionState{backlog_[i], ewma_[i], row_off_[i]};
  }

  /// Overwrites the most recently activated session's hot mirrors with
  /// migrated state — activate() then inject_hot_state() is the migration
  /// injection sequence. The membership generation was already bumped by
  /// the activation; this only marks backlogs dirty so the decide memoizer
  /// regroups on the carried backlog instead of the fresh zero. The row
  /// cursor must be aligned to the session's table stride and in range
  /// (checked), which holds whenever source and target share the serving
  /// config and content caches.
  void inject_hot_state(const HotSessionState& state) noexcept {
    ARVIS_DCHECK(!active_.empty());
    const std::size_t i = active_.size() - 1;
    ARVIS_DCHECK_MSG(state.row_off % (2 * width_) == 0,
                     "migrated row cursor misaligned for this store");
    ARVIS_DCHECK_LT(state.row_off, frames_[i] * 2 * width_);
    backlog_[i] = state.backlog;
    ewma_[i] = state.ewma;
    row_off_[i] = state.row_off;
    backlog_dirty_ = true;
  }

  // --- generation-stamped handles (the arena lifetime checker) ------------

  /// A reference to an active SoA slot, stamped with the membership
  /// generation it was minted at. Any lifecycle edge (activation or
  /// retirement batch) bumps the generation, so a handle that survives one
  /// is provably stale: indices may have compacted underneath it. Resolving
  /// a stale handle is a checked error in Debug/sanitizer builds and
  /// undefined in Release — mint handles per slot, never store them across
  /// begin_slot(). Two plain words; Release pays nothing for carrying one.
  struct ActiveHandle {
    std::size_t index = 0;
    std::uint64_t generation = 0;
  };

  /// Mints a handle for active index `i` at the current generation.
  [[nodiscard]] ActiveHandle active_handle(std::size_t i) const noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    return ActiveHandle{i, generation_};
  }

  /// Resolves a handle to its session, validating (Debug only) that no
  /// lifecycle edge invalidated it and the slot is not poisoned.
  [[nodiscard]] ServingSession& resolve(ActiveHandle h) noexcept {
    ARVIS_DCHECK_MSG(h.generation == generation_,
                     "stale session handle: lifecycle edge since mint");
    ARVIS_DCHECK_LT(h.index, active_.size());
    ARVIS_DCHECK_MSG(active_[h.index] != nullptr, "poisoned active slot");
    return *active_[h.index];
  }

  /// Handle-validated hot-mirror read (the schedulers read whole spans; this
  /// is the single-session accessor for code that holds a handle).
  [[nodiscard]] double backlog_at(ActiveHandle h) const noexcept {
    ARVIS_DCHECK_MSG(h.generation == generation_,
                     "stale session handle: lifecycle edge since mint");
    ARVIS_DCHECK_LT(h.index, active_.size());
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[h.index]) != kPoisonedSlotBits,
        "poisoned active slot");
    return backlog_[h.index];
  }

  /// Cross-checks every SoA mirror against the cold slab and the interned
  /// tables: index-parallel lengths, weight/departure bit-equality with the
  /// spec, table pointers/frame counts matching the session's interned
  /// table, row cursors aligned and in range, tally rings unallocated exactly
  /// until the first flush and then owned by their slot and large enough for
  /// the stability tail, the weight histogram exactly reproducible from the
  /// mirrors, and no poisoned or duplicated slots.
  /// O(active + slab) — called from tests and the bench oracles, never from
  /// the slot loop (hot-path invariants are the DCHECKs above).
  [[nodiscard]] Status validate() const;

  // --- O(changed) aggregates ----------------------------------------------

  /// Monotone active-membership generation: bumped on every activation and
  /// every retirement batch. Equal generations promise an identical active
  /// list (same sessions, same index order, same weights) — the key the
  /// decide memoizer and the schedulers' cached structures invalidate on.
  [[nodiscard]] std::uint64_t membership_generation() const noexcept {
    return generation_;
  }
  /// True when every active session's weight has the same bit pattern
  /// (maintained via the weight histogram, O(distinct weights) per
  /// lifecycle edge — never a per-slot pass).
  [[nodiscard]] bool uniform_weights() const noexcept {
    return weight_histo_.size() <= 1;
  }
  /// Distinct active weight bit patterns (an upper bound on — and for
  /// exactly-equal weights, equal to — the weighted-priority tier count).
  [[nodiscard]] std::size_t distinct_weight_count() const noexcept {
    return weight_histo_.size();
  }

  // --- brownout quality ceilings -------------------------------------------

  /// Sets the per-QoS candidate ceiling: sessions of tier t may only choose
  /// among their first `limits[t]` candidates (candidates_ is the manager's
  /// ascending depth list, so a lower ceiling caps delivered quality — the
  /// brownout degradation knob). Tiers beyond `limits.size()` reset to the
  /// full width. Every limit must be in [1, width]; bumps the membership
  /// generation when any active session's ceiling actually changed (the
  /// decide groups key on the ceiling). Throws std::invalid_argument on a
  /// limit out of range or more than kStoreQosTiers entries.
  void set_tier_limits(std::span<const std::uint32_t> limits);

  /// Current ceiling for tier `qos` (width when never restricted).
  [[nodiscard]] std::uint32_t tier_limit(std::uint8_t qos) const noexcept {
    ARVIS_DCHECK_LT(qos, tier_limit_.size());
    return tier_limit_[qos];
  }
  /// True when any tier's ceiling is below the full candidate width.
  [[nodiscard]] bool tier_limits_active() const noexcept {
    for (const std::uint32_t l : tier_limit_) {
      if (l != width_) return true;
    }
    return false;
  }

  // --- per-slot kernels ---------------------------------------------------

  /// The scalar flattened decide kernel: drift-plus-penalty argmax over
  /// active session i's precomputed candidate row for this slot. The
  /// reference the oracles hold decide_all() to; the runtime itself decides
  /// only through decide_all(). Touches only index-i state and performs no
  /// allocation, no virtual dispatch, no transcendental math, no integer
  /// division (the frame row is a cursor advanced by drain()).
  void decide(std::size_t i) noexcept {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[i]) != kPoisonedSlotBits,
        "decide on poisoned (released) slot");
    ARVIS_DCHECK_MSG(table_[i] != nullptr, "decide on poisoned table slot");
    ARVIS_DCHECK_LT(row_off_[i], frames_[i] * 2 * width_);
    ARVIS_DCHECK(limit_[i] >= 1 && limit_[i] <= width_);
    const double q = backlog_[i];
    const double* row = table_[i] + row_off_[i];
    const double* u = row;
    const double* a = row + width_;
    // The brownout quality ceiling: only the first limit_[i] candidates
    // compete (limit == width when degradation is idle).
    const std::size_t lim = limit_[i];
    std::size_t best = 0;
    double best_objective = v_ * u[0] - q * a[0];
    for (std::size_t c = 1; c < lim; ++c) {
      const double objective = v_ * u[c] - q * a[c];
      if (objective > best_objective) {  // strict: ties keep the lower index
        best = c;
        best_objective = objective;
      }
    }
    depth_[i] = candidates_[best];
    dec_arrivals_[i] = a[best];
    dec_quality_[i] = u[best];
  }

  /// The incremental decide engine: one call decides every active session
  /// for this slot, bit-for-bit identical to calling decide(i) for each i
  /// (asserted by the bench_hot_path oracle and the store-level memo
  /// tests). Groups sessions by exact decide inputs, reuses the grouping
  /// across slots while the dirty tracking proves it unchanged, and runs the
  /// blocked kernel once per distinct key. Serial by design — the grouping
  /// pass is a dependent scan; a cluster parallelizes across stores (one
  /// shard per link), never inside one.
  void decide_all();

  /// Distinct decide keys of the last decide_all() (diagnostics/benches).
  [[nodiscard]] std::size_t last_decide_groups() const noexcept {
    return group_rep_.size();
  }
  /// Slots of the decide memo hash: a power of two, at least 8 x the
  /// groups of the last grouping, 0 before the first (diagnostics/tests).
  [[nodiscard]] std::size_t memo_capacity() const noexcept {
    return memo_.size();
  }
  /// True when the last decide_all() reused the previous slot's grouping.
  [[nodiscard]] bool last_decide_reused_groups() const noexcept {
    return last_reused_;
  }

  // Cumulative memoization accounting over the store's lifetime (decide_all
  // calls with >= 1 active session only). Plain uint64 adds at decide
  // granularity — always on, free by the smoke budget; the session manager
  // mirrors the per-call outcome into the telemetry registry.
  [[nodiscard]] std::uint64_t decide_calls() const noexcept {
    return decide_calls_;
  }
  [[nodiscard]] std::uint64_t decide_group_reuses() const noexcept {
    return decide_group_reuses_;
  }
  [[nodiscard]] std::uint64_t decide_group_rebuilds() const noexcept {
    return decide_group_rebuilds_;
  }

  /// Drain bookkeeping for active session i after the scheduler granted
  /// `share`: Lindley queue step, tally fold (sums, peak, final backlog,
  /// last quality), stage write of the tail sample, trace append under
  /// TraceMode::kAll only, hot-mirror refresh, EWMA update (alpha > 0 only),
  /// frame-row cursor advance, backlog dirty tracking for the memoizer.
  /// Returns the bytes actually served. In the default mode it reads and
  /// writes index-i SoA state only — never the cold record — except on the
  /// step that completes a block of kStageRows, which flushes the block into
  /// the session's ring. It allocates twice at most per session: the ring
  /// itself, in the first flush, and a doubling if the session outlives its
  /// planned window. Every active session of a store must drain at each
  /// slot, slots consecutive (the stage rows are indexed by slot).
  ///
  /// The Lindley step runs inline on the hot mirror — DiscreteQueue::step's
  /// arithmetic verbatim (clamp negatives, serve min(Q, b) before same-slot
  /// arrivals enter) — because the serving runtime observes a queue only
  /// through the tally and the served-bytes return: the cold queue object's
  /// running statistics were per-session·slot work nobody read.
  double drain(std::size_t i, std::size_t slot, double share, double alpha) {
    ARVIS_DCHECK_LT(i, active_.size());
    ARVIS_DCHECK_MSG(active_[i] != nullptr, "drain on poisoned slot");
    ARVIS_DCHECK_MSG(
        std::bit_cast<std::uint64_t>(backlog_[i]) != kPoisonedSlotBits,
        "drain on poisoned (released) slot");
    StepRecord record;
    record.t = slot;
    record.depth = depth_[i];
    record.arrivals = dec_arrivals_[i];
    record.service = share;
    record.backlog_begin = backlog_[i];
    record.quality = dec_quality_[i];
    const double arrivals = std::max(0.0, record.arrivals);
    const double service = std::max(0.0, share);
    const double served = std::min(backlog_[i], service);
    record.backlog_end = backlog_[i] - served + arrivals;
    if (std::bit_cast<std::uint64_t>(backlog_[i]) !=
        std::bit_cast<std::uint64_t>(record.backlog_end)) {
      backlog_dirty_ = true;
    }
    backlog_[i] = record.backlog_end;

    SessionTally& t = tally_[i];
    ARVIS_DCHECK_MSG(
        t.totals.steps != std::numeric_limits<std::size_t>::max(),
        "drain on poisoned tally");
    // A session inside a block drained last slot, so the store's last drain
    // is this slot or the one before.
    ARVIS_DCHECK_MSG(
        t.totals.steps % kStageRows == 0 || slot - stage_slot_ <= 1,
        "stage contract: a store's active sessions drain at consecutive "
        "slots");
    stage_slot_ = slot;
    stage_[slot % kStageRows][i] = record.backlog_begin;
    t.totals.add(record);
    t.last_quality = record.quality;
    if (t.totals.steps % kStageRows == 0) flush_stage(i, kStageRows);
    if (trace_all_) active_[i]->trace.add(record);

    const std::size_t next = row_off_[i] + 2 * width_;
    row_off_[i] = next == frames_[i] * 2 * width_ ? 0 : next;
    if (alpha > 0.0) ewma_[i] = (1.0 - alpha) * ewma_[i] + alpha * served;
    return served;
  }

  /// True when drain() appends every session's StepRecord trace.
  [[nodiscard]] bool traces_all() const noexcept { return trace_all_; }

  /// Active sessions' tallies and QoS tiers (index-parallel with the active
  /// list) — the snapshot-time SLO sampler reads these, not the cold slab.
  /// An active tally's ring lacks its staged partial block; summarize
  /// sealed tallies only.
  [[nodiscard]] std::span<const SessionTally> tallies() const noexcept {
    return tally_;
  }
  [[nodiscard]] std::span<const std::uint8_t> qos_tiers() const noexcept {
    return qos_;
  }

  // --- SoA spans for the schedule phase -----------------------------------

  [[nodiscard]] std::span<const double> backlogs() const noexcept {
    return backlog_;
  }
  [[nodiscard]] std::span<const double> decided_arrivals() const noexcept {
    return dec_arrivals_;
  }
  [[nodiscard]] std::span<const double> weights() const noexcept {
    return weight_;
  }
  [[nodiscard]] std::span<const double> ewma_throughput() const noexcept {
    return ewma_;
  }

 private:
  /// Moves every SoA mirror of index `from` to index `to` (compaction).
  void compact_to(std::size_t to, std::size_t from) noexcept {
    if (to == from) return;
    active_[to] = active_[from];
    backlog_[to] = backlog_[from];
    weight_[to] = weight_[from];
    ewma_[to] = ewma_[from];
    table_[to] = table_[from];
    table_id_[to] = table_id_[from];
    frames_[to] = frames_[from];
    row_off_[to] = row_off_[from];
    departure_[to] = departure_[from];
    qos_[to] = qos_[from];
    limit_[to] = limit_[from];
    tally_[to] = tally_[from];  // ring pointer stays valid: the buffer moves
    ring_buf_[to] = std::move(ring_buf_[from]);
    // Only the partial block is live; it ends at the last drained slot.
    const std::size_t live = tally_[to].totals.steps % kStageRows;
    for (std::size_t k = 0; k < live; ++k) {
      std::vector<double>& row = stage_[(stage_slot_ - k) % kStageRows];
      row[to] = row[from];
    }
  }

  /// Copies active session i's newest `count` staged samples (the block
  /// ending at the last drained slot) into its ring, oldest first,
  /// allocating the ring on the first flush and growing it first when the
  /// flushed steps reach grow_at. Called with totals.steps already counting
  /// the flushed block.
  void flush_stage(std::size_t i, std::size_t count) {
    SessionTally& t = tally_[i];
    if (t.ring == nullptr) [[unlikely]] {
      allocate_ring(i);
    }
    if (t.totals.steps >= t.grow_at) [[unlikely]] {
      grow_ring(i);
    }
    std::uint32_t head = t.ring_head;
    for (std::size_t k = count; k > 0; --k) {
      t.ring[head] = stage_[(stage_slot_ + 1 - k) % kStageRows][i];
      head = head + 1 == t.ring_cap ? 0 : head + 1;
    }
    t.ring_head = head;
  }

  /// Flushes active session i's partial block, then hands its tally and
  /// ring storage to its cold record (retirement; the slot is compacted
  /// over or released right after).
  void seal(std::size_t i, ServingSession& s) {
    const std::size_t live = tally_[i].totals.steps % kStageRows;
    if (live != 0) flush_stage(i, live);
    s.tally = tally_[i];
    s.tail_ring = std::move(ring_buf_[i]);
  }

  /// The first flush's slow path: allocates session i's ring at its planned
  /// capacity (ring_cap, set at activation).
  void allocate_ring(std::size_t i);
  /// The tally ring's slow path: doubles session i's ring (rotated oldest
  /// first) before a flush would overwrite a sample the stability tail
  /// still needs. Runs only for sessions past their planned window.
  void grow_ring(std::size_t i);

  void resize_active(std::size_t n);
  /// Index into tables_ of the (possibly newly) interned table for `cache`.
  std::size_t intern(const FrameStatsCache& cache);
  void rebuild_groups();
  /// Doubles the memo hash and re-inserts the groups minted so far under
  /// the live scan's `epoch` (the rebuild_groups slow path).
  void grow_memo(std::uint64_t epoch);
  void run_blocked_kernel();
  void histo_add(std::uint64_t weight_bits);
  void histo_remove(std::uint64_t weight_bits);

  /// One epoch-stamped slot of the grouping hash (open addressing, linear
  /// probing; stale entries die by stamp, never by clearing the table).
  ///
  /// Keys are (interned-table id << 32 | row offset, backlog bits, candidate
  /// ceiling) — stable identifiers, deliberately NOT the row's address: a
  /// pointer key dangles the moment a table is freed and re-interned (the
  /// sharded runtime will migrate sessions across stores), and comparing a
  /// dangling pointer that the allocator reused is a silent wrong-group
  /// hazard no sanitizer can see. row_key() packs the id/offset pair;
  /// offsets are DCHECKed to fit. The ceiling joined the key with brownout
  /// degradation: two sessions sharing a row and backlog but sitting in
  /// different QoS tiers may argmax over different candidate prefixes.
  struct MemoSlot {
    std::uint64_t epoch = 0;
    std::uint64_t row_key = 0;
    std::uint64_t backlog_bits = 0;
    std::uint32_t group = 0;
    std::uint32_t limit = 0;
  };

  /// The memo key of active session i's current frame row.
  [[nodiscard]] std::uint64_t row_key(std::size_t i) const noexcept {
    ARVIS_DCHECK_LE(row_off_[i], 0xFFFFFFFFULL);
    return (static_cast<std::uint64_t>(table_id_[i]) << 32) |
           static_cast<std::uint64_t>(row_off_[i]);
  }

  std::vector<int> candidates_;
  double v_;
  std::size_t width_;  // candidates_.size()
  bool trace_all_;     // TraceMode::kAll
  /// Per-QoS candidate ceiling applied at activation (all width_ when the
  /// degradation policy is idle). Fixed size; never reallocates.
  std::vector<std::uint32_t> tier_limit_;

  /// Cold records in insertion order; stable refs, and only the record
  /// that opens a chunk allocates.
  ChunkedArray<ServingSession, 256> slab_;
  std::vector<ServingSession*> active_;    // admission order

  // Hot SoA mirrors, index-parallel with active_.
  std::vector<double> backlog_;
  std::vector<double> weight_;
  std::vector<double> ewma_;
  std::vector<const double*> table_;       // flattened table base pointer
  std::vector<std::uint32_t> table_id_;    // index into tables_ (memo key)
  std::vector<std::size_t> frames_;        // table frame count (cycle length)
  std::vector<std::size_t> row_off_;       // current frame row, in doubles
  std::vector<std::size_t> departure_;     // spec departure slot (sweep key)
  std::vector<std::uint8_t> qos_;          // spec QoS tier (ceiling lookup)
  std::vector<std::uint32_t> limit_;       // candidate ceiling (<= width_)
  std::vector<SessionTally> tally_;        // streaming accounting
  std::vector<std::vector<double>> ring_buf_;  // tally_[i].ring's storage
  /// Slot-major tail stage: stage_[t % kStageRows][i] is active session i's
  /// backlog_begin at slot t, live for its last totals.steps % kStageRows
  /// drained slots (older entries were flushed into its ring).
  std::vector<double> stage_[kStageRows];
  std::size_t stage_slot_ = 0;  // slot of the store's last drain

  // Per-slot decide outputs (written by decide, read by schedule/drain).
  std::vector<int> depth_;
  std::vector<double> dec_arrivals_;
  std::vector<double> dec_quality_;

  // Interned flattened tables, keyed by cache identity (few distinct caches
  // per run; linear scan at activation only).
  std::vector<std::pair<const FrameStatsCache*, std::unique_ptr<FlatDecideTable>>>
      tables_;

  // --- incremental decide engine state ------------------------------------
  std::uint64_t generation_ = 1;       // active-membership generation
  bool backlog_dirty_ = true;          // any backlog bits changed since build
  std::uint64_t groups_generation_ = 0;  // generation the groups were built at
  bool last_reused_ = false;
  std::uint64_t decide_calls_ = 0;
  std::uint64_t decide_group_reuses_ = 0;
  std::uint64_t decide_group_rebuilds_ = 0;
  std::vector<std::uint32_t> group_of_;   // session index -> group id
  std::vector<std::uint32_t> group_rep_;  // group id -> representative index
  std::vector<const double*> group_row_;  // group id -> this slot's row
  std::vector<std::uint32_t> group_limit_;  // group id -> candidate ceiling
  std::vector<int> group_depth_;          // group outputs
  std::vector<double> group_arrivals_;
  std::vector<double> group_quality_;
  /// Smallest memo hash, and the inverse of its maximum load factor (a 1/2
  /// load measured ~8% slower per session·slot on a churning 4-link cluster
  /// near 10k sessions).
  static constexpr std::size_t kMemoMinSlots = 64;
  static constexpr std::size_t kMemoLoadInverse = 8;
  std::vector<MemoSlot> memo_;            // power-of-two scratch hash
  std::uint64_t memo_epoch_ = 0;

  // Active-weight histogram: (weight bit pattern, active count). Few
  // distinct weights per fleet; linear scans at lifecycle edges only.
  std::vector<std::pair<std::uint64_t, std::size_t>> weight_histo_;
};

}  // namespace arvis
