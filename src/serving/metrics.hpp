// Fleet-level serving metrics: per-session outcomes plus the aggregates the
// operator dashboards care about (fairness, backlog, capacity utilization,
// admission counts), plus Jain's fairness index over any per-session value.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "sim/trace.hpp"

namespace arvis {

/// Jain's fairness index: (Σx)² / (n·Σx²); 1 when all values are equal
/// (including the all-zero fleet — nobody is favoured), → 1/n when one
/// session dominates. Empty input returns 0 (no fleet, no fairness).
double jain_fairness_index(const std::vector<double>& values);

/// One session's lifecycle outcome.
struct SessionMetrics {
  std::size_t session_id = 0;
  /// False for a session whose arrival slot was never reached before the
  /// run ended: admission never saw it, so it counts as neither admitted
  /// nor rejected.
  bool arrived = false;
  bool admitted = false;
  std::size_t arrival_slot = 0;
  /// First slot the session was no longer active (== arrival_slot for a
  /// rejected session).
  std::size_t departure_slot = 0;
  double weight = 1.0;
  /// True when `summary` is populated: any admitted session with a non-empty
  /// trace. Sessions active < 8 slots carry a *partial* summary
  /// (summary.partial — means valid, stability verdict reported as
  /// "too-short"), so churn-heavy fleets no longer under-report.
  bool has_summary = false;
  TraceSummary summary;

  [[nodiscard]] std::size_t slots_active() const noexcept {
    return departure_slot - arrival_slot;
  }
};

/// Fleet aggregates over one serving run.
struct FleetMetrics {
  std::size_t sessions_submitted = 0;
  std::size_t sessions_admitted = 0;
  std::size_t sessions_rejected = 0;
  // The quality/backlog aggregates below cover every admitted session that
  // streamed at least one slot (sessions active < 8 slots contribute via
  // partial summaries); only the stability verdict count is restricted to
  // full summaries, since the classifier needs a tail.
  /// Jain index over summarized sessions' time-average quality.
  double quality_fairness = 0.0;
  /// Mean over summarized sessions of time-average quality.
  double mean_quality = 0.0;
  /// Sum over summarized sessions of time-average backlog (bytes).
  double total_time_average_backlog = 0.0;
  /// Largest instantaneous backlog any summarized session reached (bytes).
  double peak_backlog = 0.0;
  /// Fully-summarized (>= 8 slot) sessions whose verdict was divergent.
  std::size_t divergent_sessions = 0;
  /// Admitted sessions whose summary is partial (active 1..7 slots).
  std::size_t partial_summary_sessions = 0;
  /// Σ over slots of link capacity offered (bytes).
  double capacity_offered = 0.0;
  /// Σ over slots of capacity that actually drained queues (bytes).
  double capacity_used = 0.0;
  /// Most sessions simultaneously active in any slot.
  std::size_t peak_concurrency = 0;

  [[nodiscard]] double capacity_wasted() const noexcept {
    return capacity_offered - capacity_used;
  }
  /// Fraction of offered capacity used, in [0, 1]; 0 when nothing offered.
  [[nodiscard]] double utilization() const noexcept {
    return capacity_offered > 0.0 ? capacity_used / capacity_offered : 0.0;
  }
};

/// Aggregate builder the serving runtime feeds slot by slot and session by
/// session; turns into FleetMetrics and report tables at the end.
class ServerMetrics {
 public:
  /// Records one slot's link-level outcome.
  void record_slot(double capacity_offered, double capacity_used,
                   std::size_t active_sessions);

  /// Records one finished (or rejected) session.
  void record_session(SessionMetrics metrics);

  /// Pre-sizes the per-session record vector for an expected session count
  /// (geometric growth, so calling it per submit stays amortized O(1)).
  /// The runtime calls it at submit time, so the finish-time
  /// record_session loop never reallocates mid-aggregation.
  void reserve_sessions(std::size_t expected) {
    if (sessions_.capacity() < expected) {
      sessions_.reserve(std::max(expected, sessions_.capacity() * 2));
    }
  }

  [[nodiscard]] const std::vector<SessionMetrics>& sessions() const noexcept {
    return sessions_;
  }

  // Running slot totals, readable mid-run (the event-driven driver samples
  // them for its periodic metrics snapshots; fleet() stays an end-of-run
  // aggregate).
  [[nodiscard]] double capacity_offered_total() const noexcept {
    return capacity_offered_;
  }
  [[nodiscard]] double capacity_used_total() const noexcept {
    return capacity_used_;
  }

  /// Computes the fleet aggregates from everything recorded so far.
  [[nodiscard]] FleetMetrics fleet() const;

  /// Per-session report: one row per session (id, admitted, window, weight,
  /// quality, backlog, depth, verdict) — the serving-side analogue of
  /// analysis/report's summary_table.
  [[nodiscard]] CsvTable session_table() const;

 private:
  std::vector<SessionMetrics> sessions_;
  double capacity_offered_ = 0.0;
  double capacity_used_ = 0.0;
  std::size_t peak_concurrency_ = 0;
};

}  // namespace arvis
