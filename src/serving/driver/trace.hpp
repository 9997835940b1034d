// WorkloadTrace: the on-disk session-arrival format of the event-driven
// workload engine.
//
// A trace is an *open-loop* description of session churn — one row per
// arriving session, nothing about the server — so the same trace can be
// replayed against any cluster shape, placement policy or scheduler and the
// comparison is apples to apples. The CSV schema (via common/csv, RFC-4180):
//
//   t_arrive, duration, profile, weight, qos [, t_close]
//
//   t_arrive  slot the session arrives (non-decreasing down the file)
//   duration  slots the session stays once admitted; 0 = until the run ends
//   profile   bytes-per-slot profile id — an index into the replayer's
//             FrameStatsCache table (the trace stays content-agnostic)
//   weight    scheduler weight (>= 0, finite)
//   qos       "best-effort" | "standard" | "premium"
//   t_close   optional mid-stream abandonment slot: the replayer fires an
//             external-close event at this slot, ending the session early
//             regardless of duration. 0 = no abandonment (0 can never be a
//             real close: it cannot exceed t_arrive). The column is emitted
//             only when some event uses it, so traces without closes keep
//             the legacy five-column file byte for byte; both headers parse.
//
// A trace may also carry a fault schedule (link outages / recoveries /
// capacity scaling / graded degradation) in optional trailing columns,
// emitted only when the trace has faults — the same ride-only-when-used
// contract as t_close, so every legacy file stays byte for byte and all
// header permutations parse:
//
//   fault     "link-down" | "link-up" | "capacity-scale" | "link-degrade";
//             empty = no fault on this row
//   f_link    target link index
//   f_slot    slot the fault fires (fault rows are sorted by f_slot)
//   f_scale   capacity factor; present only for the scale-carrying kinds
//             (capacity-scale, link-degrade; empty otherwise — non-scale
//             faults carry exactly 1.0 in memory, so the round-trip stays
//             exact)
//   f_delay   added per-slot delay; rides only when some link-degrade event
//             carries a nonzero delay, and is present only on link-degrade
//             rows (other kinds carry exactly 0.0 in memory)
//
// Fault j rides row j. Faults and arrivals are independent streams, so a
// trace with more faults than sessions appends fault-only rows whose five
// session cells are empty.
//
// Traces round-trip exactly: generate -> to_table -> serialize -> parse ->
// identical event stream (tested). Validation is split by failure class per
// repo convention: malformed *input* travels through Result/Status, while
// programming errors (replaying a trace whose profile ids exceed the profile
// table you supplied) throw from the replayer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/status.hpp"
#include "serving/driver/fault.hpp"

namespace arvis {

/// Service class of a session, carried through the trace so scenario
/// generators can emit tiered fleets and reports can slice outcomes by tier.
enum class QosClass { kBestEffort, kStandard, kPremium };

inline constexpr std::size_t kQosClassCount = 3;

const char* to_string(QosClass qos) noexcept;

/// Parses the trace-file spelling ("best-effort" | "standard" | "premium").
Result<QosClass> parse_qos_class(const std::string& text);

/// The scheduler weight a class carries unless the trace says otherwise:
/// best-effort 0.5, standard 1.0, premium 2.0.
double default_qos_weight(QosClass qos) noexcept;

/// One session arrival. The trace carries no seed column and the runtime
/// draws no per-session randomness, so a trace file fully determines a run.
struct TraceEvent {
  std::size_t t_arrive = 0;
  /// Slots the session stays once admitted; 0 = until the run ends.
  std::size_t duration = 0;
  /// Bytes-per-slot profile id (index into the replayer's profile table).
  std::uint32_t profile = 0;
  double weight = 1.0;
  QosClass qos = QosClass::kStandard;
  /// Mid-stream abandonment slot (external close); 0 = none. When set, must
  /// be > t_arrive (validated).
  std::size_t t_close = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// An ordered stream of session arrivals, optionally with a fault schedule.
struct WorkloadTrace {
  std::vector<TraceEvent> events;  // non-decreasing t_arrive
  /// Fault schedule replayed alongside the arrivals (sorted by slot; empty
  /// for a fault-free trace). Kept separate from `events` — faults target
  /// links, not sessions.
  std::vector<FaultEvent> faults;

  /// First slot after the last arrival (0 for an empty trace). The *run* may
  /// outlive this: sessions admitted near the end keep streaming for their
  /// duration.
  [[nodiscard]] std::size_t arrival_horizon() const noexcept;

  /// Renders the trace as a CSV table in the documented column order. The
  /// t_close column appears iff any event has t_close != 0; the fault
  /// columns appear iff the trace has faults (f_delay iff some fault
  /// carries a nonzero delay).
  [[nodiscard]] CsvTable to_table() const;

  /// Writes the CSV file. IoError on failure.
  [[nodiscard]] Status write_csv_file(const std::string& path) const;
};

/// Structural validation: events sorted by t_arrive, weights finite and
/// >= 0, every t_close either 0 or > its event's t_arrive, (when
/// `profile_count` > 0) every profile id < profile_count, and the fault
/// schedule sound per validate_fault_plan (link bounds are the replayer's
/// job — the trace does not know the cluster shape). Returns the first
/// violation; Ok for the empty trace.
Status validate_workload_trace(const WorkloadTrace& trace,
                               std::size_t profile_count = 0);

/// Decodes a parsed CSV table into a trace. ParseError on a wrong header,
/// non-integer slots, malformed qos, or any validate_workload_trace
/// violation — a loaded trace is always structurally sound.
Result<WorkloadTrace> parse_workload_trace(const CsvTable& table);

/// Reads and decodes a trace file (read_csv_file + parse_workload_trace).
Result<WorkloadTrace> load_workload_trace(const std::string& path);

}  // namespace arvis
