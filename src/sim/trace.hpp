// Per-slot simulation records and their summaries — the raw material of
// every figure in the paper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/csv.hpp"
#include "queueing/stability.hpp"

namespace arvis {

/// What happened in one simulation slot.
struct StepRecord {
  std::size_t t = 0;
  int depth = 0;               // control action d(t)
  double arrivals = 0.0;       // a(d(t)) enqueued this slot
  double service = 0.0;        // b(t) available this slot
  double backlog_begin = 0.0;  // Q(t) observed by the controller
  double backlog_end = 0.0;    // Q(t+1)
  double quality = 0.0;        // p_a(d(t))
};

/// Scalar summary of a finished run.
struct TraceSummary {
  double time_average_quality = 0.0;
  double time_average_backlog = 0.0;
  double final_backlog = 0.0;
  double peak_backlog = 0.0;
  double mean_depth = 0.0;
  double mean_arrivals = 0.0;
  double mean_service = 0.0;
  /// True when the trace was too short (< 8 slots) for stability analysis:
  /// the means above are valid, but `stability` holds only peak/average and
  /// its verdict must not be trusted (report it as "too-short").
  bool partial = false;
  StabilityReport stability;
};

/// Running totals of a trace, folded one record at a time. Both summary
/// paths fold through add(), so a streaming accumulator and a stored trace
/// round every sum identically (left to right, in slot order).
struct TraceTotals {
  double quality_sum = 0.0;
  double backlog_sum = 0.0;  // of backlog_begin
  double depth_sum = 0.0;
  double arrivals_sum = 0.0;
  double service_sum = 0.0;
  double peak_backlog = 0.0;   // max backlog_begin, folded from 0
  double final_backlog = 0.0;  // backlog_end of the last record
  std::size_t steps = 0;

  void add(const StepRecord& r) noexcept {
    quality_sum += r.quality;
    backlog_sum += r.backlog_begin;
    depth_sum += r.depth;
    arrivals_sum += r.arrivals;
    service_sum += r.service;
    peak_backlog = std::max(peak_backlog, r.backlog_begin);
    final_backlog = r.backlog_end;
    ++steps;
  }
};

/// Summary from totals plus the stability tail: `tail` holds the last
/// stability_tail_length(totals.steps) backlog_begin samples, oldest first
/// (ignored, and may be empty, when steps < 8 — the summary is then
/// partial). Throws std::logic_error when steps == 0. Backlogs are
/// non-negative, so the folded peak equals the series maximum
/// analyze_stability() would report.
TraceSummary summarize_totals(const TraceTotals& totals,
                              std::span<const double> tail);

/// True when every field of `a` and `b` has the same bit pattern.
bool bit_identical(const TraceSummary& a, const TraceSummary& b) noexcept;

/// An append-only run record.
class Trace {
 public:
  void add(const StepRecord& record) { steps_.push_back(record); }
  void reserve(std::size_t n) { steps_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return steps_.size(); }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }
  [[nodiscard]] const StepRecord& at(std::size_t i) const {
    return steps_.at(i);
  }
  [[nodiscard]] const std::vector<StepRecord>& steps() const noexcept {
    return steps_;
  }

  /// Q(t) series (backlog at slot start), one entry per slot.
  [[nodiscard]] std::vector<double> backlog_series() const;
  /// d(t) series.
  [[nodiscard]] std::vector<int> depth_series() const;
  /// p_a(d(t)) series.
  [[nodiscard]] std::vector<double> quality_series() const;

  /// Computes all summary scalars (throws std::logic_error on an empty
  /// trace; stability analysis needs >= 8 slots).
  [[nodiscard]] TraceSummary summarize() const;

  /// summarize() that degrades instead of throwing on short traces: with
  /// >= 8 slots it returns the full summary, otherwise a partial one
  /// (means/peaks valid, `partial` set, no stability verdict). Short-lived
  /// churned sessions still throw on an *empty* trace — there is nothing
  /// to summarize.
  [[nodiscard]] TraceSummary summarize_partial() const;

  /// Full per-slot CSV (t, depth, arrivals, service, backlog, quality).
  [[nodiscard]] CsvTable to_csv_table() const;

 private:
  std::vector<StepRecord> steps_;
};

}  // namespace arvis
