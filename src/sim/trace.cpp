#include "sim/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>

namespace arvis {

std::vector<double> Trace::backlog_series() const {
  std::vector<double> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.backlog_begin);
  return out;
}

std::vector<int> Trace::depth_series() const {
  std::vector<int> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.depth);
  return out;
}

std::vector<double> Trace::quality_series() const {
  std::vector<double> out;
  out.reserve(steps_.size());
  for (const StepRecord& s : steps_) out.push_back(s.quality);
  return out;
}

TraceSummary Trace::summarize() const {
  if (steps_.size() < 8) {
    throw std::logic_error("Trace::summarize: need >= 8 slots");
  }
  return summarize_partial();
}

TraceSummary Trace::summarize_partial() const {
  if (steps_.empty()) {
    throw std::logic_error("Trace::summarize_partial: empty trace");
  }
  TraceTotals totals;
  for (const StepRecord& s : steps_) totals.add(s);
  std::vector<double> tail;
  if (steps_.size() >= 8) {
    const std::size_t len = stability_tail_length(steps_.size());
    tail.reserve(len);
    for (std::size_t i = steps_.size() - len; i < steps_.size(); ++i) {
      tail.push_back(steps_[i].backlog_begin);
    }
  }
  return summarize_totals(totals, tail);
}

TraceSummary summarize_totals(const TraceTotals& totals,
                              std::span<const double> tail) {
  if (totals.steps == 0) {
    throw std::logic_error("summarize_totals: empty trace");
  }
  TraceSummary summary;
  const auto n = static_cast<double>(totals.steps);
  summary.time_average_quality = totals.quality_sum / n;
  summary.time_average_backlog = totals.backlog_sum / n;
  summary.mean_depth = totals.depth_sum / n;
  summary.mean_arrivals = totals.arrivals_sum / n;
  summary.mean_service = totals.service_sum / n;
  summary.peak_backlog = totals.peak_backlog;
  summary.final_backlog = totals.final_backlog;
  summary.stability.peak = summary.peak_backlog;
  summary.stability.time_average = summary.time_average_backlog;
  if (totals.steps < 8) {
    // Too short for the regression-based stability classifier: report the
    // observables we do have and flag the summary partial so consumers show
    // "too-short" instead of a fabricated verdict.
    summary.partial = true;
    summary.stability.tail_mean = summary.time_average_backlog;
    return summary;
  }
  // Scale-relative thresholds: a stable queue still holds up to one slot of
  // arrivals at the observation instant (Lindley order: serve, then admit),
  // so "converged to zero" means "at most ~a couple of slots of arrivals";
  // genuine divergence grows by a macroscopic fraction of the arrival rate
  // every slot.
  const double zero_threshold = std::max(1.0, 2.0 * summary.mean_arrivals);
  const double divergence_slope = std::max(1.0, 0.02 * summary.mean_arrivals);
  const StabilityReport verdict = analyze_stability_tail(
      tail, totals.steps - tail.size(), divergence_slope, zero_threshold);
  summary.stability.verdict = verdict.verdict;
  summary.stability.tail_slope = verdict.tail_slope;
  summary.stability.tail_mean = verdict.tail_mean;
  return summary;
}

bool bit_identical(const TraceSummary& a, const TraceSummary& b) noexcept {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return same(a.time_average_quality, b.time_average_quality) &&
         same(a.time_average_backlog, b.time_average_backlog) &&
         same(a.final_backlog, b.final_backlog) &&
         same(a.peak_backlog, b.peak_backlog) &&
         same(a.mean_depth, b.mean_depth) &&
         same(a.mean_arrivals, b.mean_arrivals) &&
         same(a.mean_service, b.mean_service) && a.partial == b.partial &&
         a.stability.verdict == b.stability.verdict &&
         same(a.stability.tail_slope, b.stability.tail_slope) &&
         same(a.stability.tail_mean, b.stability.tail_mean) &&
         same(a.stability.peak, b.stability.peak) &&
         same(a.stability.time_average, b.stability.time_average);
}

CsvTable Trace::to_csv_table() const {
  CsvTable table({"t", "depth", "arrivals", "service", "backlog", "quality"});
  for (const StepRecord& s : steps_) {
    table.add_row({static_cast<std::int64_t>(s.t),
                   static_cast<std::int64_t>(s.depth), s.arrivals, s.service,
                   s.backlog_begin, s.quality});
  }
  return table;
}

}  // namespace arvis
