#include "queueing/stability.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/stats.hpp"

namespace arvis {

const char* to_string(StabilityVerdict verdict) noexcept {
  switch (verdict) {
    case StabilityVerdict::kDivergent: return "divergent";
    case StabilityVerdict::kConvergentToZero: return "convergent-to-zero";
    case StabilityVerdict::kBoundedPositive: return "bounded-positive";
  }
  return "?";
}

StabilityReport analyze_stability(const std::vector<double>& backlog,
                                  double tail_fraction, double divergence_slope,
                                  double zero_threshold) {
  if (backlog.size() < 8) {
    throw std::invalid_argument("analyze_stability: need >= 8 samples");
  }
  if (tail_fraction <= 0.0 || tail_fraction > 1.0) {
    throw std::invalid_argument("analyze_stability: tail_fraction in (0, 1]");
  }

  const std::size_t tail_len = stability_tail_length(backlog.size(),
                                                     tail_fraction);
  const std::size_t start = backlog.size() - tail_len;
  StabilityReport report = analyze_stability_tail(
      std::span<const double>(backlog).subspan(start), start,
      divergence_slope, zero_threshold);
  report.peak = *std::max_element(backlog.begin(), backlog.end());
  report.time_average =
      std::accumulate(backlog.begin(), backlog.end(), 0.0) /
      static_cast<double>(backlog.size());
  return report;
}

std::size_t stability_tail_length(std::size_t n,
                                  double tail_fraction) noexcept {
  return std::max<std::size_t>(
      4, static_cast<std::size_t>(static_cast<double>(n) * tail_fraction));
}

StabilityReport analyze_stability_tail(std::span<const double> tail,
                                       std::size_t start,
                                       double divergence_slope,
                                       double zero_threshold) {
  const std::size_t tail_len = tail.size();
  if (tail_len < 2) {
    throw std::invalid_argument("analyze_stability_tail: need >= 2 samples");
  }
  StabilityReport report;
  std::vector<double> t(tail_len);
  std::vector<double> q(tail.begin(), tail.end());
  double tail_sum = 0.0;
  for (std::size_t i = 0; i < tail_len; ++i) {
    t[i] = static_cast<double>(start + i);
    tail_sum += q[i];
  }
  report.tail_mean = tail_sum / static_cast<double>(tail_len);
  report.tail_slope = fit_linear(t, q).slope;

  // First-half tail mean vs second-half tail mean: still growing?
  const std::size_t half = tail_len / 2;
  const double first_half =
      std::accumulate(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(half),
                      0.0) / static_cast<double>(half);
  const double second_half =
      std::accumulate(q.begin() + static_cast<std::ptrdiff_t>(half), q.end(),
                      0.0) / static_cast<double>(tail_len - half);

  if (report.tail_slope > divergence_slope && second_half > first_half) {
    report.verdict = StabilityVerdict::kDivergent;
  } else if (report.tail_mean < zero_threshold) {
    report.verdict = StabilityVerdict::kConvergentToZero;
  } else {
    report.verdict = StabilityVerdict::kBoundedPositive;
  }
  return report;
}

int max_sustainable_depth(const std::vector<double>& arrivals_at_depth,
                          double mean_service, int d_min, int d_max) {
  if (d_min > d_max) {
    throw std::invalid_argument("max_sustainable_depth: d_min > d_max");
  }
  int best = d_min - 1;
  for (int d = d_min; d <= d_max; ++d) {
    const auto idx = static_cast<std::size_t>(d);
    if (idx >= arrivals_at_depth.size()) break;
    if (arrivals_at_depth[idx] <= mean_service) best = d;
  }
  return best;
}

}  // namespace arvis
