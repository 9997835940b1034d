// Stability diagnostics over a backlog time series.
//
// The paper's Fig. 2(a) distinguishes three behaviours: divergence
// (max-depth), convergence to ~0 (min-depth), and bounded oscillation
// (proposed). These tests classify a series into those regimes.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace arvis {

enum class StabilityVerdict {
  /// Backlog grows without bound (sustained positive drift).
  kDivergent,
  /// Backlog settles to (near) zero.
  kConvergentToZero,
  /// Backlog stays bounded but non-trivial (rate-stable operation point).
  kBoundedPositive,
};

const char* to_string(StabilityVerdict verdict) noexcept;

/// Result of analyzing a backlog series.
struct StabilityReport {
  StabilityVerdict verdict = StabilityVerdict::kBoundedPositive;
  /// Least-squares backlog growth per slot over the analyzed tail.
  double tail_slope = 0.0;
  /// Mean backlog over the analyzed tail.
  double tail_mean = 0.0;
  /// Peak backlog over the whole series.
  double peak = 0.0;
  /// Time-average backlog over the whole series.
  double time_average = 0.0;
};

/// Analyzes `backlog[t]` for t = 0..n-1. The tail is the last `tail_fraction`
/// of the series (default: final third). A series is kDivergent when the tail
/// slope exceeds `divergence_slope` (work units/slot) AND the tail mean keeps
/// growing; kConvergentToZero when the tail mean is below `zero_threshold`.
/// Preconditions: backlog.size() >= 8, fractions in (0, 1].
StabilityReport analyze_stability(const std::vector<double>& backlog,
                                  double tail_fraction = 1.0 / 3.0,
                                  double divergence_slope = 1.0,
                                  double zero_threshold = 1.0);

/// Length of the tail analyze_stability() examines in an `n`-sample series:
/// max(4, floor(n · tail_fraction)), computed in exactly its arithmetic.
/// Monotone in n, and grows by at most one per sample.
std::size_t stability_tail_length(std::size_t n,
                                  double tail_fraction = 1.0 / 3.0) noexcept;

/// The verdict half of analyze_stability(): classifies the series from its
/// tail alone. `tail` holds samples [start, start + tail.size()) of the
/// series, oldest first (tail.size() >= 2). Fills verdict, tail_slope and
/// tail_mean; peak and time_average are left for the caller, which is how a
/// streaming accumulator that kept only the tail reaches the same verdict
/// bit for bit as the full-series path.
StabilityReport analyze_stability_tail(std::span<const double> tail,
                                       std::size_t start,
                                       double divergence_slope,
                                       double zero_threshold);

/// The stability region boundary of the depth-control system: with constant
/// frame workload a(d) and mean service b̄, depth d is sustainable iff
/// a(d) <= b̄. Returns the largest sustainable depth in [d_min, d_max], or
/// d_min - 1 when none is sustainable.
int max_sustainable_depth(const std::vector<double>& arrivals_at_depth,
                          double mean_service, int d_min, int d_max);

}  // namespace arvis
