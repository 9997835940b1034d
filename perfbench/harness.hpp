// perfbench harness: the repository benchmark's workloads, the timing
// decorators it wraps around the serving runtime's public API, and the
// correctness gate every run passes through.
//
// Nothing here changes the runtime. The cluster workloads run the stock
// EventLoop -> ClusterBackend -> EdgeCluster stack with two decorators in
// front of it (TimedBackend, TimedScenarioSource) that forward every call
// unchanged and record a span around it; dense_steady drives one
// SessionManager through the per-link phase API EdgeCluster itself uses and
// times each phase call. The traced run additionally switches on the
// runtime's own PhaseTracer and counter registry through TelemetryConfig,
// which is public configuration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// -------------------------------------------------------- percentiles ----

/// Nearest-rank percentile (p in (0, 100]) of `samples` (any order).
/// 0 when empty.
double percentile(std::vector<double> samples, double p);

/// A tail percentile chosen by the reporting rule: the highest percentile
/// of {99.9, 99, 90, 50} that leaves at least 10 samples beyond it.
struct TailPercentile {
  double p = 0.0;      ///< 0 when no percentile qualifies (< 20 samples)
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly past the percentile's rank
};

TailPercentile tail_percentile(const std::vector<double>& samples);

// ---------------------------------------------------------- workloads ----

enum class Workload { kDenseSteady, kChurnDiurnal, kChaosHandover, kWideParallel };

inline constexpr const char* kWorkloadNames[] = {
    "dense_steady", "churn_diurnal", "chaos_handover", "wide_parallel"};

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string& name, Workload& out);

struct RunOptions {
  Workload workload = Workload::kDenseSteady;
  std::uint64_t seed = 1;
  /// Switch on the runtime's PhaseTracer + counter registry.
  bool trace = false;
  /// Cluster executor width; 0 = the workload's own choice.
  std::size_t threads = 0;
  /// Busy-wait added inside every step_slot span (sensitivity self-test).
  std::uint64_t step_busy_wait_ns = 0;
  /// Shrinks the workload's session count and horizon (self-tests only;
  /// 1 = the benchmark's size).
  double scale = 1.0;
  /// When non-empty (traced runs), Chrome traces are written with this
  /// path prefix: <prefix>runtime.json (write_chrome_trace over the
  /// runtime's PhaseTracer) and <prefix>bench.json (the benchmark's spans).
  std::string chrome_trace_prefix;
};

/// Everything one repetition measured and checked.
struct RunResult {
  bool correct = false;
  std::vector<std::string> failures;  ///< correctness checks that failed
  std::uint64_t digest = 0;

  // End-to-end (tracing off).
  double setup_s = 0.0;
  double window_s = 0.0;
  double session_slots = 0.0;
  double ns_per_session_slot = 0.0;
  std::vector<double> slot_us;  ///< one sample per measured slot
  /// The measured window cut at each slot's end: entry i runs from the
  /// end of slot i-1 (the window's start for i = 0) to the end of slot i,
  /// the last entry to the window's end. Sums to window_s (in µs).
  std::vector<double> window_us;
  double finish_s = 0.0;
  double peak_rss_mb = 0.0;
  double mean_quality = 0.0;
  double mean_backlog_kb = 0.0;
  std::size_t offered = 0;  ///< session lineages offered
  std::size_t failed = 0;   ///< lineages that never streamed or were cut
  std::size_t threads = 1;

  // Set-up split.
  double cache_build_s = 0.0;
  double runtime_build_s = 0.0;

  /// Per-layer metrics (traced runs only; see README.md for each name).
  std::map<std::string, double> layers;
};

/// Runs one repetition of a workload: set-up, the measured window, finish,
/// then the correctness gate. Never throws on a failed check (it lands in
/// `failures`); throws only on a runtime error.
RunResult run_workload(const RunOptions& options);

/// The same churn/chaos/wide configuration fed to the stock replay_scenario
/// (no decorators): the reference the decorator self-test compares against.
/// Returns the digest.
std::uint64_t reference_replay_digest(const RunOptions& options);

/// dense_steady driven through SessionManager::step instead of the phase
/// API: the reference for the phase-driver self-test. Returns the digest.
std::uint64_t reference_dense_step_digest(const RunOptions& options);

}  // namespace perfbench
