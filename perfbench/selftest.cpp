// perfbench_selftest: checks on the benchmark harness itself.
//
//   1. the percentile helper applies the "highest percentile with at least
//      10 samples beyond it" rule;
//   2. the timing decorators change no behaviour: a decorated cluster run
//      gives the same digest as the stock replay_scenario on the same seed;
//   3. the dense_steady phase driver gives the same digest as
//      SessionManager::step;
//   4. a traced run gives the same digest as an untraced one;
//   5. the window's per-slot pieces add up to the window.
// The workloads run at a reduced size so the whole test takes seconds.
// Exit code 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

/// The window's per-slot pieces are one per slot and add up to the window.
bool window_cut_adds_up(const perfbench::RunResult& r) {
  double sum_us = 0.0;
  for (const double us : r.window_us) sum_us += us;
  return r.window_us.size() == r.slot_us.size() && !r.window_us.empty() &&
         std::fabs(sum_us - r.window_s * 1e6) <= 1e-3 * r.window_s * 1e6;
}

void percentile_rule() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  expect(perfbench::percentile(samples, 50.0) == 500.0, "p50 of 1..1000 = 500");
  expect(perfbench::percentile(samples, 99.0) == 990.0, "p99 of 1..1000 = 990");
  // 1000 samples: p99 leaves 10 beyond, p99.9 only 1 -> p99 is the tail.
  perfbench::TailPercentile t = perfbench::tail_percentile(samples);
  expect(t.p == 99.0 && t.value == 990.0 && t.beyond == 10,
         "1000 samples: tail percentile is p99 with 10 beyond");
  samples.resize(999);  // p99 would leave 9 beyond -> falls back to p90
  t = perfbench::tail_percentile(samples);
  expect(t.p == 90.0 && t.beyond == 99, "999 samples: tail falls back to p90");
  samples.clear();
  for (int i = 1; i <= 10'000; ++i) samples.push_back(i);
  t = perfbench::tail_percentile(samples);
  expect(t.p == 99.9 && t.beyond == 10, "10000 samples: tail is p99.9");
  samples.resize(19);
  t = perfbench::tail_percentile(samples);
  expect(t.p == 0.0, "19 samples: no percentile qualifies");
  expect(perfbench::tail_percentile({}).p == 0.0, "no samples: none qualifies");
}

void decorators_change_nothing() {
  for (const auto w : {perfbench::Workload::kChurnDiurnal,
                       perfbench::Workload::kChaosHandover,
                       perfbench::Workload::kWideParallel}) {
    perfbench::RunOptions o;
    o.workload = w;
    o.seed = 7;
    o.scale = 0.05;
    const perfbench::RunResult plain = perfbench::run_workload(o);
    const std::uint64_t reference = perfbench::reference_replay_digest(o);
    const char* name = perfbench::kWorkloadNames[static_cast<int>(w)];
    std::printf("     %s: %zu slots, %zu lineages\n", name, plain.slot_us.size(),
                plain.offered);
    expect(plain.correct, "decorated run passes the correctness gate");
    expect(window_cut_adds_up(plain), "window pieces: one per slot, sum == window");
    expect(plain.digest == reference,
           "decorated run digest == replay_scenario digest");
    o.trace = true;
    const perfbench::RunResult traced = perfbench::run_workload(o);
    expect(traced.correct && traced.digest == plain.digest,
           "traced run digest == untraced digest");
  }
}

void phase_driver_matches_step() {
  perfbench::RunOptions o;
  o.workload = perfbench::Workload::kDenseSteady;
  o.seed = 7;
  o.scale = 0.05;
  const perfbench::RunResult phases = perfbench::run_workload(o);
  expect(phases.correct, "dense phase driver passes the correctness gate");
  expect(window_cut_adds_up(phases), "window pieces: one per slot, sum == window");
  expect(phases.digest == perfbench::reference_dense_step_digest(o),
         "dense phase-driver digest == SessionManager::step digest");
}

}  // namespace

int main() {
  percentile_rule();
  phase_driver_matches_step();
  decorators_change_nothing();
  std::printf(failures == 0 ? "selftest OK\n" : "selftest: %d failure(s)\n",
              failures);
  return failures == 0 ? 0 : 1;
}
