#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "datasets/catalog.hpp"
#include "net/channel.hpp"
#include "net/streaming.hpp"
#include "serving/admission.hpp"
#include "serving/cluster.hpp"
#include "serving/driver/event_loop.hpp"
#include "serving/driver/replay.hpp"
#include "serving/driver/scenario.hpp"
#include "serving/session_manager.hpp"
#include "serving/telemetry/export.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"
#include "sim/frame_stats_cache.hpp"

namespace perfbench {

using namespace arvis;

// The benchmark's own instruments, private to this file.
namespace {

/// One benchmark-side span: a call into a layer's public function. `slot`
/// is the runtime slot the call happened in (the span's identifier).
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::size_t slot = 0;

  [[nodiscard]] double us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

/// In-memory span log, written out once at the end of a traced run.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(const char* name, std::uint64_t start, std::uint64_t end,
           std::size_t slot) {
    spans_.push_back({name, start, end, slot});
  }
  /// Summed duration (µs) and count of the spans called `name`.
  [[nodiscard]] double total_us(const std::string& name,
                                std::size_t* count = nullptr) const;
  /// Durations (µs) of the spans called `name`, in record order.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// The spans as Chrome trace_event JSON (pid 2, one lane per name).
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  std::vector<Span> spans_;
};

/// Forwards every call to a stock backend unchanged and records a span
/// around each call into the runtime (submit, step_slot, close_session,
/// skip_idle_slots, the apply_* fault verbs, sample, sample_slo and the
/// retry feed). Also keeps, per submitted runtime id, the spec's row seed
/// and QoS tier, which the correctness gate needs to follow retry lineages.
class TimedBackend final : public arvis::ServingBackend {
 public:
  TimedBackend(arvis::ServingBackend& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  /// Adds a fixed busy-wait inside every step_slot span (the sensitivity
  /// self-test: proves a slower step_slot moves slot_p50_us).
  void set_step_busy_wait_ns(std::uint64_t ns) { busy_wait_ns_ = ns; }

  [[nodiscard]] std::size_t slot() const override { return inner_->slot(); }
  [[nodiscard]] std::size_t active_count() const override {
    return inner_->active_count();
  }
  [[nodiscard]] std::size_t next_pending_arrival_slot() const override {
    return inner_->next_pending_arrival_slot();
  }
  std::size_t submit(const arvis::SessionSpec& spec) override;
  void step_slot() override;
  bool close_session(std::size_t session_id) override;
  void skip_idle_slots(std::size_t slots) override;
  void sample(arvis::MetricsSnapshot& out,
              std::vector<double>& per_link_used) const override;
  void sample_slo(arvis::SloObservation& observation) override;
  bool apply_link_state(std::size_t link, bool down) override;
  bool apply_capacity_scale(std::size_t link, double scale) override;
  bool apply_link_degrade(std::size_t link, double scale,
                          double delay) override;
  [[nodiscard]] arvis::FaultPlaneSample sample_fault_plane() const override {
    return inner_->sample_fault_plane();
  }
  void enable_retry_feed() override { inner_->enable_retry_feed(); }
  [[nodiscard]] bool retry_feed_pending() const override {
    return inner_->retry_feed_pending();
  }
  void take_retry_feed(std::vector<arvis::RetrySeed>& out) override;

  /// Session·slots served by the executed slots (active count after each
  /// step_slot, summed).
  [[nodiscard]] double session_slots() const { return session_slots_; }
  /// now_ns() at the end of every step_slot span, in slot order.
  [[nodiscard]] const std::vector<std::uint64_t>& step_end_ns() const {
    return step_end_ns_;
  }
  /// Row seed (the lineage key) and QoS tier of every submitted runtime id.
  [[nodiscard]] const std::vector<std::uint64_t>& submitted_rows() const {
    return rows_;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& submitted_qos() const {
    return qos_;
  }

 private:
  arvis::ServingBackend* inner_;
  SpanLog* log_;
  std::uint64_t busy_wait_ns_ = 0;
  double session_slots_ = 0.0;
  std::vector<std::uint64_t> step_end_ns_;
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint8_t> qos_;
};

/// Benchmark-side ArrivalSource over a ScenarioStream: emits exactly the
/// specs replay_scenario's internal source emits (trace_session_spec per
/// row) and records a span around every take().
class TimedScenarioSource final : public arvis::ArrivalSource {
 public:
  TimedScenarioSource(arvis::ScenarioStream stream,
                      const std::vector<const arvis::FrameStatsCache*>& profiles,
                      SpanLog& log, const arvis::ServingBackend& clock)
      : stream_(std::move(stream)),
        profiles_(&profiles),
        log_(&log),
        clock_(&clock) {}

  [[nodiscard]] std::size_t next_slot() const override {
    return stream_.next_slot();
  }
  void take(std::vector<arvis::SessionSpec>& out) override;
  [[nodiscard]] std::size_t rows() const { return rows_; }

 private:
  arvis::ScenarioStream stream_;
  const std::vector<const arvis::FrameStatsCache*>* profiles_;
  SpanLog* log_;
  const arvis::ServingBackend* clock_;
  std::size_t rows_ = 0;
};

}  // namespace

// ------------------------------------------------------------- timing ----

static std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

double SpanLog::total_us(const std::string& name, std::size_t* count) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.us();
      ++n;
    }
  }
  if (count != nullptr) *count = n;
  return total;
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

std::string SpanLog::chrome_trace_json() const {
  std::vector<std::string> lanes;
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans_) {
    const auto it = std::find(lanes.begin(), lanes.end(), s.name);
    const std::size_t lane = static_cast<std::size_t>(it - lanes.begin());
    if (it == lanes.end()) lanes.emplace_back(s.name);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":2,\"tid\":%zu,\"args\":{\"slot\":%zu}}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3, s.us(), lane, s.slot);
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

namespace {

/// RAII span over one call into the runtime.
class Timed {
 public:
  Timed(SpanLog* log, const char* name, std::size_t slot)
      : log_(log), name_(name), slot_(slot), start_(now_ns()) {}
  ~Timed() { log_->add(name_, start_, now_ns(), slot_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::size_t slot_;
  std::uint64_t start_;
};

double read_status_kb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

/// Cuts the window [t0, t1] at the given slot ends (see
/// RunResult::window_us).
static std::vector<double> window_cuts_us(
    std::uint64_t t0, const std::vector<std::uint64_t>& slot_end_ns,
    std::uint64_t t1) {
  std::vector<double> out;
  out.reserve(slot_end_ns.size());
  std::uint64_t prev = t0;
  for (std::size_t i = 0; i < slot_end_ns.size(); ++i) {
    const std::uint64_t end =
        i + 1 == slot_end_ns.size() ? t1 : slot_end_ns[i];
    out.push_back(static_cast<double>(end - prev) / 1e3);
    prev = end;
  }
  return out;
}

static double peak_rss_mb() { return read_status_kb("VmHWM") / 1024.0; }
static double current_rss_bytes() { return read_status_kb("VmRSS") * 1024.0; }

// -------------------------------------------------------- percentiles ----

namespace {

/// 1-based nearest rank of percentile p over n samples, clamped to [1, n].
/// The small epsilon keeps exact products (99.9% of 10000 = 9990) from
/// rounding up a rank through floating-point error.
std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(rank, 1, std::max<std::size_t>(n, 1));
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

TailPercentile tail_percentile(const std::vector<double>& samples) {
  if (samples.empty()) return {};
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const std::size_t beyond =
        samples.size() - nearest_rank(samples.size(), p);
    if (beyond >= 10) return {p, percentile(samples, p), beyond};
  }
  return {};
}

// ------------------------------------------------------------ digests ----

namespace {

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void add(const T& value) {
    static_assert(std::is_arithmetic_v<T>);
    bytes(&value, sizeof value);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void hash_fleet(Fnv& h, const FleetMetrics& f) {
  h.add(f.sessions_submitted);
  h.add(f.sessions_admitted);
  h.add(f.sessions_rejected);
  h.add(f.quality_fairness);
  h.add(f.mean_quality);
  h.add(f.total_time_average_backlog);
  h.add(f.peak_backlog);
  h.add(f.divergent_sessions);
  h.add(f.partial_summary_sessions);
  h.add(f.capacity_offered);
  h.add(f.capacity_used);
  h.add(f.peak_concurrency);
}

void hash_session(Fnv& h, const SessionOutcome& s) {
  h.add(s.id);
  h.add(s.admitted);
  h.add(s.arrival_slot);
  h.add(s.departure_slot);
  h.add(s.weight);
  h.add(s.max_sustainable_depth);
  h.add(s.has_summary);
  h.add(s.trace.size());
  if (s.has_summary) {
    const TraceSummary& m = s.summary;
    h.add(m.time_average_quality);
    h.add(m.time_average_backlog);
    h.add(m.final_backlog);
    h.add(m.peak_backlog);
    h.add(m.mean_depth);
    h.add(m.mean_arrivals);
    h.add(m.mean_service);
    h.add(m.partial);
  }
}

}  // namespace

/// FNV-1a over the deterministic outputs of a cluster run: fleet metrics,
/// the fault/migration books, the driver's counters and every session's
/// outcome and summary (not the per-slot traces).
static std::uint64_t digest_cluster(const ClusterResult& result,
                             const DriverReport& report) {
  Fnv h;
  const ClusterMetrics& m = result.metrics;
  hash_fleet(h, m.fleet);
  for (const FleetMetrics& f : m.per_link) hash_fleet(h, f);
  for (const std::size_t v :
       {m.spills, m.placement_rejects, m.link_down_events, m.link_up_events,
        m.failover_displaced, m.failover_replaced, m.fault_evicted,
        m.fault_closed, m.link_degrade_events, m.migrations_requested,
        m.migrations_completed, m.migrations_aborted}) {
    h.add(v);
  }
  h.add(m.link_load_fairness);
  for (const std::size_t v :
       {report.slots_executed, report.slots_skipped, report.arrivals_injected,
        report.departure_markers, report.closes_applied, report.faults_applied,
        report.faults_ignored, report.retries_scheduled,
        report.retries_abandoned, report.snapshots.size()}) {
    h.add(v);
  }
  h.add(report.slo_breaches);
  h.add(report.slo_blips);
  for (const MetricsSnapshot& s : report.snapshots) {
    h.add(s.slot);
    h.add(s.active_sessions);
    h.add(s.admitted_total);
    h.add(s.rejected_total);
    h.add(s.capacity_used_total);
  }
  for (const ClusterSessionOutcome& s : result.sessions) {
    h.add(s.link);
    h.add(s.spilled);
    h.add(s.arrived);
    h.add(s.failovers);
    h.add(s.migrations);
    h.add(s.fault_evicted);
    hash_session(h, s.session);
  }
  return h.value();
}

/// The same over a single-link run.
static std::uint64_t digest_serving(const ServingResult& result) {
  Fnv h;
  hash_fleet(h, result.fleet);
  h.add(result.admission.attempts);
  h.add(result.admission.accepted);
  h.add(result.admission.rejected);
  for (const SessionOutcome& s : result.sessions) hash_session(h, s);
  return h.value();
}

// -------------------------------------------------------- decorators ----

std::size_t TimedBackend::submit(const SessionSpec& spec) {
  std::size_t id = 0;
  {
    const Timed t(log_, "submit", inner_->slot());
    id = inner_->submit(spec);
  }
  if (rows_.size() <= id) {
    rows_.resize(id + 1, 0);
    qos_.resize(id + 1, 0);
  }
  rows_[id] = spec.seed;
  qos_[id] = spec.qos;
  return id;
}

void TimedBackend::step_slot() {
  const std::size_t slot = inner_->slot();
  const std::uint64_t start = now_ns();
  inner_->step_slot();
  if (busy_wait_ns_ > 0) {
    const std::uint64_t until = now_ns() + busy_wait_ns_;
    while (now_ns() < until) {
    }
  }
  const std::uint64_t end = now_ns();
  log_->add("step_slot", start, end, slot);
  step_end_ns_.push_back(end);
  // Sessions still active after the step are exactly the ones it served
  // (departures close at the next slot's begin).
  session_slots_ += static_cast<double>(inner_->active_count());
}

bool TimedBackend::close_session(std::size_t session_id) {
  const Timed t(log_, "close_session", inner_->slot());
  return inner_->close_session(session_id);
}

void TimedBackend::skip_idle_slots(std::size_t slots) {
  const Timed t(log_, "skip_idle_slots", inner_->slot());
  inner_->skip_idle_slots(slots);
}

void TimedBackend::sample(MetricsSnapshot& out,
                          std::vector<double>& per_link_used) const {
  const Timed t(log_, "sample", inner_->slot());
  inner_->sample(out, per_link_used);
}

void TimedBackend::sample_slo(SloObservation& observation) {
  const Timed t(log_, "sample_slo", inner_->slot());
  inner_->sample_slo(observation);
}

bool TimedBackend::apply_link_state(std::size_t link, bool down) {
  const Timed t(log_, "apply_link_state", inner_->slot());
  return inner_->apply_link_state(link, down);
}

bool TimedBackend::apply_capacity_scale(std::size_t link, double scale) {
  const Timed t(log_, "apply_capacity_scale", inner_->slot());
  return inner_->apply_capacity_scale(link, scale);
}

bool TimedBackend::apply_link_degrade(std::size_t link, double scale,
                                      double delay) {
  const Timed t(log_, "apply_link_degrade", inner_->slot());
  return inner_->apply_link_degrade(link, scale, delay);
}

void TimedBackend::take_retry_feed(std::vector<RetrySeed>& out) {
  const Timed t(log_, "take_retry_feed", inner_->slot());
  inner_->take_retry_feed(out);
}

void TimedScenarioSource::take(std::vector<SessionSpec>& out) {
  const Timed t(log_, "source_take", clock_->slot());
  std::size_t row = stream_.batch_first_row();
  for (const TraceEvent& event : stream_.batch()) {
    out.push_back(trace_session_spec(event, row++, *profiles_));
  }
  rows_ = row;
  stream_.pop();
}

// ---------------------------------------------------------- workloads ----

bool parse_workload(const std::string& name, Workload& out) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (name == kWorkloadNames[i]) {
      out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

static std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

// Seed streams derived from the workload seed.
constexpr std::uint64_t kStreamScenario = 1;
constexpr std::uint64_t kStreamFaults = 2;
constexpr std::uint64_t kStreamRetry = 3;
constexpr std::uint64_t kStreamSessions = 4;
constexpr std::uint64_t kStreamChannel = 16;  // + link index

// The content is a fixture, not an input: profiles come from fixed
// open_test_subject seeds so set-up cost and per-profile tables are the same
// for every workload seed.
constexpr std::uint64_t kProfileSeeds[] = {17, 23, 31, 47};

const std::vector<int> kCandidates{3, 4, 5, 6};

struct Profiles {
  std::vector<std::unique_ptr<FrameStatsCache>> caches;
  std::vector<const FrameStatsCache*> ptrs;
  double v = 0.0;
  double load = 0.0;  ///< cheapest-depth load of profile 0 (bytes/slot)
};

Profiles build_profiles(std::size_t count) {
  Profiles p;
  for (std::size_t i = 0; i < count; ++i) {
    p.caches.push_back(std::make_unique<FrameStatsCache>(
        *open_test_subject(kProfileSeeds[i]), 8, 16));
    p.ptrs.push_back(p.caches.back().get());
  }
  const FrameStatsCache& first = *p.ptrs.front();
  p.v = calibrate_streaming_v(first, kCandidates, 4.0 * first.workload(0).bytes(5));
  p.load = AdmissionController::cheapest_depth_load(first, kCandidates);
  return p;
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * scale)));
}

/// wide_parallel runs a 2-thread executor: each parallel_for waits for its
/// slowest worker, so on a shared host every extra thread adds another vCPU
/// whose stalls land in the slot time. Two exercise the ParallelExecutor
/// while leaving the host's other cores to the rest of the machine.
std::size_t default_threads(Workload w) {
  if (w != Workload::kWideParallel) return 1;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 2);
}

// ---- cluster workloads --------------------------------------------------

/// Everything a cluster workload needs besides the runtime objects: the
/// replay configuration, one channel per link, and the arrival generator.
/// Shared by the decorated benchmark path and the replay_scenario reference.
struct ClusterPlan {
  ReplayConfig replay;
  std::vector<std::unique_ptr<ChannelModel>> channels;
  std::vector<ChannelModel*> channel_ptrs;
  std::unique_ptr<ScenarioGenerator> generator;
};

ClusterPlan make_cluster_plan(const RunOptions& o, const Profiles& profiles,
                              TelemetryConfig telemetry) {
  ClusterPlan plan;
  ReplayConfig& rc = plan.replay;
  ServingConfig& serving = rc.cluster.serving;
  serving.candidates = kCandidates;
  serving.v = profiles.v;
  serving.threads = o.threads != 0 ? o.threads : default_threads(o.workload);
  serving.telemetry = telemetry;
  ScenarioConfig sc;
  sc.seed = derive_seed(o.seed, kStreamScenario);
  constexpr std::size_t kLinks = 4;

  if (o.workload == Workload::kWideParallel) {
    // 100k long-lived sessions arriving over the first ~50 slots; the run
    // stops at a fixed slot and finish() closes everyone still streaming.
    const std::size_t sessions = scaled(100'000, o.scale);
    sc.horizon = 50;
    sc.base_rate = static_cast<double>(sessions) / 50.0;
    sc.mean_duration = 1e9;
    sc.profile_count = 1;
    rc.stop_slot = 120;
    serving.steps = rc.stop_slot;
    serving.policy = SchedulerPolicy::kWorkConserving;
    rc.cluster.placement = PlacementPolicy::kRoundRobin;
    const double per_link =
        static_cast<double>(sessions) / kLinks * profiles.load * 1.2;
    for (std::size_t k = 0; k < kLinks; ++k) {
      plan.channels.push_back(std::make_unique<ConstantChannel>(per_link));
    }
    plan.generator = make_scenario(ScenarioKind::kPoisson, sc);
  } else {
    // Diurnal churn: rate(t) = base * (1 + 0.8 sin(2πt / 2000)) over the
    // rising-and-falling first half-cycle, mean life 300 slots, so
    // concurrency peaks near 10k mid-run.
    const double peak = 10'000.0 * o.scale;
    sc.horizon = scaled(1'000, o.scale);
    sc.mean_duration = 300.0 * std::min(1.0, o.scale * 4.0);
    sc.max_duration = static_cast<std::size_t>(4.0 * sc.mean_duration);
    sc.diurnal_amplitude = 0.8;
    sc.diurnal_period = 2 * sc.horizon;
    sc.base_rate = peak / (1.55 * sc.mean_duration);
    sc.profile_count = std::size(kProfileSeeds);
    // The run stops at the horizon: the measured window is the loaded part
    // of the cycle, and finish() closes whoever is still streaming.
    rc.stop_slot = sc.horizon;
    serving.steps = sc.horizon;
    serving.policy = SchedulerPolicy::kWeightedPriority;
    rc.cluster.placement = PlacementPolicy::kLeastLoaded;
    rc.cluster.spill_limit = 1;
    // Mean link capacity holds a quarter of ~9.6k cheapest-depth sessions
    // after the 0.9 admission target: the diurnal peak is refused a little.
    const double mean_capacity = peak / kLinks * 0.96 / 0.9 * profiles.load;
    // Gilbert–Elliott: bad state at half rate, P(g->b) 0.05, P(b->g) 0.3;
    // mean = good * (1 - 0.5 * 0.05 / 0.35).
    const double good = mean_capacity / (1.0 - 0.5 * 0.05 / 0.35);
    for (std::size_t k = 0; k < kLinks; ++k) {
      plan.channels.push_back(std::make_unique<GilbertElliottChannel>(
          good, 0.5, 0.05, 0.3, Rng(derive_seed(o.seed, kStreamChannel + k))));
    }
    rc.driver.snapshot_period = 50;
    rc.driver.slo.specs = {
        {"accept", SloMetric::kAcceptRatio, 0.95, -1},
        {"premium-accept", SloMetric::kAcceptRatio, 0.99, 2},
        {"queue-delay", SloMetric::kP95QueueDelay, 8.0, -1},
    };
    if (o.workload == Workload::kChaosHandover) {
      // Stratified chaos: the window after warm-up is cut into 8 strata and
      // each gets one outage at a seeded slot and link inside it (brownouts
      // and flaps likewise, one per quarter and half). Every seed then hits
      // the diurnal curve at the same spread of loads, so the damage, and
      // the slot tail it causes, depends little on the seed.
      const std::size_t warmup = sc.horizon / 10;
      const std::size_t strata = 8;
      const std::size_t stride = (sc.horizon - warmup) / strata;
      const std::uint64_t fault_seed = derive_seed(o.seed, kStreamFaults);
      for (std::size_t i = 0; i < strata; ++i) {
        FaultPlanConfig fc;
        fc.seed = derive_seed(fault_seed, i);
        fc.link_count = kLinks;
        fc.warmup = warmup + i * stride;
        fc.horizon = fc.warmup + stride;
        fc.outages = 1;
        fc.outage_slots = 15;
        fc.flaps = i % 4 == 0 ? 1 : 0;
        fc.flap_links = 2;
        fc.brownouts = i % 2 == 0 ? 1 : 0;
        fc.brownout_slots = 40;
        rc.faults.merge(make_fault_plan(fc));
      }
      // Six mobility walkers roam the whole window.
      FaultPlanConfig walk;
      walk.seed = derive_seed(fault_seed, strata);
      walk.link_count = kLinks;
      walk.warmup = warmup;
      walk.horizon = sc.horizon;
      walk.outages = 0;
      walk.walkers = 6;
      rc.faults.merge(make_fault_plan(walk));
      rc.driver.retry.enabled = true;
      rc.driver.retry.seed = derive_seed(o.seed, kStreamRetry);
      rc.cluster.handover.enabled = true;
      rc.cluster.handover.rebalance_on_departure = true;
      serving.degradation.enabled = true;
    }
    plan.generator = make_scenario(ScenarioKind::kDiurnal, sc);
  }
  for (auto& c : plan.channels) plan.channel_ptrs.push_back(c.get());
  return plan;
}

/// The share of offered session lineages that never streamed or were cut
/// by a fault. A lineage is one source row and its retry generations
/// (they share the row's spec seed); its last generation decides.
void count_failures(const ClusterResult& result,
                    const std::vector<std::uint64_t>& rows, std::size_t offered,
                    RunResult& out) {
  std::vector<std::size_t> last(offered, SIZE_MAX);
  for (std::size_t id = 0; id < rows.size(); ++id) {
    if (rows[id] < offered) last[rows[id]] = id;
  }
  std::size_t failed = 0;
  for (const std::size_t id : last) {
    if (id == SIZE_MAX || id >= result.sessions.size()) {
      ++failed;
      continue;
    }
    const ClusterSessionOutcome& s = result.sessions[id];
    const bool served = s.arrived && s.session.admitted && !s.fault_evicted &&
                        s.link >= 0 && s.session.has_summary;
    if (!served) ++failed;
  }
  out.offered = offered;
  out.failed = failed;
}

void check(RunResult& r, bool ok, const std::string& what) {
  if (!ok) r.failures.push_back(what);
}

/// Sums a per-link registry instrument over links 0..k-1.
double sum_counter(const TelemetryRegistry& reg, std::size_t links,
                   const std::string& name) {
  double total = 0.0;
  for (std::size_t k = 0; k < links; ++k) {
    const TelemetryCounter* c =
        reg.find_counter("link" + std::to_string(k) + "/" + name);
    if (c != nullptr) total += static_cast<double>(c->value());
  }
  return total;
}

double sum_histogram(const TelemetryRegistry& reg, std::size_t links,
                     const std::string& name) {
  double total = 0.0;
  for (std::size_t k = 0; k < links; ++k) {
    const TelemetryHistogram* h =
        reg.find_histogram("link" + std::to_string(k) + "/" + name);
    if (h != nullptr) total += h->sum();
  }
  return total;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-phase span totals (µs) of the runtime's PhaseTracer, split into the
/// link lanes and the cluster lane, restricted to slots >= first_slot.
struct PhaseTotals {
  double link[kPhaseCount] = {};
  double cluster[kPhaseCount] = {};
};

PhaseTotals phase_totals(const PhaseTracer& tracer, std::size_t links,
                         std::size_t first_slot) {
  PhaseTotals t;
  for (std::size_t i = 0; i < tracer.size(); ++i) {
    const SpanRecord& r = tracer.at(i);
    if (r.slot < first_slot) continue;
    const double us = static_cast<double>(r.dur_ns) / 1e3;
    const auto p = static_cast<std::size_t>(r.phase);
    if (r.tid < links) {
      t.link[p] += us;
    } else if (r.tid == kClusterTid) {
      t.cluster[p] += us;
    }
  }
  return t;
}

std::size_t tracer_capacity(std::size_t slots, std::size_t links) {
  // Per slot: begin/decide/schedule/drain per link, two placement spans and
  // one cluster decide; per run: one finish span per link. Doubled headroom.
  return 2 * ((slots + 16) * (4 * links + 4) + links) + 4096;
}

void write_traces(const RunOptions& o, const PhaseTracer& tracer,
                  const SpanLog& log, RunResult& r) {
  if (o.chrome_trace_prefix.empty()) return;
  const Status runtime =
      write_chrome_trace(tracer, o.chrome_trace_prefix + "runtime.json");
  check(r, runtime.ok(), "write runtime trace: " + runtime.to_string());
  const Status bench = write_text_file(o.chrome_trace_prefix + "bench.json",
                                       log.chrome_trace_json());
  check(r, bench.ok(), "write bench trace: " + bench.to_string());
}

RunResult run_cluster(const RunOptions& o) {
  RunResult r;
  const std::uint64_t t_setup = now_ns();
  const Profiles profiles = build_profiles(
      o.workload == Workload::kWideParallel ? 1 : std::size(kProfileSeeds));
  const std::uint64_t t_cache = now_ns();

  TelemetryRegistry registry;
  std::unique_ptr<PhaseTracer> tracer;
  TelemetryConfig telemetry;
  if (o.trace) {
    TracerConfig tc;
    tc.capacity = tracer_capacity(2'600, 4);
    tracer = std::make_unique<PhaseTracer>(tc);
    telemetry.mode = TelemetryMode::kFullTrace;
    telemetry.registry = &registry;
    telemetry.tracer = tracer.get();
  }
  ClusterPlan plan = make_cluster_plan(o, profiles, telemetry);
  ReplayConfig& rc = plan.replay;
  if (o.trace) {
    rc.driver.telemetry.mode = TelemetryMode::kCounters;
    rc.driver.telemetry.registry = &registry;
  }
  r.threads = rc.cluster.serving.threads;

  SpanLog log;
  EdgeCluster cluster(rc.cluster,
                      validated_channel_means(plan.channel_ptrs, "perfbench"));
  ClusterBackend stock(cluster, plan.channel_ptrs);
  TimedBackend backend(stock, log);
  backend.set_step_busy_wait_ns(o.step_busy_wait_ns);
  EventLoop loop(rc.driver, backend);
  TimedScenarioSource source(plan.generator->stream(), profiles.ptrs, log,
                             backend);
  loop.set_arrival_source(source);
  loop.schedule_fault_plan(rc.faults);
  if (rc.stop_slot != kNoSlot) loop.schedule_stop(rc.stop_slot);
  const std::uint64_t t_window = now_ns();
  r.cache_build_s = static_cast<double>(t_cache - t_setup) / 1e9;
  r.runtime_build_s = static_cast<double>(t_window - t_cache) / 1e9;
  r.setup_s = static_cast<double>(t_window - t_setup) / 1e9;

  // ---- measured window: the whole open-loop run ----
  const double rss_before = current_rss_bytes();
  const std::uint64_t t0 = now_ns();
  const DriverReport report = loop.run();
  const std::uint64_t t1 = now_ns();
  const double rss_after = current_rss_bytes();
  r.window_s = static_cast<double>(t1 - t0) / 1e9;
  r.session_slots = backend.session_slots();
  r.ns_per_session_slot = ratio(static_cast<double>(t1 - t0), r.session_slots);
  r.slot_us = log.durations_us("step_slot");
  r.window_us = window_cuts_us(t0, backend.step_end_ns(), t1);

  const Status store_ok = cluster.validate_stores();
  check(r, store_ok.ok(), "validate_stores: " + store_ok.to_string());
  SloObservation slo_end;
  if (o.trace) cluster.accumulate_slo(slo_end);
  const std::size_t links = cluster.link_count();

  const std::uint64_t t2 = now_ns();
  const ClusterResult result = cluster.finish();
  r.finish_s = static_cast<double>(now_ns() - t2) / 1e9;
  r.peak_rss_mb = peak_rss_mb();
  r.digest = digest_cluster(result, report);

  // ---- the paper's terms ----
  double quality = 0.0, backlog = 0.0;
  std::size_t summarized = 0;
  for (const ClusterSessionOutcome& s : result.sessions) {
    if (!s.session.admitted || !s.session.has_summary) continue;
    quality += s.session.summary.time_average_quality;
    backlog += s.session.summary.time_average_backlog;
    ++summarized;
  }
  r.mean_quality = ratio(quality, static_cast<double>(summarized));
  r.mean_backlog_kb = ratio(backlog, static_cast<double>(summarized)) / 1e3;
  count_failures(result, backend.submitted_rows(), source.rows(), r);

  // ---- correctness gate: the books balance ----
  const ClusterMetrics& m = result.metrics;
  std::size_t tier_arrivals[kSloTiers] = {}, tier_admitted[kSloTiers] = {},
              tier_rejected[kSloTiers] = {};
  std::size_t stranded = 0;
  const auto& qos = backend.submitted_qos();
  check(r, qos.size() == result.sessions.size(),
        "submitted ids != cluster sessions");
  for (std::size_t id = 0; id < result.sessions.size() && id < qos.size();
       ++id) {
    const ClusterSessionOutcome& s = result.sessions[id];
    if (!s.arrived) {
      // Only an arrival due at the stop slot may be left unplaced.
      if (s.session.arrival_slot < cluster.slot()) ++stranded;
      continue;
    }
    ++tier_arrivals[qos[id]];
    if (s.session.admitted) {
      ++tier_admitted[qos[id]];
      if (s.link < 0 || s.session.departure_slot > cluster.slot()) ++stranded;
    } else {
      ++tier_rejected[qos[id]];
    }
  }
  std::size_t admitted = 0, rejected = 0;
  for (std::size_t q = 0; q < kSloTiers; ++q) {
    check(r, tier_arrivals[q] == tier_admitted[q] + tier_rejected[q],
          "tier " + std::to_string(q) + ": arrivals != admitted + rejected");
    admitted += tier_admitted[q];
    rejected += tier_rejected[q];
  }
  check(r, admitted == m.fleet.sessions_admitted,
        "admitted != fleet.sessions_admitted");
  check(r, rejected == m.placement_rejects,
        "rejected != placement_rejects");
  check(r, m.failover_displaced ==
               m.failover_replaced + m.fault_evicted + m.fault_closed,
        "failover books: displaced != replaced + evicted + closed");
  check(r, m.migrations_requested ==
               m.migrations_completed + m.migrations_aborted,
        "migration books: requested != completed + aborted");
  check(r, report.migrations_requested == m.migrations_requested &&
               report.migrations_completed == m.migrations_completed,
        "driver and cluster migration books disagree");
  check(r, stranded == 0, std::to_string(stranded) + " stranded sessions");
  // Retries scheduled past the stop slot never inject.
  check(r, report.arrivals_injected >= source.rows() &&
               report.arrivals_injected <=
                   source.rows() + report.retries_scheduled,
        "arrivals injected outside [source rows, rows + retries scheduled]");
  check(r, !report.hit_slot_cap, "run hit the driver's slot cap");
  check(r, r.session_slots > 0.0 && r.slot_us.size() == report.slots_executed &&
               r.window_us.size() == r.slot_us.size(),
        "no measured slots, or slot samples != slots executed");
  check(r, std::isfinite(r.mean_quality) && std::isfinite(r.mean_backlog_kb),
        "non-finite quality/backlog");

  if (!o.trace) {
    r.correct = r.failures.empty();
    return r;
  }

  // ---- per-layer metrics (traced run) ----
  const double slots = static_cast<double>(report.slots_executed);
  const PhaseTotals pt = phase_totals(*tracer, links, 0);
  auto per_slot = [&](double us) { return ratio(us, slots); };
  const auto P = [](Phase p) { return static_cast<std::size_t>(p); };

  const double run_us = static_cast<double>(t1 - t0) / 1e3;
  const double step_us = log.total_us("step_slot");
  const double take_us = log.total_us("source_take");
  std::size_t samples = 0, slo_samples = 0, faults = 0;
  const double sample_us = log.total_us("sample", &samples) +
                           log.total_us("sample_slo", &slo_samples);
  double fault_us = 0.0;
  for (const char* verb :
       {"apply_link_state", "apply_capacity_scale", "apply_link_degrade"}) {
    std::size_t n = 0;
    fault_us += log.total_us(verb, &n);
    faults += n;
  }
  const double api_us = log.total_us("submit") + log.total_us("close_session") +
                        log.total_us("skip_idle_slots") +
                        log.total_us("take_retry_feed") + fault_us;
  const double link_phases = pt.link[P(Phase::kBeginSlot)] +
                             pt.link[P(Phase::kDecide)] +
                             pt.link[P(Phase::kSchedule)] +
                             pt.link[P(Phase::kDrain)];
  const double place_us = pt.cluster[P(Phase::kPlace)];
  const double exec_decide_us = pt.cluster[P(Phase::kDecide)];
  const double cluster_self =
      step_us - link_phases - place_us - exec_decide_us;
  const double driver_self = run_us - step_us - take_us - sample_us - api_us;

  auto& L = r.layers;
  L["driver.self_us_per_slot"] = per_slot(driver_self);
  L["driver.source_us_per_slot"] = per_slot(take_us);
  L["driver.snapshot_us"] = ratio(sample_us, static_cast<double>(samples));
  L["driver.snapshot_us_per_slot"] = per_slot(sample_us);
  L["driver.events"] = static_cast<double>(
      report.arrivals_injected + report.departure_markers +
      report.closes_applied + report.closes_ignored + report.faults_applied +
      report.faults_ignored + report.snapshots.size());
  L["driver.slots_executed"] = slots;
  L["driver.retries_scheduled"] = static_cast<double>(report.retries_scheduled);
  L["driver.retries_abandoned"] = static_cast<double>(report.retries_abandoned);

  const std::vector<double> steps = log.durations_us("step_slot");
  L["cluster.step_us_p50"] = percentile(steps, 50.0);
  L["cluster.step_us_p99"] = tail_percentile(steps).value;
  L["cluster.self_us_per_slot"] = per_slot(cluster_self);
  L["cluster.api_us_per_slot"] = per_slot(api_us - fault_us);
  L["cluster.place_us_per_slot"] = per_slot(place_us);
  L["cluster.fault_apply_us"] = ratio(fault_us, static_cast<double>(faults));
  L["cluster.fault_apply_us_per_slot"] = per_slot(fault_us);
  const TelemetryCounter* placed = registry.find_counter("cluster/sessions_placed");
  L["cluster.placed"] = placed ? static_cast<double>(placed->value()) : 0.0;
  L["cluster.rejects"] = static_cast<double>(m.placement_rejects);
  L["cluster.spills"] = static_cast<double>(m.spills);
  L["cluster.migrations_requested"] =
      static_cast<double>(m.migrations_requested);
  L["cluster.migrations_completed"] =
      static_cast<double>(m.migrations_completed);
  L["cluster.migration_success"] =
      ratio(static_cast<double>(m.migrations_completed),
            static_cast<double>(m.migrations_requested));
  L["cluster.failover_displaced"] = static_cast<double>(m.failover_displaced);
  L["cluster.failover_replaced"] = static_cast<double>(m.failover_replaced);

  L["session_manager.begin_us_per_slot"] = per_slot(pt.link[P(Phase::kBeginSlot)]);
  L["session_manager.decide_us_per_slot"] = per_slot(pt.link[P(Phase::kDecide)]);
  L["session_manager.schedule_us_per_slot"] =
      per_slot(pt.link[P(Phase::kSchedule)]);
  L["session_manager.drain_us_per_slot"] = per_slot(pt.link[P(Phase::kDrain)]);
  L["session_manager.finish_us_per_slot"] = per_slot(
      pt.link[P(Phase::kSchedule)] + pt.link[P(Phase::kDrain)]);
  L["session_manager.admitted"] = sum_counter(registry, links, "admission_accepted");
  L["session_manager.rejected.best_effort"] =
      static_cast<double>(slo_end.tier[0].rejected);
  L["session_manager.rejected.standard"] =
      static_cast<double>(slo_end.tier[1].rejected);
  L["session_manager.rejected.premium"] =
      static_cast<double>(slo_end.tier[2].rejected);
  L["session_manager.brownout_transitions"] =
      sum_counter(registry, links, "brownout_transitions");

  const double groups = sum_histogram(registry, links, "decide_groups");
  const double active = sum_histogram(registry, links, "active_sessions");
  const double reuse = sum_counter(registry, links, "decide_group_reuses");
  const double rebuild = sum_counter(registry, links, "decide_group_rebuilds");
  L["session_store.decide_groups_per_slot"] = per_slot(groups);
  L["session_store.decide_keys_per_session"] = ratio(groups, active);
  L["session_store.decide_reuse_ratio"] = ratio(reuse, reuse + rebuild);
  L["session_store.bytes_per_session_slot"] =
      ratio(rss_after - rss_before, r.session_slots);

  L["scheduler.us_per_slot"] = per_slot(pt.link[P(Phase::kSchedule)]);
  const double fast = sum_counter(registry, links, "scheduler_fast_path");
  const double generic = sum_counter(registry, links, "scheduler_generic");
  L["scheduler.fast_path_ratio"] = ratio(fast, fast + generic);

  L["executor.decide_us_per_slot"] = per_slot(exec_decide_us);

  L["telemetry.spans_dropped"] = static_cast<double>(tracer->dropped());
  L["telemetry.slot_wall_us"] = per_slot(run_us);
  const double attributed =
      driver_self + take_us + sample_us + api_us + cluster_self + place_us +
      exec_decide_us + link_phases;
  L["telemetry.unattributed_us_per_slot"] = per_slot(run_us - attributed);
  check(r, tracer->dropped() == 0, "tracer ring dropped spans");

  write_traces(o, *tracer, log, r);
  r.correct = r.failures.empty();
  return r;
}

// ---- dense_steady ------------------------------------------------------

constexpr std::size_t kDenseSessions = 10'000;
constexpr std::size_t kDenseWarmSlots = 20;
constexpr std::size_t kDenseWindowSlots = 1000;

struct DenseShape {
  std::size_t sessions;
  std::size_t warm;
  std::size_t window;
};

DenseShape dense_shape(double scale) {
  return {scaled(kDenseSessions, scale), kDenseWarmSlots,
          scaled(kDenseWindowSlots, scale)};
}

ServingConfig dense_config(const Profiles& profiles, const DenseShape& shape) {
  ServingConfig config;
  config.steps = shape.warm + shape.window;
  config.candidates = kCandidates;
  config.v = profiles.v;
  config.policy = SchedulerPolicy::kWorkConserving;
  config.threads = 1;
  config.admission.utilization_target = 1.0;
  return config;
}

SessionSpec dense_spec(const Profiles& profiles, std::uint64_t seed,
                       std::size_t i) {
  SessionSpec spec;
  spec.cache = profiles.ptrs.front();
  spec.seed = derive_seed(derive_seed(seed, kStreamSessions), i);
  return spec;
}

double dense_capacity(const Profiles& profiles, const DenseShape& shape) {
  return static_cast<double>(shape.sessions) * profiles.load * 1.2;
}

void check_dense_result(const ServingResult& result, const DenseShape& shape,
                        RunResult& r) {
  check(r, result.admission.accepted == shape.sessions &&
               result.admission.rejected == 0,
        "dense: not every session admitted");
  check(r, result.admission.attempts ==
               result.admission.accepted + result.admission.rejected,
        "dense: admission attempts != accepted + rejected");
  double quality = 0.0, backlog = 0.0;
  std::size_t summarized = 0;
  for (const SessionOutcome& s : result.sessions) {
    if (!s.admitted || !s.has_summary) continue;
    quality += s.summary.time_average_quality;
    backlog += s.summary.time_average_backlog;
    ++summarized;
  }
  check(r, summarized == shape.sessions, "dense: sessions without summary");
  r.mean_quality = ratio(quality, static_cast<double>(summarized));
  r.mean_backlog_kb = ratio(backlog, static_cast<double>(summarized)) / 1e3;
  r.offered = shape.sessions;
  r.failed = shape.sessions - summarized;
}

RunResult run_dense(const RunOptions& o) {
  RunResult r;
  const DenseShape shape = dense_shape(o.scale);
  const std::uint64_t t_setup = now_ns();
  const Profiles profiles = build_profiles(1);
  const std::uint64_t t_cache = now_ns();

  TelemetryRegistry registry;
  std::unique_ptr<PhaseTracer> tracer;
  ServingConfig config = dense_config(profiles, shape);
  if (o.trace) {
    TracerConfig tc;
    tc.capacity = tracer_capacity(shape.warm + shape.window, 1);
    tracer = std::make_unique<PhaseTracer>(tc);
    config.telemetry.mode = TelemetryMode::kFullTrace;
    config.telemetry.registry = &registry;
    config.telemetry.tracer = tracer.get();
  }
  const double capacity = dense_capacity(profiles, shape);
  SessionManager manager(config, capacity);
  const std::uint64_t t_built = now_ns();

  // Slot 0 places the whole fleet (the external-placement hook), then the
  // warm-up slots run; both are set-up.
  manager.begin_slot();
  for (std::size_t i = 0; i < shape.sessions; ++i) {
    manager.try_place(dense_spec(profiles, o.seed, i), i);
  }
  manager.decide_phase();
  manager.finish_slot(capacity);
  for (std::size_t t = 1; t < shape.warm; ++t) {
    manager.begin_slot();
    manager.decide_phase();
    manager.finish_slot(capacity);
  }
  const std::uint64_t t_window = now_ns();
  r.cache_build_s = static_cast<double>(t_cache - t_setup) / 1e9;
  r.runtime_build_s = static_cast<double>(t_built - t_cache) / 1e9;
  r.setup_s = static_cast<double>(t_window - t_setup) / 1e9;

  // ---- measured window: begin -> decide -> finish per slot ----
  SpanLog log;
  log.reserve(3 * shape.window);
  const double rss_before = current_rss_bytes();
  const std::size_t first_slot = manager.slot();
  r.slot_us.reserve(shape.window);
  std::vector<std::uint64_t> slot_end_ns;
  slot_end_ns.reserve(shape.window);
  const std::uint64_t t0 = now_ns();
  for (std::size_t t = 0; t < shape.window; ++t) {
    const std::size_t slot = manager.slot();
    const std::uint64_t a = now_ns();
    manager.begin_slot();
    const std::uint64_t b = now_ns();
    manager.decide_phase();
    const std::uint64_t c = now_ns();
    manager.finish_slot(capacity);
    const std::uint64_t d = now_ns();
    r.session_slots += static_cast<double>(manager.decide_width());
    log.add("begin_slot", a, b, slot);
    log.add("decide_phase", b, c, slot);
    log.add("finish_slot", c, d, slot);
    r.slot_us.push_back(static_cast<double>(d - a) / 1e3);
    slot_end_ns.push_back(d);
  }
  const std::uint64_t t1 = now_ns();
  r.window_us = window_cuts_us(t0, slot_end_ns, t1);
  const double rss_after = current_rss_bytes();
  r.window_s = static_cast<double>(t1 - t0) / 1e9;
  r.ns_per_session_slot = ratio(static_cast<double>(t1 - t0), r.session_slots);

  const Status store_ok = manager.validate_store();
  check(r, store_ok.ok(), "validate_store: " + store_ok.to_string());
  const std::uint64_t t2 = now_ns();
  const ServingResult result = manager.finish();
  r.finish_s = static_cast<double>(now_ns() - t2) / 1e9;
  r.peak_rss_mb = peak_rss_mb();
  r.digest = digest_serving(result);
  check_dense_result(result, shape, r);
  check(r, r.session_slots ==
               static_cast<double>(shape.sessions * shape.window),
        "dense: session·slots != sessions × window");

  if (!o.trace) {
    r.correct = r.failures.empty();
    return r;
  }

  // ---- per-layer metrics (traced run) ----
  const double slots = static_cast<double>(shape.window);
  auto per_slot = [&](double us) { return ratio(us, slots); };
  const auto P = [](Phase p) { return static_cast<std::size_t>(p); };
  const PhaseTotals pt = phase_totals(*tracer, 1, first_slot);
  const double run_us = static_cast<double>(t1 - t0) / 1e3;
  const double begin_us = log.total_us("begin_slot");
  const double decide_us = log.total_us("decide_phase");
  const double finish_us = log.total_us("finish_slot");
  const double schedule_us = pt.link[P(Phase::kSchedule)];
  const double drain_us = pt.link[P(Phase::kDrain)];
  const double driver_self = run_us - begin_us - decide_us - finish_us;

  auto& L = r.layers;
  L["driver.self_us_per_slot"] = per_slot(driver_self);
  L["driver.slots_executed"] = slots;
  L["session_manager.begin_us_per_slot"] = per_slot(begin_us);
  L["session_manager.decide_us_per_slot"] = per_slot(decide_us);
  L["session_manager.finish_us_per_slot"] = per_slot(finish_us);
  L["session_manager.schedule_us_per_slot"] = per_slot(schedule_us);
  L["session_manager.drain_us_per_slot"] = per_slot(drain_us);
  L["session_manager.admitted"] =
      sum_counter(registry, 1, "admission_accepted");
  L["session_manager.brownout_transitions"] =
      sum_counter(registry, 1, "brownout_transitions");
  L["scheduler.us_per_slot"] = per_slot(schedule_us);
  const double fast = sum_counter(registry, 1, "scheduler_fast_path");
  const double generic = sum_counter(registry, 1, "scheduler_generic");
  L["scheduler.fast_path_ratio"] = ratio(fast, fast + generic);
  const double groups = sum_histogram(registry, 1, "decide_groups");
  const double active = sum_histogram(registry, 1, "active_sessions");
  const double reuse = sum_counter(registry, 1, "decide_group_reuses");
  const double rebuild = sum_counter(registry, 1, "decide_group_rebuilds");
  const double all_slots = static_cast<double>(manager.slot());
  L["session_store.decide_groups_per_slot"] = ratio(groups, all_slots);
  L["session_store.decide_keys_per_session"] = ratio(groups, active);
  L["session_store.decide_reuse_ratio"] = ratio(reuse, reuse + rebuild);
  L["session_store.bytes_per_session_slot"] =
      ratio(rss_after - rss_before, r.session_slots);
  L["telemetry.spans_dropped"] = static_cast<double>(tracer->dropped());
  L["telemetry.slot_wall_us"] = per_slot(run_us);
  // finish_slot's own time is its span minus the schedule and drain spans
  // inside it; the layers then add back up to the slot wall time.
  const double attributed = driver_self + begin_us + decide_us +
                            (finish_us - schedule_us - drain_us) +
                            schedule_us + drain_us;
  L["telemetry.unattributed_us_per_slot"] = per_slot(run_us - attributed);
  check(r, tracer->dropped() == 0, "tracer ring dropped spans");

  write_traces(o, *tracer, log, r);
  r.correct = r.failures.empty();
  return r;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  RunResult r = options.workload == Workload::kDenseSteady
                    ? run_dense(options)
                    : run_cluster(options);
  if (!options.trace) return r;
  r.layers["setup.cache_build_s"] = r.cache_build_s;
  r.layers["setup.runtime_build_s"] = r.runtime_build_s;
  return r;
}

std::uint64_t reference_replay_digest(const RunOptions& options) {
  if (options.workload == Workload::kDenseSteady) {
    throw std::invalid_argument("reference_replay_digest: cluster workloads only");
  }
  const Profiles profiles = build_profiles(
      options.workload == Workload::kWideParallel ? 1
                                                  : std::size(kProfileSeeds));
  ClusterPlan plan = make_cluster_plan(options, profiles, TelemetryConfig{});
  const ReplayResult result = replay_scenario(plan.replay, *plan.generator,
                                              profiles.ptrs, plan.channel_ptrs);
  return digest_cluster(result.cluster, result.report);
}

std::uint64_t reference_dense_step_digest(const RunOptions& options) {
  const DenseShape shape = dense_shape(options.scale);
  const Profiles profiles = build_profiles(1);
  const double capacity = dense_capacity(profiles, shape);
  SessionManager manager(dense_config(profiles, shape), capacity);
  for (std::size_t i = 0; i < shape.sessions; ++i) {
    manager.submit(dense_spec(profiles, options.seed, i));
  }
  for (std::size_t t = 0; t < shape.warm + shape.window; ++t) {
    manager.step(capacity);
  }
  return digest_serving(manager.finish());
}

}  // namespace perfbench
