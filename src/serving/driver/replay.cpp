#include "serving/driver/replay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "serving/telemetry/registry.hpp"

namespace arvis {

namespace {

void validate_profiles(const std::vector<const FrameStatsCache*>& profiles,
                       const char* who) {
  if (profiles.empty()) {
    throw std::invalid_argument(std::string(who) + ": need >= 1 profile");
  }
  for (const FrameStatsCache* profile : profiles) {
    if (profile == nullptr) {
      throw std::invalid_argument(std::string(who) + ": null profile");
    }
  }
}

/// Adapts a ScenarioStream to the loop's pull interface, remembering each
/// emitted row's QoS class (one byte per row — the only per-row state the
/// incremental path keeps) so the per-tier rollup can join outcomes the
/// same way the materialized path joins against trace rows.
class ScenarioArrivalSource final : public ArrivalSource {
 public:
  ScenarioArrivalSource(ScenarioStream stream,
                        const std::vector<const FrameStatsCache*>& profiles)
      : stream_(std::move(stream)), profiles_(&profiles) {}

  [[nodiscard]] std::size_t next_slot() const override {
    return stream_.next_slot();  // kExhausted == kNoSlot numerically
  }

  void take(std::vector<SessionSpec>& out) override {
    std::size_t row = stream_.batch_first_row();
    for (const TraceEvent& event : stream_.batch()) {
      out.push_back(trace_session_spec(event, row++, *profiles_));
      qos_.push_back(event.qos);
    }
    stream_.pop();
  }

  /// QoS class per emitted row (row index == cluster session id).
  [[nodiscard]] const std::vector<QosClass>& emitted_qos() const noexcept {
    return qos_;
  }

 private:
  ScenarioStream stream_;
  const std::vector<const FrameStatsCache*>* profiles_;
  std::vector<QosClass> qos_;
};

/// The per-tier rollup both replay shapes share. Arrival events fire in row
/// order, so the sessions the loop submitted are a prefix of the rows (a
/// stop event may cut the tail off before its events ever fire) and cluster
/// session ids are row indices — the join is a straight walk. Rows the run
/// never reached count nowhere, mirroring fleet accounting, so each tier's
/// books balance: arrivals == admitted + rejected.
template <class QosOfRow>
void roll_up_qos(ReplayResult& result, std::size_t rows,
                 const QosOfRow& qos_of_row) {
  // Retry generations live past the trace rows (fresh ids, no row to join
  // against); the rollup covers original arrivals only.
  const std::size_t joined = std::min(result.cluster.sessions.size(), rows);
  for (std::size_t i = 0; i < joined; ++i) {
    const ClusterSessionOutcome& outcome = result.cluster.sessions[i];
    if (!outcome.arrived) continue;
    QosOutcome& tier = result.per_qos[static_cast<std::size_t>(qos_of_row(i))];
    ++tier.arrivals;
    if (outcome.session.admitted) {
      ++tier.admitted;
    } else {
      ++tier.rejected;
    }
  }
}

/// Flushes the per-tier rollup into the registry ("qos/<tier>/..."): the
/// replay layer is the only place QoS class and admission outcome meet, so
/// the counters live here rather than in the runtime.
void flush_qos_counters(const ReplayResult& result,
                        const TelemetryConfig& telemetry) {
  if (!telemetry.counters_on()) return;
  TelemetryRegistry& reg = *telemetry.registry;
  for (std::size_t q = 0; q < kQosClassCount; ++q) {
    const QosOutcome& tier = result.per_qos[q];
    const std::string prefix =
        std::string("qos/") + to_string(static_cast<QosClass>(q)) + "/";
    reg.counter(prefix + "arrivals").add(tier.arrivals);
    reg.counter(prefix + "admitted").add(tier.admitted);
    reg.counter(prefix + "rejected").add(tier.rejected);
  }
}

}  // namespace

// The runtime's raw tier index and the trace's QosClass must agree — the
// replayer is where the two layers meet.
static_assert(kQosClassCount == kSloTiers,
              "QosClass and the SLO tier set must stay in sync");

SessionSpec trace_session_spec(
    const TraceEvent& event, std::size_t index,
    const std::vector<const FrameStatsCache*>& profiles) {
  if (event.profile >= profiles.size()) {
    throw std::invalid_argument("trace_session_spec: profile id out of range");
  }
  SessionSpec spec;
  spec.cache = profiles[event.profile];
  spec.arrival_slot = event.t_arrive;
  spec.departure_slot =
      event.duration > 0 ? event.t_arrive + event.duration : kNeverDeparts;
  spec.weight = event.weight;
  // The trace carries no seed column; the row index tags the session.
  spec.seed = index;
  spec.qos = static_cast<std::uint8_t>(event.qos);
  return spec;
}

ReplayResult replay_trace(const ReplayConfig& config,
                          const WorkloadTrace& trace,
                          const std::vector<const FrameStatsCache*>& profiles,
                          const std::vector<ChannelModel*>& channels) {
  validate_profiles(profiles, "replay_trace");
  const std::vector<double> means =
      validated_channel_means(channels, "replay_trace");
  if (const Status status = validate_workload_trace(trace, profiles.size());
      !status.ok()) {
    throw std::invalid_argument("replay_trace: " + status.message());
  }
  // The trace's own validation could not know the cluster shape; here both
  // fault schedules check against the real link count.
  FaultPlan trace_faults;
  trace_faults.events = trace.faults;
  if (const Status status = validate_fault_plan(trace_faults, means.size());
      !status.ok()) {
    throw std::invalid_argument("replay_trace: " + status.message());
  }
  if (const Status status = validate_fault_plan(config.faults, means.size());
      !status.ok()) {
    throw std::invalid_argument("replay_trace: " + status.message());
  }

  EdgeCluster cluster(config.cluster, means);
  ClusterBackend backend(cluster, channels);
  EventLoop loop(config.driver, backend);
  // One reservation for the whole schedule burst: the calendar and the
  // payload store never reallocate while the trace streams in.
  loop.reserve(trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& event = trace.events[i];
    const SessionSpec spec = trace_session_spec(event, i, profiles);
    loop.schedule_arrival(event.t_arrive, spec);
    if (spec.departure_slot != kNeverDeparts) {
      loop.schedule_departure_marker(spec.departure_slot);
    }
    // Mid-stream abandonment: arrival events fire in row order, so the
    // cluster session id is the row index.
    if (event.t_close != 0) loop.schedule_close(event.t_close, i);
  }
  // Trace faults schedule before config faults, so on a slot tie the file's
  // own chaos fires first (calendar order is (slot, schedule-order)).
  loop.schedule_fault_plan(trace_faults);
  loop.schedule_fault_plan(config.faults);
  if (config.stop_slot != kNoSlot) loop.schedule_stop(config.stop_slot);

  ReplayResult result;
  result.report = loop.run();
  result.cluster = cluster.finish();
  roll_up_qos(result, trace.events.size(),
              [&](std::size_t i) { return trace.events[i].qos; });
  flush_qos_counters(result, config.driver.telemetry);
  return result;
}

ReplayResult replay_scenario(
    const ReplayConfig& config, const ScenarioGenerator& generator,
    const std::vector<const FrameStatsCache*>& profiles,
    const std::vector<ChannelModel*>& channels) {
  validate_profiles(profiles, "replay_scenario");
  const std::vector<double> means =
      validated_channel_means(channels, "replay_scenario");
  if (const Status status = validate_fault_plan(config.faults, means.size());
      !status.ok()) {
    throw std::invalid_argument("replay_scenario: " + status.message());
  }

  EdgeCluster cluster(config.cluster, means);
  ClusterBackend backend(cluster, channels);
  EventLoop loop(config.driver, backend);
  ScenarioArrivalSource source(generator.stream(), profiles);
  loop.set_arrival_source(source);
  loop.schedule_fault_plan(config.faults);
  if (config.stop_slot != kNoSlot) loop.schedule_stop(config.stop_slot);

  ReplayResult result;
  result.report = loop.run();
  result.cluster = cluster.finish();
  roll_up_qos(result, source.emitted_qos().size(),
              [&](std::size_t i) { return source.emitted_qos()[i]; });
  flush_qos_counters(result, config.driver.telemetry);
  return result;
}

}  // namespace arvis
