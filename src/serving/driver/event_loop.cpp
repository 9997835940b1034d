#include "serving/driver/event_loop.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.hpp"
#include "serving/metrics.hpp"
#include "serving/telemetry/export.hpp"
#include "serving/telemetry/registry.hpp"
#include "serving/telemetry/tracer.hpp"

namespace arvis {

std::vector<double> validated_channel_means(
    const std::vector<ChannelModel*>& channels, const char* who) {
  if (channels.empty()) {
    throw std::invalid_argument(std::string(who) + ": need >= 1 channel");
  }
  std::vector<double> means;
  means.reserve(channels.size());
  for (ChannelModel* channel : channels) {
    if (channel == nullptr) {
      throw std::invalid_argument(std::string(who) + ": null channel");
    }
    means.push_back(channel->mean_capacity_bytes());
  }
  return means;
}

CsvTable DriverReport::snapshot_table() const {
  // "offered_bytes" (the window's offered capacity) is appended last so
  // consumers indexing the original eight columns keep working; it is what
  // disambiguates window_utilization == 0 (idle window: offered_bytes == 0;
  // saturated-at-zero: offered_bytes > 0).
  CsvTable table({"slot", "active", "admitted", "rejected", "offered", "used",
                  "window_utilization", "link_fairness", "offered_bytes"});
  for (const MetricsSnapshot& s : snapshots) {
    table.add_row({static_cast<std::int64_t>(s.slot),
                   static_cast<std::int64_t>(s.active_sessions),
                   static_cast<std::int64_t>(s.admitted_total),
                   static_cast<std::int64_t>(s.rejected_total),
                   s.capacity_offered_total, s.capacity_used_total,
                   s.window_utilization, s.link_load_fairness,
                   s.window_offered_bytes});
  }
  return table;
}

std::size_t ServingBackend::step_slots(std::size_t max_slots) {
  std::size_t done = 0;
  // A pending retry feed ends the burst early: the loop must convert the
  // seeds into future arrival events before more slots run, or a retry
  // storm would collapse into a single batch at the end of the stretch.
  while (done < max_slots && !retry_feed_pending() &&
         (active_count() > 0 || next_pending_arrival_slot() <= slot())) {
    step_slot();
    ++done;
  }
  return done;
}

ClusterBackend::ClusterBackend(EdgeCluster& cluster,
                               std::vector<ChannelModel*> channels)
    : cluster_(&cluster), channels_(std::move(channels)) {
  if (channels_.size() != cluster_->link_count()) {
    throw std::invalid_argument(
        "ClusterBackend: one channel per link required");
  }
  for (const ChannelModel* channel : channels_) {
    if (channel == nullptr) {
      throw std::invalid_argument("ClusterBackend: null channel");
    }
  }
  caps_.resize(channels_.size());
}

void ClusterBackend::step_slot() {
  for (std::size_t k = 0; k < channels_.size(); ++k) {
    caps_[k] = channels_[k]->next_capacity_bytes();
  }
  cluster_->step(caps_);
}

void ClusterBackend::sample(MetricsSnapshot& out,
                            std::vector<double>& per_link_used) const {
  out.active_sessions = cluster_->active_count();
  std::size_t accepted = 0;
  per_link_used.resize(cluster_->link_count());
  for (std::size_t k = 0; k < cluster_->link_count(); ++k) {
    accepted += cluster_->link(k).admission_stats().accepted;
    per_link_used[k] = cluster_->link(k).metrics().capacity_used_total();
  }
  out.admitted_total = accepted;
  out.rejected_total = cluster_->ledger().placement_rejects;
  out.capacity_offered_total = cluster_->metrics().capacity_offered_total();
  out.capacity_used_total = cluster_->metrics().capacity_used_total();
}

EventLoop::EventLoop(const DriverConfig& config, ServingBackend& backend)
    : config_(config), backend_(&backend) {
  validate_telemetry(config_.telemetry, "EventLoop");
  if (config_.telemetry.trace_on()) tracer_ = config_.telemetry.tracer;
  if (config_.telemetry.counters_on()) {
    h_batch_ = &config_.telemetry.registry->histogram("driver/event_batch_size");
  }
  flight_ = resolve_flight_recorder(config_.telemetry);
  if (config_.retry.enabled) {
    if (config_.retry.max_attempts == 0 ||
        config_.retry.base_backoff_slots == 0 ||
        config_.retry.max_backoff_slots < config_.retry.base_backoff_slots) {
      throw std::invalid_argument(
          "EventLoop: retry needs max_attempts >= 1 and "
          "1 <= base_backoff_slots <= max_backoff_slots");
    }
    backend_->enable_retry_feed();
  }
  if (!config_.slo.specs.empty()) {
    slo_ = std::make_unique<SloMonitor>(config_.slo);  // validates
    if (config_.telemetry.counters_on()) {
      TelemetryRegistry& reg = *config_.telemetry.registry;
      for (const SloSpec& spec : config_.slo.specs) {
        c_slo_breach_.push_back(&reg.counter("slo/" + spec.name + "/breaches"));
        c_slo_blip_.push_back(&reg.counter("slo/" + spec.name + "/blips"));
      }
    }
  }
}

void EventLoop::reserve(std::size_t arrivals) {
  specs_.reserve(arrivals);
  spec_attempt_.reserve(arrivals);
  // Each arrival may ride with a departure marker, plus stop + snapshot.
  events_.reserve(2 * arrivals + 4);
}

void EventLoop::push_event(std::size_t slot, EventKind kind,
                           std::size_t payload) {
  events_.push(CalendarEvent{slot, seq_++,
                             static_cast<std::uint8_t>(kind), payload});
}

void EventLoop::push(std::size_t slot, EventKind kind, std::size_t payload) {
  // Only the loop's own snapshot re-arm (and the source's marker rides,
  // which bypass this via push_event) may enqueue mid-run; the public
  // scheduling API stays closed once run() starts.
  if (ran_ && kind != EventKind::kSnapshot) {
    throw std::logic_error("EventLoop: cannot schedule after run()");
  }
  if (kind == EventKind::kArrival) ++arrival_events_;
  if (kind == EventKind::kStop) ++stop_events_;
  push_event(slot, kind, payload);
}

void EventLoop::schedule_arrival(std::size_t slot, const SessionSpec& spec) {
  specs_.push_back(spec);
  spec_attempt_.push_back(0);
  push(slot, EventKind::kArrival, specs_.size() - 1);
}

void EventLoop::schedule_departure_marker(std::size_t slot) {
  push(slot, EventKind::kDeparture, 0);
}

void EventLoop::schedule_close(std::size_t slot, std::size_t session_id) {
  push(slot, EventKind::kClose, session_id);
}

void EventLoop::schedule_stop(std::size_t slot) {
  push(slot, EventKind::kStop, 0);
}

void EventLoop::schedule_fault_plan(const FaultPlan& plan) {
  faults_.reserve(faults_.size() + plan.events.size());
  for (const FaultEvent& f : plan.events) {
    faults_.push_back(f);
    push(f.slot, EventKind::kFault, faults_.size() - 1);
  }
}

void EventLoop::set_arrival_source(ArrivalSource& source) {
  if (ran_) {
    throw std::logic_error("EventLoop: cannot attach a source after run()");
  }
  if (source_ != nullptr) {
    throw std::logic_error("EventLoop: arrival source already attached");
  }
  source_ = &source;
}

void EventLoop::take_snapshot(std::size_t slot, DriverReport& report) {
  MetricsSnapshot snapshot;
  snapshot.slot = slot;
  backend_->sample(snapshot, per_link_used_);

  const double window_offered =
      snapshot.capacity_offered_total - prev_offered_;
  const double window_used = snapshot.capacity_used_total - prev_used_;
  snapshot.window_offered_bytes = window_offered;
  snapshot.window_utilization =
      window_offered > 0.0 ? window_used / window_offered : 0.0;

  // Jain fairness over how much each link actually drained this window: 1.0
  // when the placement spread the window's real work evenly (or when there
  // was no work / one link — nobody was favoured).
  if (per_link_used_.size() > 1) {
    window_per_link_.resize(per_link_used_.size());
    prev_per_link_used_.resize(per_link_used_.size(), 0.0);
    for (std::size_t k = 0; k < per_link_used_.size(); ++k) {
      window_per_link_[k] = per_link_used_[k] - prev_per_link_used_[k];
    }
    snapshot.link_load_fairness = jain_fairness_index(window_per_link_);
  }
  prev_offered_ = snapshot.capacity_offered_total;
  prev_used_ = snapshot.capacity_used_total;
  prev_per_link_used_ = per_link_used_;

  report.snapshots.push_back(snapshot);

  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kSnapshot, slot, kDriverTid,
                    static_cast<double>(snapshot.active_sessions),
                    snapshot.window_utilization);
  }
  if (slo_ != nullptr) observe_slo(snapshot);
  if (!config_.live_stats_path.empty()) write_live_stats(snapshot);
}

void EventLoop::observe_slo(const MetricsSnapshot& snapshot) {
  SloObservation observation;
  observation.slot = snapshot.slot;
  backend_->sample_slo(observation);
  for (const SloTransition& t : slo_->observe(observation)) {
    const SloSpec& spec = config_.slo.specs[t.spec];
    switch (t.to) {
      case SloState::kBreach:
        if (!c_slo_breach_.empty()) c_slo_breach_[t.spec]->add(1);
        log_warn("SLO BREACH '", spec.name, "' (", to_string(spec.metric),
                 ") at slot ", t.slot, ": fast=", t.fast_value,
                 " slow=", t.slow_value, " threshold=", t.threshold);
        if (flight_ != nullptr) {
          flight_->record(FlightEventKind::kSloBreach, t.slot, kDriverTid,
                          static_cast<double>(t.spec), t.fast_value);
          if (!config_.slo.black_box_path.empty()) {
            // Dump while the incident's first moments are still in the ring.
            const Status status = write_black_box(
                config_.slo.black_box_path, *flight_,
                config_.telemetry.registry, config_.config_echo);
            if (!status.ok()) {
              log_warn("SLO black box write failed: ", status.message());
            } else {
              log_warn("SLO black box dumped to ",
                       config_.slo.black_box_path);
            }
          }
        }
        break;
      case SloState::kBlip:
        if (!c_slo_blip_.empty()) c_slo_blip_[t.spec]->add(1);
        log_warn("SLO blip '", spec.name, "' (", to_string(spec.metric),
                 ") at slot ", t.slot, ": fast=", t.fast_value,
                 " slow=", t.slow_value, " threshold=", t.threshold);
        break;
      case SloState::kOk:
        log_info("SLO '", spec.name, "' recovered at slot ", t.slot);
        if (flight_ != nullptr) {
          flight_->record(FlightEventKind::kSloRecover, t.slot, kDriverTid,
                          static_cast<double>(t.spec), t.fast_value);
        }
        break;
    }
  }
}

void EventLoop::write_live_stats(const MetricsSnapshot& snapshot) {
  std::string out = "{\"slot\":" + std::to_string(snapshot.slot);
  out += ",\"active\":" + std::to_string(snapshot.active_sessions);
  out += ",\"admitted\":" + std::to_string(snapshot.admitted_total);
  out += ",\"rejected\":" + std::to_string(snapshot.rejected_total);
  out += ",\"window_utilization\":" +
         std::to_string(snapshot.window_utilization);
  out += ",\"link_fairness\":" + std::to_string(snapshot.link_load_fairness);
  // The cluster's whole ledger, so a watcher sees placement, link
  // transitions, handover and migration activity live, and can check the
  // failover book (displaced == replaced + evicted + closed) from the file.
  const FaultPlaneSample fp = backend_->sample_fault_plane();
  const std::pair<const char*, std::size_t> ledger[] = {
      {"failover_displaced", fp.failover_displaced},
      {"failover_replaced", fp.failover_replaced},
      {"migrations_requested", fp.migrations_requested},
      {"migrations_completed", fp.migrations_completed},
      {"migrations_aborted", fp.migrations_aborted},
      {"fault_evicted", fp.fault_evicted},
      {"fault_closed", fp.fault_closed},
      {"placed", fp.placed},
      {"spills", fp.spills},
      {"placement_rejects", fp.placement_rejects},
      {"link_down_events", fp.link_down_events},
      {"link_up_events", fp.link_up_events},
      {"capacity_scale_events", fp.capacity_scale_events},
      {"link_degrade_events", fp.link_degrade_events},
  };
  for (const auto& [key, value] : ledger) {
    out += ",\"";
    out += key;
    out += "\":" + std::to_string(value);
  }
  out += ",\"config\":";
  out += config_.config_echo.empty() ? "null" : config_.config_echo.c_str();
  out += ",\"slo\":[";
  if (slo_ != nullptr) {
    for (std::size_t i = 0; i < config_.slo.specs.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"name\":\"" + config_.slo.specs[i].name + "\",\"state\":\"";
      out += to_string(slo_->state(i));
      out += "\"}";
    }
  }
  out += "],\"breaches\":" +
         std::to_string(slo_ != nullptr ? slo_->breach_count() : 0);
  out += ",\"blips\":" +
         std::to_string(slo_ != nullptr ? slo_->blip_count() : 0);
  out += "}\n";
  // Write-then-rename so a concurrent reader (tools/arvis_top.py) never
  // sees a torn file.
  const std::string tmp = config_.live_stats_path + ".tmp";
  if (const Status status = write_text_file(tmp, out); !status.ok()) {
    log_warn("live stats write failed: ", status.message());
    return;
  }
  if (std::rename(tmp.c_str(), config_.live_stats_path.c_str()) != 0) {
    log_warn("live stats rename failed: ", config_.live_stats_path);
  }
}

namespace {
/// SplitMix64 finalizer — the retry jitter hash. Pure function of its input,
/// so a (seed, session, attempt) triple always jitters identically.
std::uint64_t mix_retry(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Hands one fault event to the backend verb its kind names; returns
/// whether the backend honoured it.
bool apply_fault(ServingBackend& backend, const FaultEvent& fault) {
  switch (fault.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      return backend.apply_link_state(fault.link,
                                      fault.kind == FaultKind::kLinkDown);
    case FaultKind::kCapacityScale:
      return backend.apply_capacity_scale(fault.link, fault.scale);
    case FaultKind::kLinkDegrade:
      return backend.apply_link_degrade(fault.link, fault.scale, fault.delay);
  }
  return false;
}
}  // namespace

void EventLoop::drain_retry_feed(std::size_t now, DriverReport& report) {
  retry_scratch_.clear();
  backend_->take_retry_feed(retry_scratch_);
  const RetryConfig& rc = config_.retry;
  for (const RetrySeed& seed : retry_scratch_) {
    // Lineage depth: the map only holds retried arrivals, so a miss means
    // the seed's session was an original submission (this is attempt 1).
    std::uint32_t attempt = 1;
    if (const auto it = retry_attempt_.find(seed.session_id);
        it != retry_attempt_.end()) {
      attempt = it->second + 1;
    }
    if (attempt > rc.max_attempts) {
      ++report.retries_abandoned;
      continue;
    }
    // Capped exponential backoff plus deterministic jitter.
    std::size_t delay = rc.base_backoff_slots;
    for (std::uint32_t a = 1; a < attempt && delay < rc.max_backoff_slots;
         ++a) {
      delay <<= 1;
    }
    delay = std::min(delay, rc.max_backoff_slots);
    if (rc.jitter_slots > 0) {
      const std::uint64_t h = mix_retry(
          rc.seed ^ mix_retry(static_cast<std::uint64_t>(seed.session_id) ^
                              (static_cast<std::uint64_t>(attempt) << 48)));
      delay += static_cast<std::size_t>(h % (rc.jitter_slots + 1));
    }
    const std::size_t retry_slot = now + delay;
    if (seed.spec.departure_slot != kNeverDeparts &&
        retry_slot >= seed.spec.departure_slot) {
      ++report.retries_abandoned;  // its window would be over before it lands
      continue;
    }
    SessionSpec spec = seed.spec;
    spec.arrival_slot = retry_slot;
    specs_.push_back(spec);
    spec_attempt_.push_back(attempt);
    push_event(retry_slot, EventKind::kArrival, specs_.size() - 1);
    ++arrival_events_;
    ++report.retries_scheduled;
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kRetry, now, kDriverTid,
                      static_cast<double>(seed.session_id),
                      static_cast<double>(attempt));
    }
  }
}

void EventLoop::pull_source(std::size_t now, DriverReport& report) {
  // Source arrivals due at or before this slot submit before any calendar
  // event of the same slot fires — mirroring a pre-scheduled trace, whose
  // arrival events carry the smallest sequence numbers.
  while (source_ != nullptr && source_->next_slot() <= now) {
    batch_.clear();
    source_->take(batch_);
    for (const SessionSpec& spec : batch_) {
      backend_->submit(spec);
      ++report.arrivals_injected;
      if (spec.departure_slot != kNeverDeparts) {
        push_event(spec.departure_slot, EventKind::kDeparture, 0);
      }
    }
  }
}

DriverReport EventLoop::run() {
  if (ran_) {
    throw std::logic_error("EventLoop::run: already ran");
  }
  DriverReport report;
  // Arm the periodic snapshot (and seed the window baseline) before any
  // events fire; snapshots are ordinary calendar entries from here on.
  {
    MetricsSnapshot baseline;
    backend_->sample(baseline, per_link_used_);
    prev_offered_ = baseline.capacity_offered_total;
    prev_used_ = baseline.capacity_used_total;
    prev_per_link_used_ = per_link_used_;
  }
  if (config_.snapshot_period > 0) {
    push(backend_->slot() + config_.snapshot_period, EventKind::kSnapshot, 0);
  }
  ran_ = true;

  bool stopped = false;
  while (true) {
    const std::size_t now = backend_->slot();

    // Incremental arrivals first (see pull_source), then fire everything
    // due at or before this slot, in (slot, schedule-order): arrivals enter
    // the runtime before the slot executes, a snapshot at S samples the
    // end-of-slot-(S-1) state, a stop at S halts before S runs.
    pull_source(now, report);
    events_.pop_due(now, due_);
    if (!due_.empty()) {
      // One span per non-empty calendar batch (batches are rare relative to
      // slots — burst stepping handles event-free stretches elsewhere).
      const PhaseSpan span(tracer_, Phase::kEvents, now, kDriverTid);
      if (h_batch_ != nullptr) {
        h_batch_->record(static_cast<double>(due_.size()));
      }
      for (const CalendarEvent& event : due_) {
        switch (static_cast<EventKind>(event.kind)) {
          case EventKind::kArrival: {
            --arrival_events_;
            const std::size_t id = backend_->submit(specs_[event.payload]);
            const std::uint32_t attempt = spec_attempt_[event.payload];
            // Retried arrivals record their lineage depth under the fresh
            // runtime id, so a re-rejection knows its attempt number.
            if (attempt > 0) retry_attempt_.emplace(id, attempt);
            ++report.arrivals_injected;
            break;
          }
          case EventKind::kDeparture:
            ++report.departure_markers;
            break;
          case EventKind::kSnapshot:
            take_snapshot(event.slot, report);
            push(event.slot + config_.snapshot_period, EventKind::kSnapshot,
                 0);
            break;
          case EventKind::kClose:
            // Fires before the slot executes: the session's trace covers
            // [arrival, event.slot). A target already refused/retired (or a
            // bogus id in a hand-written trace) is counted, not fatal.
            if (backend_->close_session(event.payload)) {
              ++report.closes_applied;
            } else {
              ++report.closes_ignored;
              log_info("driver: close event at slot ", event.slot,
                       " ignored (session ", event.payload,
                       " unknown or already gone)");
            }
            break;
          case EventKind::kStop:
            --stop_events_;
            stopped = true;
            break;
          case EventKind::kFault: {
            const FaultEvent& fault = faults_[event.payload];
            if (apply_fault(*backend_, fault)) {
              ++report.faults_applied;
            } else {
              // A bad link index in a hand-written plan is counted, not
              // fatal — same contract as close events.
              ++report.faults_ignored;
              log_info("driver: ", to_string(fault.kind), " event at slot ",
                       event.slot, " ignored (link ", fault.link, ")");
            }
            break;
          }
        }
      }
    }
    if (stopped) break;
    if (report.slots_executed >= config_.max_slots) {
      report.hit_slot_cap = true;
      break;
    }

    // Seeds the backend produced during the last burst (placement rejects,
    // fault evictions) become future arrival events now — before the idle
    // logic could conclude the run is drained.
    if (config_.retry.enabled && backend_->retry_feed_pending()) {
      drain_retry_feed(now, report);
    }

    const std::size_t pending = backend_->next_pending_arrival_slot();
    const bool work_now = backend_->active_count() > 0 || pending <= now;
    if (work_now) {
      // Decision-stable fast-forward: nothing external can happen before the
      // next calendar/source event, so hand the backend the whole stretch as
      // one burst. Bit-identical to stepping slot by slot — the skipped
      // per-slot checks would all have been no-ops — but the runtime's
      // incremental decide engine gets an uninterrupted run of slots, and
      // the loop's event bookkeeping drops out of the per-slot cost. The
      // burst ends early if the runtime drains mid-stretch (internal
      // departures), handing control back to the idle logic below.
      const std::size_t cal_next =
          events_.empty() ? kNoSlot : events_.min_slot();
      const std::size_t src_next =
          source_ != nullptr ? source_->next_slot() : kNoSlot;
      const std::size_t next_external = std::min(cal_next, src_next);
      // Events at `now` already fired, so next_external > now here.
      std::size_t burst =
          next_external == kNoSlot ? config_.max_slots : next_external - now;
      if (config_.max_slots != kNoSlot) {
        burst = std::min(burst, config_.max_slots - report.slots_executed);
      }
      report.slots_executed += backend_->step_slots(burst);
      continue;
    }

    const std::size_t source_next =
        source_ != nullptr ? source_->next_slot() : kNoSlot;

    // Idle with no arrivals ever coming: the churn is over. A queued stop
    // only keeps the run alive in dense mode, where it defines the horizon
    // and the empty slots up to it must execute; in idle-skip mode it is a
    // ceiling, and waiting for it would only manufacture a phantom idle
    // tail of skipped slots and empty snapshots. Self-re-arming snapshots
    // and pure-observation markers never keep the run alive.
    if (pending == kNoSlot && arrival_events_ == 0 && source_next == kNoSlot &&
        (config_.skip_idle || stop_events_ == 0)) {
      break;
    }

    // Idle: nothing to serve this slot. Find the next slot anything happens
    // (snapshots included, so idle gaps still sample on schedule).
    std::size_t next = std::min(pending, source_next);
    if (!events_.empty()) next = std::min(next, events_.min_slot());
    if (next == kNoSlot) break;  // calendar drained — the run is over
    if (config_.skip_idle) {
      backend_->skip_idle_slots(next - now);
      report.slots_skipped += next - now;
    } else {
      // Dense mode: execute the empty slot, capacity draw and all — the
      // fixed-horizon contract.
      backend_->step_slot();
      ++report.slots_executed;
    }
  }

  // Seeds still pending when the run stopped never got their retry slot.
  if (config_.retry.enabled && backend_->retry_feed_pending()) {
    retry_scratch_.clear();
    backend_->take_retry_feed(retry_scratch_);
    report.retries_abandoned += retry_scratch_.size();
  }

  // Migration books into the report, from the backend's ledger.
  {
    const FaultPlaneSample sample = backend_->sample_fault_plane();
    report.migrations_requested = sample.migrations_requested;
    report.migrations_completed = sample.migrations_completed;
    report.migrations_aborted = sample.migrations_aborted;
  }

  // SLO bookkeeping into the report (self-contained: specs ride along).
  if (slo_ != nullptr) {
    report.slo_transitions = slo_->transitions();
    report.slo_specs = config_.slo.specs;
    report.slo_breaches = slo_->breach_count();
    report.slo_blips = slo_->blip_count();
  }

  // End-of-run flush: report totals and calendar structural counters land in
  // the registry once, so per-event paths stay free of counter traffic.
  if (config_.telemetry.counters_on()) {
    TelemetryRegistry& reg = *config_.telemetry.registry;
    reg.counter("driver/arrivals_injected").add(report.arrivals_injected);
    reg.counter("driver/departure_markers").add(report.departure_markers);
    reg.counter("driver/closes_applied").add(report.closes_applied);
    reg.counter("driver/closes_ignored").add(report.closes_ignored);
    reg.counter("driver/slots_executed").add(report.slots_executed);
    reg.counter("driver/slots_skipped").add(report.slots_skipped);
    reg.counter("driver/faults_applied").add(report.faults_applied);
    reg.counter("driver/faults_ignored").add(report.faults_ignored);
    reg.counter("driver/retries_scheduled").add(report.retries_scheduled);
    reg.counter("driver/retries_abandoned").add(report.retries_abandoned);
    reg.counter("driver/snapshots").add(report.snapshots.size());
    reg.counter("driver/calendar_grows").add(events_.grows());
    reg.counter("driver/calendar_wrapped_pushes")
        .add(events_.wrapped_pushes());
  }
  return report;
}

// The fixed-horizon one-shot over the event loop: dense mode (skip_idle
// off) plus a stop event at `steps` executes every slot once, drawing the
// same capacity sequence as a hand-rolled step loop.
ClusterResult run_cluster_scenario(const ClusterConfig& config,
                                   const std::vector<SessionSpec>& specs,
                                   const std::vector<ChannelModel*>& channels) {
  const std::vector<double> means =
      validated_channel_means(channels, "run_cluster_scenario");
  EdgeCluster cluster(config, means);
  for (const SessionSpec& spec : specs) cluster.submit(spec);

  DriverConfig driver;
  driver.skip_idle = false;
  driver.max_slots = kNoSlot;
  ClusterBackend backend(cluster, channels);
  EventLoop loop(driver, backend);
  loop.schedule_stop(config.serving.steps);
  loop.run();
  return cluster.finish();
}

}  // namespace arvis
