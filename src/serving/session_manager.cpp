#include "serving/session_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace arvis {

SessionManager::SessionManager(const ServingConfig& config,
                               double mean_capacity_bytes)
    : config_(config),
      mean_capacity_bytes_(mean_capacity_bytes),
      admission_(config.admission, mean_capacity_bytes),
      scheduler_(make_scheduler(config.policy)),
      store_(config.candidates, config.v, config.trace_mode) {
  if (config_.steps == 0) {
    throw std::invalid_argument("SessionManager: steps must be > 0");
  }
  if (config_.candidates.empty()) {
    throw std::invalid_argument("SessionManager: empty candidate set");
  }
  // The flattened decide kernel assumes (and the argmax tie-break exploits)
  // strictly ascending candidates; the view-based path enforced this on
  // every decide, so the manager now enforces it once at the door.
  for (std::size_t i = 1; i < config_.candidates.size(); ++i) {
    if (config_.candidates[i] <= config_.candidates[i - 1]) {
      throw std::invalid_argument(
          "SessionManager: candidates must be strictly ascending");
    }
  }
  if (config_.pf_ewma_window != 0.0 &&
      !(config_.pf_ewma_window >= 1.0 &&
        std::isfinite(config_.pf_ewma_window))) {
    throw std::invalid_argument(
        "SessionManager: pf_ewma_window must be 0 (off) or >= 1");
  }
  if (config_.degradation.enabled) {
    const DegradationPolicy& policy = config_.degradation;
    if (!(policy.enter_utilization > 0.0) ||
        !std::isfinite(policy.enter_utilization) ||
        !(policy.exit_utilization >= 0.0) ||
        policy.exit_utilization >= policy.enter_utilization) {
      throw std::invalid_argument(
          "SessionManager: degradation needs 0 <= exit < enter utilization");
    }
    if (policy.min_candidates < 1 ||
        policy.min_candidates > config_.candidates.size()) {
      throw std::invalid_argument(
          "SessionManager: degradation min_candidates outside [1, width]");
    }
  }
  tier_limit_scratch_.assign(kSloTiers, 0);
  validate_telemetry(config_.telemetry, "SessionManager");
  flight_ = resolve_flight_recorder(config_.telemetry);
  register_telemetry();
}

void SessionManager::register_telemetry() {
  const TelemetryConfig& tel = config_.telemetry;
  tid_ = tel.tid;
  if (tel.trace_on()) tracer_ = tel.tracer;
  if (!tel.counters_on()) return;
  TelemetryRegistry& reg = *tel.registry;
  const std::string prefix = "link" + std::to_string(tel.tid) + "/";
  c_slots_ = &reg.counter(prefix + "slots");
  c_adm_accept_ = &reg.counter(prefix + "admission_accepted");
  c_adm_reject_ = &reg.counter(prefix + "admission_rejected");
  c_closed_ = &reg.counter(prefix + "sessions_closed");
  c_decide_reuse_ = &reg.counter(prefix + "decide_group_reuses");
  c_decide_rebuild_ = &reg.counter(prefix + "decide_group_rebuilds");
  c_sched_fast_ = &reg.counter(prefix + "scheduler_fast_path");
  c_sched_generic_ = &reg.counter(prefix + "scheduler_generic");
  h_decide_groups_ = &reg.histogram(prefix + "decide_groups");
  h_active_ = &reg.histogram(prefix + "active_sessions");
  h_slot_used_ = &reg.histogram(prefix + "slot_used_bytes");
  h_lifetime_ = &reg.histogram(prefix + "session_lifetime_slots");
  c_brownout_ = &reg.counter(prefix + "brownout_transitions");
}

SessionManager::~SessionManager() = default;

void SessionManager::validate_spec(const SessionSpec& spec) const {
  if (spec.cache == nullptr) {
    throw std::invalid_argument("SessionManager: null cache");
  }
  for (int d : config_.candidates) {
    if (d < 1 || d > spec.cache->octree_depth()) {
      throw std::invalid_argument(
          "SessionManager: candidate outside cache range");
    }
  }
  if (spec.departure_slot <= spec.arrival_slot) {
    throw std::invalid_argument(
        "SessionManager: departure must be after arrival");
  }
  // A spec submitted between steps may declare an arrival in the past (it
  // simply arrives now), but a window that has entirely elapsed can never
  // stream a slot inside its declared lifetime.
  if (spec.departure_slot <= slot_) {
    throw std::invalid_argument(
        "SessionManager: departure slot already elapsed");
  }
  // A NaN or infinite weight would never be granted a byte by DRR (both
  // its ring and leftover tests are false for NaN), and the trace parser
  // rejects them too.
  if (!std::isfinite(spec.weight) || spec.weight < 0.0) {
    throw std::invalid_argument(
        "SessionManager: weight must be finite and >= 0");
  }
  if (spec.qos >= kSloTiers) {
    throw std::invalid_argument("SessionManager: qos tier out of range");
  }
}

std::size_t SessionManager::submit(const SessionSpec& spec) {
  if (finished_) {
    throw std::logic_error("SessionManager::submit: already finished");
  }
  validate_spec(spec);
  ServingSession& s = store_.create(store_.session_count(), spec);
  s.due_slot = std::max(spec.arrival_slot, slot_);
  metrics_.reserve_sessions(store_.session_count());
  // Keep pending_ sorted by (due, id). Ids grow with submission order, so
  // the insertion point is found among the not-yet-consumed suffix; same-due
  // sessions stay in submission order, preserving admission ordering.
  const auto begin =
      pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_);
  const auto pos = std::upper_bound(
      begin, pending_.end(), &s,
      [](const ServingSession* a, const ServingSession* b) {
        if (a->due_slot != b->due_slot) return a->due_slot < b->due_slot;
        return a->id < b->id;
      });
  pending_.insert(pos, &s);
  return s.id;
}

void SessionManager::retire(ServingSession& s) {
  s.phase = SessionPhase::kClosed;
  s.departure_actual = slot_;
  admission_.release(s.cheapest_load);
  if (c_closed_ != nullptr) {
    c_closed_->add(1);
    h_lifetime_->record(static_cast<double>(slot_ - s.arrival_actual));
  }
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kClose, slot_, tid_,
                    static_cast<double>(s.id),
                    static_cast<double>(slot_ - s.arrival_actual));
  }
}

void SessionManager::close_departures() {
  // Sweeps the dense departure mirror; the cold slab is only touched for
  // sessions actually retiring, so a no-departure slot reads one array.
  store_.retire_departed(slot_, [this](ServingSession& s) { retire(s); });
}

void SessionManager::activate(ServingSession& s) {
  s.phase = SessionPhase::kActive;
  // The planned window sizes the tally's tail ring (allocated by the first
  // block flush) and, under kAll, the trace reservation, so steady-state
  // drains never reallocate (the manager may be driven past config_.steps
  // by hand; both then grow as needed).
  const std::size_t horizon = std::min(s.spec.departure_slot, config_.steps);
  const std::size_t planned = horizon > slot_ ? horizon - slot_ : 0;
  if (store_.traces_all()) s.trace.reserve(planned);
  store_.activate(s, planned);
}

void SessionManager::admit_arrivals() {
  while (pending_head_ < pending_.size() &&
         pending_[pending_head_]->due_slot <= slot_) {
    ServingSession& s = *pending_[pending_head_++];
    // Cancelled by an external-close event before arrival: admission never
    // sees it; it stays kPending and reports as never-arrived.
    if (s.cancelled) continue;
    const AdmissionDecision decision =
        admission_.try_admit(*s.spec.cache, config_.candidates);
    s.admitted = decision.admitted;
    s.cheapest_load = decision.cheapest_load;
    s.max_sustainable_depth = decision.max_sustainable_depth;
    s.arrival_actual = slot_;
    if (c_adm_accept_ != nullptr) {
      (decision.admitted ? c_adm_accept_ : c_adm_reject_)->add(1);
    }
    ++(decision.admitted ? tier_accepted_ : tier_rejected_)[s.spec.qos];
    if (decision.admitted) {
      activate(s);
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kAdmit, slot_, tid_,
                        static_cast<double>(s.id),
                        static_cast<double>(store_.active_count()));
      }
    } else {
      s.phase = SessionPhase::kClosed;
      s.departure_actual = slot_;
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kReject, slot_, tid_,
                        static_cast<double>(s.id),
                        static_cast<double>(store_.active_count()));
      }
    }
  }
  // Compact the consumed prefix once it dominates the buffer, keeping the
  // amortized per-arrival cost O(1) without unbounded growth.
  if (pending_head_ > 64 && pending_head_ * 2 >= pending_.size()) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
}

AdmissionDecision SessionManager::try_place(const SessionSpec& spec,
                                            std::size_t session_id) {
  if (finished_) {
    throw std::logic_error("SessionManager::try_place: already finished");
  }
  validate_spec(spec);
  const AdmissionDecision decision =
      admission_.try_admit(*spec.cache, config_.candidates);
  if (c_adm_accept_ != nullptr) {
    (decision.admitted ? c_adm_accept_ : c_adm_reject_)->add(1);
  }
  ++(decision.admitted ? tier_accepted_ : tier_rejected_)[spec.qos];
  if (!decision.admitted) {
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kReject, slot_, tid_,
                      static_cast<double>(session_id),
                      static_cast<double>(store_.active_count()));
    }
    return decision;
  }
  ServingSession& s = store_.create(session_id, spec);
  metrics_.reserve_sessions(store_.session_count());
  s.admitted = true;
  s.cheapest_load = decision.cheapest_load;
  s.max_sustainable_depth = decision.max_sustainable_depth;
  s.due_slot = slot_;
  s.arrival_actual = slot_;
  activate(s);
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kAdmit, slot_, tid_,
                    static_cast<double>(s.id),
                    static_cast<double>(store_.active_count()));
  }
  return decision;
}

bool SessionManager::request_close(std::size_t session_id) {
  if (finished_) {
    throw std::logic_error("SessionManager::request_close: already finished");
  }
  ServingSession* s = store_.find(session_id);
  if (s == nullptr) return false;
  switch (s->phase) {
    case SessionPhase::kClosed:
      return false;
    case SessionPhase::kActive:
      // Departing "now": close_departures() retires departure_slot <= slot_
      // at the next begin_slot(), before this slot streams.
      s->spec.departure_slot = slot_;
      store_.mirror_departure(*s);
      return true;
    case SessionPhase::kPending:
      if (s->cancelled) return false;
      s->cancelled = true;
      return true;
  }
  return false;
}

void SessionManager::begin_slot() {
  if (finished_) {
    throw std::logic_error("SessionManager::begin_slot: already finished");
  }
  const PhaseSpan span(tracer_, Phase::kBeginSlot, slot_, tid_);
  // Departures first so a same-slot arrival sees the freed reservation.
  close_departures();
  admit_arrivals();
  // Brownout evaluation sees the slot's final reservation level — a policy
  // that is off costs the slot loop exactly this branch.
  if (config_.degradation.enabled) evaluate_brownout();
}

void SessionManager::evaluate_brownout() {
  const DegradationPolicy& policy = config_.degradation;
  const double capacity = admission_.scaled_admissible();
  const double reserved = admission_.reserved_load();
  // Zero scaled capacity with anything reserved is infinite pressure (a
  // fully faded link); zero on zero is idle.
  const double utilization =
      capacity > 0.0
          ? reserved / capacity
          : (reserved > 0.0 ? std::numeric_limits<double>::infinity() : 0.0);
  const std::size_t width = config_.candidates.size();
  if (!brownout_ && utilization >= policy.enter_utilization) {
    brownout_ = true;
    ++brownout_enters_;
    for (std::size_t t = 0; t < kSloTiers; ++t) {
      const std::size_t drop = policy.tier_drop[t];
      const std::size_t floor = policy.min_candidates;
      const std::size_t lim = width > drop ? width - drop : floor;
      tier_limit_scratch_[t] = static_cast<std::uint32_t>(std::max(lim, floor));
    }
    store_.set_tier_limits(tier_limit_scratch_);
    if (c_brownout_ != nullptr) c_brownout_->add(1);
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kBrownoutEnter, slot_, tid_,
                      utilization, static_cast<double>(store_.active_count()));
    }
  } else if (brownout_ && utilization <= policy.exit_utilization) {
    brownout_ = false;
    for (std::size_t t = 0; t < kSloTiers; ++t) {
      tier_limit_scratch_[t] = static_cast<std::uint32_t>(width);
    }
    store_.set_tier_limits(tier_limit_scratch_);
    if (c_brownout_ != nullptr) c_brownout_->add(1);
    if (flight_ != nullptr) {
      flight_->record(FlightEventKind::kBrownoutExit, slot_, tid_,
                      utilization, static_cast<double>(store_.active_count()));
    }
  }
}

std::size_t SessionManager::evict_all_active(std::vector<EvictedSession>& out) {
  if (finished_) {
    throw std::logic_error(
        "SessionManager::evict_all_active: already finished");
  }
  const std::size_t evicted = store_.active_count();
  if (evicted == 0) return 0;
  out.reserve(out.size() + evicted);
  store_.retire_active(
      [](const ServingSession&) { return true; },
      [&](ServingSession& s) {
        out.push_back(EvictedSession{s.id, s.spec});
        retire(s);
      });
  return evicted;
}

bool SessionManager::extract_session(std::size_t session_id,
                                     MigratedSession& out) {
  if (finished_) {
    throw std::logic_error("SessionManager::extract_session: already finished");
  }
  // Capture the hot mirrors before retirement compacts (and poisons) them.
  const std::size_t n = store_.active_count();
  std::size_t index = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (store_.active_session(i).id == session_id) {
      index = i;
      break;
    }
  }
  if (index == n) return false;
  out.hot = store_.hot_state(index);
  store_.retire_active(
      [&](const ServingSession& s) { return s.id == session_id; },
      [&](ServingSession& s) {
        out.id = s.id;
        out.spec = s.spec;  // live spec: reflects any external close
        retire(s);
      });
  return true;
}

AdmissionDecision SessionManager::place_migrated(
    const MigratedSession& migrated, std::size_t session_id) {
  const AdmissionDecision decision = try_place(migrated.spec, session_id);
  // try_place activated the session at the back of the active list with a
  // fresh stream; resume the carried one instead.
  if (decision.admitted) store_.inject_hot_state(migrated.hot);
  return decision;
}

void SessionManager::set_capacity_scale(double scale) {
  admission_.set_capacity_scale(scale);
}

SessionManager::SlotReport SessionManager::finish_slot(double capacity_bytes) {
  const std::size_t n = store_.active_count();
  const bool pf_history = config_.pf_ewma_window > 0.0;
  {
    const PhaseSpan span(tracer_, Phase::kSchedule, slot_, tid_);
    // Schedule phase: the one centralized act — the link divides its own
    // capacity. Sessions never see each other's state. The scheduler reads
    // the store's SoA spans in place; nothing is copied in.
    SchedulerInput demands;
    demands.backlog = store_.backlogs();
    demands.arrivals = store_.decided_arrivals();
    demands.weight = store_.weights();
    // Empty span = "no history": proportional-fair falls back to
    // instantaneous demand, keeping the window-off path bit-identical to the
    // legacy one.
    if (pf_history) demands.ewma_throughput = store_.ewma_throughput();
    // O(changed) aggregate hints maintained by the store at lifecycle edges:
    // let weighted policies reuse their tier permutation across slots
    // and skip tier-finding for uniform fleets (bit-identical either way).
    demands.membership_generation = store_.membership_generation();
    demands.uniform_weights = store_.uniform_weights();
    scheduler_->allocate(capacity_bytes, demands, shares_);
  }

  // Drain phase. The link is charged what the queues actually drained
  // (min(Q(t), share) per session, reported by the queue) — same-slot
  // arrivals enter *after* service in the Lindley order, so charging
  // min(share, backlog + arrivals) would over-report utilization.
  const double alpha = pf_history ? 1.0 / config_.pf_ewma_window : 0.0;
  double used = 0.0;
  {
    const PhaseSpan span(tracer_, Phase::kDrain, slot_, tid_);
    for (std::size_t i = 0; i < n; ++i) {
      used += store_.drain(i, slot_, shares_[i], alpha);
    }
  }
  // Telemetry flush: a handful of counter bumps per *slot* boundary, never
  // per session — the disabled path pays one branch and two uint64 loads
  // here (the scheduler stats feed the flight recorder's fallback edge
  // even with counters off).
  const SchedulerStats& sched = scheduler_->stats();
  const std::uint64_t generic_delta = sched.generic - sched_generic_seen_;
  if (c_slots_ != nullptr) {
    c_slots_->add(1);
    h_active_->record(static_cast<double>(n));
    h_slot_used_->record(used);
    c_sched_fast_->add(sched.fast_path - sched_fast_seen_);
    c_sched_generic_->add(generic_delta);
  }
  sched_fast_seen_ = sched.fast_path;
  sched_generic_seen_ = sched.generic;
  // Flight event on the fast->generic schedule transition only (an edge,
  // not a level): a run that settles into the generic path records once,
  // not once per slot.
  const bool generic_slot = generic_delta > 0;
  if (flight_ != nullptr && generic_slot && !last_slot_generic_) {
    flight_->record(FlightEventKind::kSchedFallback, slot_, tid_,
                    static_cast<double>(sched.generic),
                    static_cast<double>(n));
  }
  last_slot_generic_ = generic_slot;
  metrics_.record_slot(capacity_bytes, used, n);
  ++slot_;
  return SlotReport{capacity_bytes, used, n};
}

void SessionManager::step(double capacity_bytes) {
  begin_slot();
  decide_phase();
  finish_slot(capacity_bytes);
}

std::size_t SessionManager::active_count() const noexcept {
  return store_.active_count();
}

void SessionManager::accumulate_slo(SloObservation& observation) {
  // Cumulative admission outcomes, per tier (validate_spec guarantees
  // spec.qos < kSloTiers).
  SloTierSample local[kSloTiers];
  for (std::size_t t = 0; t < kSloTiers; ++t) {
    local[t].accepted = tier_accepted_[t];
    local[t].rejected = tier_rejected_[t];
  }
  // Gauges over the active set. The backlog-age proxy divides each
  // session's queue by its fair share of the mean link rate: backlog ·
  // active / mean_capacity — slots of queued work, the paper's stability
  // quantity rephrased as a latency.
  const std::size_t n = store_.active_count();
  const std::span<const double> backlogs = store_.backlogs();
  const std::span<const std::uint8_t> tiers = store_.qos_tiers();
  const std::span<const SessionTally> tallies = store_.tallies();
  for (auto& scratch : slo_scratch_) scratch.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = static_cast<std::size_t>(tiers[i]);
    const double delay =
        mean_capacity_bytes_ > 0.0
            ? backlogs[i] * static_cast<double>(n) / mean_capacity_bytes_
            : 0.0;
    slo_scratch_[t].push_back(delay);
    slo_scratch_[kSloTiers].push_back(delay);
    local[t].active += 1;
    if (tallies[i].totals.steps > 0) {
      const double quality = tallies[i].last_quality;
      if (!local[t].has_quality || quality < local[t].min_quality) {
        local[t].min_quality = quality;
        local[t].has_quality = true;
      }
    }
  }
  const auto p95 = [](std::vector<double>& delays) {
    const std::size_t k = delays.size();
    const auto rank =
        static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(k)));
    const std::size_t idx = (rank > 0 ? rank : 1) - 1;
    std::nth_element(delays.begin(),
                     delays.begin() + static_cast<std::ptrdiff_t>(idx),
                     delays.end());
    return delays[idx];
  };
  for (std::size_t t = 0; t < kSloTiers; ++t) {
    if (!slo_scratch_[t].empty()) {
      local[t].p95_delay_slots = p95(slo_scratch_[t]);
    }
    merge_slo_sample(observation.tier[t], local[t]);
  }
  // The total lane repeats the merge with the link-exact all-tier p95 so a
  // cluster's total is still the worst link, not a tier artifact.
  SloTierSample total;
  for (std::size_t t = 0; t < kSloTiers; ++t) merge_slo_sample(total, local[t]);
  if (!slo_scratch_[kSloTiers].empty()) {
    total.p95_delay_slots = p95(slo_scratch_[kSloTiers]);
  }
  merge_slo_sample(observation.total, total);
}

const AdmissionStats& SessionManager::admission_stats() const noexcept {
  return admission_.stats();
}

std::size_t SessionManager::skip_idle_slots(std::size_t max_slots) {
  if (finished_) {
    throw std::logic_error("SessionManager::skip_idle_slots: already finished");
  }
  if (store_.active_count() != 0) {
    throw std::logic_error(
        "SessionManager::skip_idle_slots: sessions are active");
  }
  std::size_t slots = max_slots;
  if (pending_head_ < pending_.size()) {
    const std::size_t due = pending_[pending_head_]->due_slot;
    slots = due > slot_ ? std::min(slots, due - slot_) : 0;
  }
  slot_ += slots;
  return slots;
}

ServingResult SessionManager::finish() {
  ServingResult result = finish_link();
  result.session_table = metrics_.session_table();
  return result;
}

ServingResult SessionManager::finish_link() {
  if (finished_) {
    throw std::logic_error("SessionManager::finish: already finished");
  }
  finished_ = true;
  const PhaseSpan span(tracer_, Phase::kFinish, slot_, tid_);
  store_.retire_active([](const ServingSession&) { return true; },
                       [&](ServingSession& s) {
                         s.phase = SessionPhase::kClosed;
                         s.departure_actual = slot_;
                         admission_.release(s.cheapest_load);
                       });

  ServingResult result;
  result.admission = admission_.stats();
  result.sessions.reserve(store_.session_count());
  std::vector<double> tail_scratch;
  for (std::size_t pos = 0; pos < store_.session_count(); ++pos) {
    ServingSession& s = store_.session(pos);
    // A session whose arrival slot was never reached is reported as not
    // admitted with an empty window (admission never saw it).
    if (s.phase == SessionPhase::kPending) s.departure_actual = s.arrival_actual;

    SessionMetrics metrics;
    metrics.session_id = s.id;
    metrics.arrived = s.phase != SessionPhase::kPending;
    metrics.admitted = s.admitted;
    metrics.arrival_slot = s.arrival_actual;
    metrics.departure_slot = s.departure_actual;
    metrics.weight = s.spec.weight;
    if (s.admitted && s.tally.totals.steps > 0) {
      metrics.has_summary = true;
      if (store_.traces_all()) {
        // The stored trace is the reference; the tally must agree with it
        // bit for bit (the streaming path's exactness contract).
        metrics.summary = s.trace.summarize_partial();
        ARVIS_DCHECK_MSG(
            bit_identical(metrics.summary,
                          summarize_tally(s.tally, tail_scratch)),
            "streaming summary diverged from the full-trace summary");
      } else {
        metrics.summary = summarize_tally(s.tally, tail_scratch);
      }
    }
    metrics_.record_session(metrics);

    SessionOutcome outcome;
    outcome.id = s.id;
    outcome.admitted = s.admitted;
    outcome.arrival_slot = s.arrival_actual;
    outcome.departure_slot = s.departure_actual;
    outcome.weight = s.spec.weight;
    outcome.max_sustainable_depth = s.max_sustainable_depth;
    outcome.slots = s.tally.totals.steps;
    outcome.has_summary = metrics.has_summary;
    outcome.summary = metrics.summary;
    outcome.trace = std::move(s.trace);
    result.sessions.push_back(std::move(outcome));
  }
  result.fleet = metrics_.fleet();
  return result;
}

ServingResult run_serving_scenario(const ServingConfig& config,
                                   const std::vector<SessionSpec>& specs,
                                   ChannelModel& channel) {
  SessionManager manager(config, channel.mean_capacity_bytes());
  for (const SessionSpec& spec : specs) manager.submit(spec);
  for (std::size_t t = 0; t < config.steps; ++t) {
    manager.step(channel.next_capacity_bytes());
  }
  return manager.finish();
}

}  // namespace arvis
