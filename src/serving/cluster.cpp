#include "serving/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "serving/admission.hpp"

namespace arvis {

/// One submitted session as the cluster tracks it. Before placement the
/// cluster owns the lifecycle; after placement the assigned link's
/// SessionManager does, and the entry only remembers where it went.
struct EdgeCluster::Entry {
  Entry(std::size_t id_in, const SessionSpec& spec_in)
      : id(id_in), spec(spec_in), arrival_actual(spec_in.arrival_slot),
        runtime_id(id_in) {}

  std::size_t id;
  SessionSpec spec;
  /// First slot placement may consider this session (declared arrival, or
  /// the submission-time slot when the declared arrival already elapsed).
  std::size_t due = 0;
  int link = -1;
  bool spilled = false;
  bool arrived = false;
  bool admitted = false;
  /// Cancelled by an external-close control event before placement saw it.
  bool cancelled = false;
  /// Drained off a downed link; awaiting re-placement in place_displaced.
  bool displaced = false;
  /// Ended by an outage (no surviving link took it / no lifetime left).
  bool fault_evicted = false;
  std::size_t arrival_actual;
  std::size_t departure_actual = 0;
  /// Best depth headroom any tried link reported.
  int max_sustainable_depth = 0;
  /// Id of the session's *current* segment in its link's books. Equals `id`
  /// until the first failover; every re-placement mints a fresh id (a
  /// session may bounce back onto a link where its old id is already
  /// retired).
  std::size_t runtime_id;
  /// Times the session was re-placed after a link outage.
  std::uint32_t failovers = 0;
  /// Times the session completed a live migration between links.
  std::uint32_t migrations = 0;
  /// Start slot of the session's current handover budget window.
  std::size_t migration_window_start = 0;
  /// Migrations completed inside the current budget window (the ping-pong
  /// guard: capped at HandoverPolicy::session_budget).
  std::uint32_t migrations_in_window = 0;
};

// Failover runtime ids live far above any plausible submission count so the
// two id spaces cannot collide (ids below the base are entry ids verbatim).
inline constexpr std::size_t kFailoverIdBase = std::size_t{1} << 32;
static_assert(sizeof(std::size_t) >= 8,
              "failover runtime ids need a 64-bit size_t");

const char* to_string(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastLoaded: return "least-loaded";
    case PlacementPolicy::kBestFit: return "best-fit";
  }
  return "?";
}

EdgeCluster::EdgeCluster(const ClusterConfig& config,
                         const std::vector<double>& link_mean_capacity_bytes)
    : config_(config), executor_(config.serving.threads) {
  if (link_mean_capacity_bytes.empty()) {
    throw std::invalid_argument("EdgeCluster: need >= 1 link");
  }
  if (link_mean_capacity_bytes.size() > kMaxClusterLinks) {
    throw std::invalid_argument(
        "EdgeCluster: more links than the flight encoding can name (1024)");
  }
  // Each link is one shard of step()'s executor loop and gets its own
  // telemetry lane: counters under "link<k>/", spans on Chrome tid k.
  ServingConfig link_config = config_.serving;
  links_.reserve(link_mean_capacity_bytes.size());
  for (double mean : link_mean_capacity_bytes) {
    link_config.telemetry.tid = static_cast<std::uint32_t>(links_.size());
    links_.push_back(std::make_unique<SessionManager>(link_config, mean));
  }
  link_down_.assign(links_.size(), 0);
  link_scale_.assign(links_.size(), 1.0);
  link_degrade_scale_.assign(links_.size(), 1.0);
  link_delay_.assign(links_.size(), 0.0);
  link_effective_scale_.assign(links_.size(), 1.0);
  handover_active_.assign(links_.size(), 0);
  handover_score_.assign(links_.size(), 0.0);
  prev_reserved_.assign(links_.size(), 0.0);
  caps_scratch_.assign(links_.size(), 0.0);
  reports_.assign(links_.size(), SessionManager::SlotReport{});
  if (config_.handover.enabled) {
    const HandoverPolicy& hp = config_.handover;
    if (!std::isfinite(hp.enter_score) || !std::isfinite(hp.exit_score) ||
        hp.enter_score <= hp.exit_score) {
      throw std::invalid_argument(
          "EdgeCluster: handover enter_score must exceed exit_score");
    }
    if (hp.window_slots == 0) {
      throw std::invalid_argument(
          "EdgeCluster: handover window_slots must be >= 1");
    }
    migrate_scratch_.reserve(32);
  }
  const TelemetryConfig& tel = config_.serving.telemetry;
  if (tel.trace_on()) tracer_ = tel.tracer;
  flight_ = resolve_flight_recorder(tel);
  if (tel.counters_on()) {
    TelemetryRegistry& reg = *tel.registry;
    c_placed_ = &reg.counter("cluster/sessions_placed");
    c_spills_ = &reg.counter("cluster/session_spills");
    c_rejects_ = &reg.counter("cluster/placement_rejects");
  }
}

EdgeCluster::~EdgeCluster() = default;

std::size_t EdgeCluster::submit(const SessionSpec& spec) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::submit: already finished");
  }
  // Same validation as SessionManager::submit, applied once at the cluster
  // door so a bad spec fails before placement ever sees it. The links step
  // in lockstep with the cluster, so link 0's slot clock is the cluster's.
  links_.front()->validate_spec(spec);

  Entry& e = entries_.emplace_back(entries_.size(), spec);
  metrics_.reserve_sessions(entries_.size());
  e.due = std::max(spec.arrival_slot, slot_);
  // Ids only grow and sources submit in due order, so the new entry almost
  // always sorts last in (due, id): append. An out-of-order submit (a
  // pre-scheduled trace, a retry landing before later arrivals) searches.
  if (pending_head_ == pending_.size() ||
      entries_[pending_.back()].due <= e.due) {
    pending_.push_back(e.id);
    return e.id;
  }
  const auto begin =
      pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_);
  const auto pos = std::upper_bound(
      begin, pending_.end(), e.id, [&](std::size_t a, std::size_t b) {
        const Entry& ea = entries_[a];
        const Entry& eb = entries_[b];
        if (ea.due != eb.due) return ea.due < eb.due;
        return ea.id < eb.id;
      });
  pending_.insert(pos, e.id);
  return e.id;
}

void EdgeCluster::rank_links(const Entry& entry) {
  const std::size_t k = links_.size();
  rank_.resize(k);
  switch (config_.placement) {
    case PlacementPolicy::kRoundRobin:
      for (std::size_t i = 0; i < k; ++i) rank_[i] = (rr_cursor_ + i) % k;
      break;
    case PlacementPolicy::kLeastLoaded:
      for (std::size_t i = 0; i < k; ++i) rank_[i] = i;
      std::sort(rank_.begin(), rank_.end(),
                [&](std::size_t a, std::size_t b) {
                  const double la = links_[a]->admission().reserved_load();
                  const double lb = links_[b]->admission().reserved_load();
                  if (la != lb) return la < lb;
                  return a < b;
                });
      break;
    case PlacementPolicy::kBestFit: {
      // Every link shares one candidate set, so link 0's memo serves all.
      const double load = links_.front()->cheapest_load(*entry.spec.cache);
      for (std::size_t i = 0; i < k; ++i) rank_[i] = i;
      // Links that fit rank first by tightness (smallest leftover); links
      // that cannot fit follow by descending residual (the least-bad spill).
      std::sort(rank_.begin(), rank_.end(),
                [&](std::size_t a, std::size_t b) {
                  const double ra = links_[a]->admission().residual_capacity();
                  const double rb = links_[b]->admission().residual_capacity();
                  const bool fa = ra >= load;
                  const bool fb = rb >= load;
                  if (fa != fb) return fa;
                  if (ra != rb) return fa ? ra < rb : ra > rb;
                  return a < b;
                });
      break;
    }
  }
  // Downed links leave the rotation entirely: arrivals route around them
  // and displaced sessions only consider survivors. Down/up transitions are
  // strict toggles, so the counters differ exactly while >= 1 link is down —
  // the fault-free path never pays for the scan.
  if (ledger_.link_down_events != ledger_.link_up_events) {
    std::erase_if(rank_, [this](std::size_t k) { return link_down_[k] != 0; });
  }
}

void EdgeCluster::place_arrivals() {
  if (pending_head_ >= pending_.size() ||
      entries_[pending_[pending_head_]].due > slot_) {
    return;  // nothing due: keep the no-arrival slot span-free
  }
  const PhaseSpan span(tracer_, Phase::kPlace, slot_, kClusterTid);
  while (pending_head_ < pending_.size() &&
         entries_[pending_[pending_head_]].due <= slot_) {
    Entry& e = entries_[pending_[pending_head_++]];
    // Cancelled before arrival: placement never sees it (never-arrived).
    if (e.cancelled) continue;
    e.arrived = true;
    e.arrival_actual = slot_;
    const RankedPlacement p = place_ranked(e, e.id);
    e.max_sustainable_depth = p.max_sustainable_depth;
    if (p.admitted) {
      e.admitted = true;
      e.link = static_cast<int>(p.link);
      e.spilled = p.rank > 0;
      ++ledger_.placed;
      if (e.spilled) ++ledger_.spills;
      if (c_placed_ != nullptr) {
        c_placed_->add(1);
        if (e.spilled) c_spills_->add(1);
      }
      if (e.spilled && flight_ != nullptr) {
        flight_->record(FlightEventKind::kPlacementSpill, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(p.link));
      }
    } else {
      e.departure_actual = slot_;
      ++ledger_.placement_rejects;
      if (c_rejects_ != nullptr) c_rejects_->add(1);
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kPlacementReject, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(p.attempts));
      }
      if (collect_retry_) retry_feed_.push_back({e.id, e.spec, false});
    }
    if (config_.placement == PlacementPolicy::kRoundRobin) {
      rr_cursor_ = (rr_cursor_ + 1) % links_.size();
    }
  }
  if (pending_head_ > 64 && pending_head_ * 2 >= pending_.size()) {
    pending_.erase(
        pending_.begin(),
        pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
}

EdgeCluster::RankedPlacement EdgeCluster::place_ranked(
    const Entry& entry, std::size_t runtime_id) {
  rank_links(entry);
  RankedPlacement p;
  p.attempts = std::min(rank_.size(), config_.spill_limit + 1);
  int best_depth = std::numeric_limits<int>::min();
  // Placement runs once per arrival on the serial segment between shard
  // barriers, so each attempt is O(|candidates|): the link's admission
  // reads its memoized load curve instead of rescanning the cached frames.
  for (std::size_t a = 0; a < p.attempts; ++a) {
    const AdmissionDecision decision =
        links_[rank_[a]]->try_place(entry.spec, runtime_id);
    best_depth = std::max(best_depth, decision.max_sustainable_depth);
    if (decision.admitted) {
      p.admitted = true;
      p.link = rank_[a];
      p.rank = a;
      p.max_sustainable_depth = decision.max_sustainable_depth;
      return p;
    }
  }
  // attempts == 0 means every link was down — no link reported headroom.
  p.max_sustainable_depth = p.attempts > 0 ? best_depth : 0;
  return p;
}

void EdgeCluster::displace(Entry& entry) {
  entry.displaced = true;
  displaced_.push_back(entry.id);
  ++ledger_.failover_displaced;
}

void EdgeCluster::fault_evict(Entry& entry) {
  entry.displaced = false;
  entry.fault_evicted = true;
  entry.departure_actual = slot_;
  ++ledger_.fault_evicted;
}

std::size_t EdgeCluster::mint_runtime_id(std::size_t entry_id) {
  failover_owner_.push_back(entry_id);
  return kFailoverIdBase + failover_owner_.size() - 1;
}

std::size_t EdgeCluster::owner_of(std::size_t runtime_id) const {
  return runtime_id >= kFailoverIdBase
             ? failover_owner_[runtime_id - kFailoverIdBase]
             : runtime_id;
}

bool EdgeCluster::set_link_state(std::size_t link, bool down) {
  if (finished_ || link >= links_.size()) return false;
  if ((link_down_[link] != 0) == down) return true;  // already there: no-op
  link_down_[link] = down ? 1 : 0;
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kFault, slot_, kClusterTid,
                    static_cast<double>(link), down ? 0.0 : 1.0);
  }
  if (!down) {
    // Recovery: the link simply rejoins the placement rotation (rank_links
    // stops filtering it). Sessions that failed over do not migrate back.
    ++ledger_.link_up_events;
    return true;
  }
  ++ledger_.link_down_events;
  // Drain: every active session leaves the link's books now (its trace on
  // that link ends at this slot) and queues for re-placement. The entry
  // remembers the live spec — an external close may have shortened the
  // departure since placement.
  evict_scratch_.clear();
  links_[link]->evict_all_active(evict_scratch_);
  for (const EvictedSession& ev : evict_scratch_) {
    Entry& e = entries_[owner_of(ev.id)];
    e.spec = ev.spec;
    displace(e);
  }
  return true;
}

bool EdgeCluster::set_link_capacity_scale(std::size_t link, double scale) {
  if (finished_ || link >= links_.size()) return false;
  if (!(scale >= 0.0) || scale > 1e6) return false;  // rejects NaN too
  link_scale_[link] = scale;
  // ×1.0 degrade is the bitwise multiply identity, so without kLinkDegrade
  // events the effective scale is exactly the operator scale.
  link_effective_scale_[link] = scale * link_degrade_scale_[link];
  links_[link]->set_capacity_scale(link_effective_scale_[link]);
  ++ledger_.capacity_scale_events;
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kFault, slot_, kClusterTid,
                    static_cast<double>(link), 2.0);
  }
  return true;
}

bool EdgeCluster::set_link_degrade(std::size_t link, double scale,
                                   double delay) {
  if (finished_ || link >= links_.size()) return false;
  if (!(scale >= 0.0) || scale > 1e6) return false;  // rejects NaN too
  if (!(delay >= 0.0) || !std::isfinite(delay)) return false;
  link_degrade_scale_[link] = scale;
  link_delay_[link] = delay;
  // Degradation compounds multiplicatively with any operator capacity
  // scale; the recompute happens only here and in set_link_capacity_scale,
  // never in the slot loop.
  link_effective_scale_[link] = link_scale_[link] * scale;
  links_[link]->set_capacity_scale(link_effective_scale_[link]);
  ++ledger_.link_degrade_events;
  if (flight_ != nullptr) {
    flight_->record(FlightEventKind::kFault, slot_, kClusterTid,
                    static_cast<double>(link), 3.0);
  }
  return true;
}

void EdgeCluster::take_retry_feed(std::vector<RetrySeed>& out) {
  out.insert(out.end(), std::make_move_iterator(retry_feed_.begin()),
             std::make_move_iterator(retry_feed_.end()));
  retry_feed_.clear();
}

void EdgeCluster::place_displaced() {
  if (displaced_.empty()) return;
  const PhaseSpan span(tracer_, Phase::kPlace, slot_, kClusterTid);
  for (const std::size_t entry_id : displaced_) {
    Entry& e = entries_[entry_id];
    if (!e.displaced) continue;  // externally closed while displaced
    if (e.spec.departure_slot != kNeverDeparts &&
        e.spec.departure_slot <= slot_) {
      // The session's window ended during the outage: nothing to re-place
      // and nothing to retry.
      fault_evict(e);
      continue;
    }
    e.displaced = false;
    const std::size_t rid = mint_runtime_id(entry_id);
    const RankedPlacement p = place_ranked(e, rid);
    if (p.admitted) {
      e.link = static_cast<int>(p.link);
      e.runtime_id = rid;
      ++e.failovers;
      ++ledger_.failover_replaced;
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kFailover, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(p.link));
      }
    } else {
      fault_evict(e);
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kPlacementReject, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(p.attempts));
      }
      if (collect_retry_) retry_feed_.push_back({e.id, e.spec, true});
    }
    // Failover re-placement deliberately does not advance rr_cursor_: the
    // arrival rotation stays a pure function of the arrival sequence, so a
    // fault plan perturbs placement only through load, not through cursor
    // drift.
  }
  displaced_.clear();
}

bool EdgeCluster::do_migrate(std::size_t session_id, std::size_t target_link,
                             unsigned reason) {
  Entry& e = entries_[session_id];
  if (!e.admitted || e.displaced || e.fault_evicted || e.link < 0 ||
      static_cast<std::size_t>(e.link) == target_link ||
      link_down_[target_link] != 0) {
    return false;  // invalid input: nothing extracted, books never see it
  }
  const std::size_t from = static_cast<std::size_t>(e.link);
  SessionManager::MigratedSession carried;
  if (!links_[from]->extract_session(e.runtime_id, carried)) {
    // Not in the link's active set (departed or externally closed already):
    // no session moved, so no request to reconcile.
    return false;
  }
  ++ledger_.migrations_requested;
  e.spec = carried.spec;  // live spec: an external close may have shortened it
  const bool window_over = e.spec.departure_slot != kNeverDeparts &&
                           e.spec.departure_slot <= slot_;
  if (!window_over) {
    const std::size_t rid = mint_runtime_id(session_id);
    if (links_[target_link]->place_migrated(carried, rid).admitted) {
      e.link = static_cast<int>(target_link);
      e.runtime_id = rid;
      ++e.migrations;
      ++e.migrations_in_window;
      ++ledger_.migrations_completed;
      if (flight_ != nullptr) {
        flight_->record(FlightEventKind::kMigration, slot_, kClusterTid,
                        static_cast<double>(e.id),
                        static_cast<double>(reason) * 1048576.0 +
                            static_cast<double>(from) * 1024.0 +
                            static_cast<double>(target_link));
      }
      return true;
    }
  }
  // Abort: the window ends this slot, or the target refused the load. The
  // session already left its source link, so it joins the displaced path —
  // re-placement next slot, or eviction/close under the exact failover
  // books. Nothing is stranded.
  ++ledger_.migrations_aborted;
  displace(e);
  return false;
}

bool EdgeCluster::migrate_session(std::size_t session_id,
                                  std::size_t target_link) {
  if (finished_ || target_link >= links_.size() ||
      session_id >= entries_.size()) {
    return false;
  }
  return do_migrate(session_id, target_link, 2);
}

void EdgeCluster::evaluate_handover() {
  const HandoverPolicy& hp = config_.handover;
  const std::size_t n = links_.size();

  // Score each link: capacity lost to degradation plus the reported
  // per-slot delay.
  for (std::size_t k = 0; k < n; ++k) {
    double score = (1.0 - link_degrade_scale_[k]) +
                   hp.delay_weight * link_delay_[k];
    // A downed link already drained through the failover path; handover has
    // nothing left to move off it.
    if (link_down_[k] != 0) score = 0.0;
    handover_score_[k] = score;
    // Enter/exit hysteresis: a link starts shedding at enter_score and only
    // stops once it recovers to exit_score, so a score hovering at one
    // threshold cannot toggle the state every slot.
    if (handover_active_[k] == 0) {
      if (score >= hp.enter_score) handover_active_[k] = 1;
    } else if (score <= hp.exit_score) {
      handover_active_[k] = 0;
    }
  }

  // Per-session ping-pong budget: at most session_budget completed
  // migrations inside any window_slots window.
  const auto within_budget = [&](Entry& e) {
    if (slot_ - e.migration_window_start >= hp.window_slots) {
      e.migration_window_start = slot_;
      e.migrations_in_window = 0;
    }
    return e.migrations_in_window < hp.session_budget;
  };
  // Healthiest destination: not down, not itself in handover; lowest score,
  // ties by least reserved load, then lowest index — fully deterministic.
  const auto pick_target = [&](std::size_t avoid) {
    int best = -1;
    for (std::size_t k = 0; k < n; ++k) {
      if (k == avoid || link_down_[k] != 0 || handover_active_[k] != 0) {
        continue;
      }
      if (best < 0) {
        best = static_cast<int>(k);
        continue;
      }
      const auto b = static_cast<std::size_t>(best);
      if (handover_score_[k] != handover_score_[b]) {
        if (handover_score_[k] < handover_score_[b]) best = static_cast<int>(k);
        continue;
      }
      if (links_[k]->admission().reserved_load() <
          links_[b]->admission().reserved_load()) {
        best = static_cast<int>(k);
      }
    }
    return best;
  };

  // Drain links in handover: worst-served sessions (largest backlog, ties
  // by runtime id so store compaction order cannot leak into the drain
  // order) migrate first, paced by max_migrations_per_slot. The drain
  // consumes only a handful of candidates from thousands, so it pops them
  // lazily off a heap — O(n + m log n) for m visited — in exactly the
  // (backlog desc, id asc) order a full sort would give, out-of-budget
  // skips included. The heap's comparator is that order reversed: the
  // front is the worst-served session.
  const auto later = [](const std::pair<double, std::size_t>& a,
                        const std::pair<double, std::size_t>& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second > b.second;
  };
  for (std::size_t k = 0; k < n; ++k) {
    if (handover_active_[k] == 0) continue;
    SessionManager& src = *links_[k];
    const std::size_t active = src.active_count();
    if (active == 0) continue;
    const int target = pick_target(k);
    if (target < 0) continue;  // nowhere healthier to go
    migrate_scratch_.clear();
    const std::span<const double> backlogs = src.active_backlogs();
    for (std::size_t i = 0; i < active; ++i) {
      migrate_scratch_.emplace_back(backlogs[i], src.active_session_id(i));
    }
    std::make_heap(migrate_scratch_.begin(), migrate_scratch_.end(), later);
    std::size_t attempts = 0;
    for (auto end = migrate_scratch_.end();
         end != migrate_scratch_.begin() &&
         attempts < hp.max_migrations_per_slot;
         --end) {
      std::pop_heap(migrate_scratch_.begin(), end, later);
      Entry& e = entries_[owner_of(std::prev(end)->second)];
      if (!within_budget(e)) continue;
      ++attempts;  // aborts count against the pace: no same-slot retry storm
      do_migrate(e.id, static_cast<std::size_t>(target), 0);
    }
  }

  if (!hp.rebalance_on_departure) return;
  // Rebalance-on-departure: a departure just freed reserved load on a link
  // (its reservation dropped across begin_slot) that now sits below the
  // fleet mean — pull the worst-served session off the most reserved link
  // onto it. One migration per slot keeps the rebalance gentle.
  double mean_reserved = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    mean_reserved += links_[k]->admission().reserved_load();
  }
  mean_reserved /= static_cast<double>(n);
  int freed = -1;
  for (std::size_t k = 0; k < n; ++k) {
    if (link_down_[k] != 0 || handover_active_[k] != 0) continue;
    const double now = links_[k]->admission().reserved_load();
    if (now >= prev_reserved_[k]) continue;  // nothing departed here
    if (now >= mean_reserved) continue;      // not underloaded
    if (freed < 0 ||
        now <
            links_[static_cast<std::size_t>(freed)]->admission().reserved_load()) {
      freed = static_cast<int>(k);
    }
  }
  if (freed < 0) return;
  int donor = -1;
  double donor_load = -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (static_cast<int>(k) == freed || link_down_[k] != 0) continue;
    if (links_[k]->active_count() == 0) continue;
    const double load = links_[k]->admission().reserved_load();
    if (load > donor_load) {
      donor_load = load;
      donor = static_cast<int>(k);
    }
  }
  if (donor < 0 || donor_load <= mean_reserved) return;
  SessionManager& src = *links_[static_cast<std::size_t>(donor)];
  const std::span<const double> backlogs = src.active_backlogs();
  std::size_t worst = src.active_count();
  double worst_backlog = -1.0;
  for (std::size_t i = 0; i < src.active_count(); ++i) {
    if (backlogs[i] > worst_backlog) {
      worst_backlog = backlogs[i];
      worst = i;
    }
  }
  if (worst == src.active_count()) return;
  Entry& e = entries_[owner_of(src.active_session_id(worst))];
  if (within_budget(e)) do_migrate(e.id, static_cast<std::size_t>(freed), 1);
}

void EdgeCluster::accumulate_slo(SloObservation& observation) {
  observation.placed += ledger_.placed;
  observation.spills += ledger_.spills;
  observation.placement_rejects += ledger_.placement_rejects;
  for (auto& link : links_) link->accumulate_slo(observation);
}

void EdgeCluster::step(const std::vector<double>& link_capacity_bytes) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::step: already finished");
  }
  if (link_capacity_bytes.size() != links_.size()) {
    throw std::invalid_argument(
        "EdgeCluster::step: one capacity draw per link required");
  }

  // Rebalance-on-departure needs to see which reservations this slot's
  // departures release, so snapshot every link's reserved load before
  // begin_slot. Policy-gated: default runs pay one branch.
  if (config_.handover.enabled && config_.handover.rebalance_on_departure) {
    for (std::size_t k = 0; k < links_.size(); ++k) {
      prev_reserved_[k] = links_[k]->admission().reserved_load();
    }
  }

  // 1. Departures everywhere first, so this slot's arrivals can be placed
  //    into reservations freed on any link.
  for (auto& link : links_) link->begin_slot();

  // 2. Placement (the one cluster-centralized act). Sessions displaced by an
  //    outage re-enter first — they were admitted before this slot's
  //    arrivals existed — then the slot's arrivals.
  place_displaced();
  place_arrivals();

  // 2b. Handover: once placement settles the slot's membership, migrate
  //     sessions off degraded or pressured links. A migration aborted here
  //     lands on the displaced queue and re-enters placement next slot.
  if (config_.handover.enabled) evaluate_handover();

  // 3. Shards. Each link runs its memoized decide engine, then schedules and
  //    drains with its own capacity, as one index of the executor loop; a
  //    link touches only its own state, so any thread count is bit-identical
  //    to serial. The fault plane shapes the effective capacity here: a
  //    downed link offers zero (so utilization never counts capacity nobody
  //    could use) and a faded link offers its scaled draw. ×1.0 is the
  //    bitwise multiply identity, so with no faults the totals are bit for
  //    bit the pre-fault-plane ones.
  for (std::size_t k = 0; k < links_.size(); ++k) {
    caps_scratch_[k] = link_down_[k] != 0
                           ? 0.0
                           : link_capacity_bytes[k] * link_effective_scale_[k];
  }
  executor_.parallel_for(links_.size(), [this](std::size_t k) {
    links_[k]->decide_phase();
    reports_[k] = links_[k]->finish_slot(caps_scratch_[k]);
  });

  // 4. After the barrier: fleet totals summed in link order.
  double offered = 0.0, used = 0.0;
  std::size_t active = 0;
  for (const SessionManager::SlotReport& report : reports_) {
    offered += report.capacity_offered;
    used += report.capacity_used;
    active += report.active_sessions;
  }
  metrics_.record_slot(offered, used, active);
  ++slot_;
}

std::size_t EdgeCluster::active_count() const noexcept {
  std::size_t total = 0;
  for (const auto& link : links_) total += link->active_count();
  return total;
}

bool EdgeCluster::request_close(std::size_t session_id) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::request_close: already finished");
  }
  if (session_id >= entries_.size()) return false;
  Entry& e = entries_[session_id];
  if (e.admitted) {
    if (e.fault_evicted) return false;  // already ended by an outage
    if (e.displaced) {
      // The owning link is down and the session is queued for re-placement:
      // the close lands on the eviction path (its trace already ended at the
      // drain) instead of being silently dropped.
      e.displaced = false;
      e.departure_actual = slot_;
      ++ledger_.fault_closed;
      return true;
    }
    return links_[static_cast<std::size_t>(e.link)]->request_close(
        e.runtime_id);
  }
  if (!e.arrived && !e.cancelled) {
    e.cancelled = true;
    return true;
  }
  return false;  // refused, already cancelled, or already closed
}

std::size_t EdgeCluster::next_pending_arrival_slot() const noexcept {
  // Displaced sessions make the current slot "pending": the driver must
  // step (not idle-skip) so re-placement happens immediately.
  if (!displaced_.empty()) return slot_;
  return pending_head_ < pending_.size()
             ? entries_[pending_[pending_head_]].due
             : kNeverDeparts;
}

std::size_t EdgeCluster::skip_idle_slots(std::size_t max_slots) {
  if (finished_) {
    throw std::logic_error("EdgeCluster::skip_idle_slots: already finished");
  }
  if (active_count() != 0) {
    throw std::logic_error("EdgeCluster::skip_idle_slots: sessions are active");
  }
  std::size_t slots = max_slots;
  if (!displaced_.empty()) slots = 0;  // re-placement is due this slot
  if (pending_head_ < pending_.size()) {
    const std::size_t due = entries_[pending_[pending_head_]].due;
    slots = due > slot_ ? std::min(slots, due - slot_) : 0;
  }
  // The links hold no internal pending arrivals (placement injects sessions
  // via try_place only), so each accepts the full skip; anything else means
  // the link clocks desynced from the cluster's.
  for (auto& link : links_) {
    if (link->skip_idle_slots(slots) != slots) {
      throw std::logic_error("EdgeCluster::skip_idle_slots: link desynced");
    }
  }
  slot_ += slots;
  return slots;
}

ClusterResult EdgeCluster::finish() {
  if (finished_) {
    throw std::logic_error("EdgeCluster::finish: already finished");
  }
  finished_ = true;

  // Sessions still displaced when the run ends never got a re-placement
  // slot: count them as fault-evicted so the failover books balance
  // (displaced == replaced + evicted + closed, nothing stranded).
  for (const std::size_t entry_id : displaced_) {
    Entry& e = entries_[entry_id];
    if (e.displaced) fault_evict(e);
  }
  displaced_.clear();

  // Close every link and index its outcomes by cluster session id. A
  // failed-over session left retired segments on earlier links under older
  // runtime ids; only the segment matching the entry's *current* runtime id
  // is the one its report should carry.
  std::vector<ServingResult> link_results;
  link_results.reserve(links_.size());
  for (auto& link : links_) link_results.push_back(link->finish_link());
  // entry id -> (link, index into that link's outcome list)
  std::vector<std::pair<int, std::size_t>> where(entries_.size(), {-1, 0});
  for (std::size_t k = 0; k < link_results.size(); ++k) {
    const auto& sessions = link_results[k].sessions;
    for (std::size_t j = 0; j < sessions.size(); ++j) {
      const std::size_t owner = owner_of(sessions[j].id);
      if (sessions[j].id == entries_[owner].runtime_id) {
        where[owner] = {static_cast<int>(k), j};
      }
    }
  }

  ClusterResult result;
  result.sessions.reserve(entries_.size());
  for (std::size_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    ClusterSessionOutcome out;
    out.link = e.link;
    out.spilled = e.spilled;
    out.arrived = e.arrived;
    out.failovers = e.failovers;
    out.migrations = e.migrations;
    out.fault_evicted = e.fault_evicted;
    if (e.admitted) {
      out.session = std::move(
          link_results[static_cast<std::size_t>(where[e.id].first)]
              .sessions[where[e.id].second]);
      // The segment carries its per-link runtime id; report the cluster id.
      out.session.id = e.id;
    } else {
      // Refused everywhere (or never arrived): synthesize the same outcome
      // shape the single-link runtime reports.
      out.session.id = e.id;
      out.session.admitted = false;
      out.session.arrival_slot = e.arrival_actual;
      out.session.departure_slot = e.arrived ? e.departure_actual
                                             : e.arrival_actual;
      out.session.weight = e.spec.weight;
      out.session.max_sustainable_depth =
          e.arrived ? e.max_sustainable_depth : 0;
    }

    SessionMetrics metrics;
    metrics.session_id = e.id;
    metrics.arrived = e.arrived;
    metrics.admitted = e.admitted;
    metrics.arrival_slot = out.session.arrival_slot;
    metrics.departure_slot = out.session.departure_slot;
    metrics.weight = e.spec.weight;
    metrics.has_summary = out.session.has_summary;
    metrics.summary = out.session.summary;
    metrics_.record_session(metrics);

    result.sessions.push_back(std::move(out));
  }

  static_cast<ClusterLedger&>(result.metrics) = ledger_;
  result.metrics.link_count = links_.size();
  result.metrics.fleet = metrics_.fleet();
  std::vector<double> link_used;
  link_used.reserve(link_results.size());
  for (const ServingResult& lr : link_results) {
    result.metrics.per_link.push_back(lr.fleet);
    result.metrics.per_link_admission.push_back(lr.admission);
    link_used.push_back(lr.fleet.capacity_used);
  }
  result.metrics.link_load_fairness = jain_fairness_index(link_used);

  // Per-session report with link assignment.
  CsvTable sessions({"session", "link", "placed", "spilled", "arrival",
                     "departure", "weight", "avg_quality", "avg_backlog",
                     "mean_depth", "verdict"});
  for (const ClusterSessionOutcome& s : result.sessions) {
    const SessionOutcome& o = s.session;
    CsvCell link_cell = s.link >= 0
                            ? CsvCell(static_cast<std::int64_t>(s.link))
                            : CsvCell(std::monostate{});
    if (o.has_summary) {
      sessions.add_row(
          {static_cast<std::int64_t>(o.id), link_cell, std::string("yes"),
           std::string(s.spilled ? "yes" : "no"),
           static_cast<std::int64_t>(o.arrival_slot),
           static_cast<std::int64_t>(o.departure_slot), o.weight,
           o.summary.time_average_quality, o.summary.time_average_backlog,
           o.summary.mean_depth,
           std::string(o.summary.partial
                           ? "too-short"
                           : to_string(o.summary.stability.verdict))});
    } else {
      sessions.add_row({static_cast<std::int64_t>(o.id), link_cell,
                        std::string(o.admitted ? "yes" : "no"),
                        std::string(s.spilled ? "yes" : "no"),
                        static_cast<std::int64_t>(o.arrival_slot),
                        static_cast<std::int64_t>(o.departure_slot), o.weight,
                        std::monostate{}, std::monostate{}, std::monostate{},
                        std::string("-")});
    }
  }
  result.session_table = std::move(sessions);

  // Per-link rollup.
  CsvTable links({"link", "placed", "attempts", "accepted", "rejected",
                  "capacity_offered", "capacity_used", "utilization",
                  "mean_quality", "divergent"});
  for (std::size_t k = 0; k < link_results.size(); ++k) {
    const FleetMetrics& fleet = link_results[k].fleet;
    const AdmissionStats& adm = link_results[k].admission;
    links.add_row({static_cast<std::int64_t>(k),
                   static_cast<std::int64_t>(fleet.sessions_admitted),
                   static_cast<std::int64_t>(adm.attempts),
                   static_cast<std::int64_t>(adm.accepted),
                   static_cast<std::int64_t>(adm.rejected),
                   fleet.capacity_offered, fleet.capacity_used,
                   fleet.utilization(), fleet.mean_quality,
                   static_cast<std::int64_t>(fleet.divergent_sessions)});
  }
  result.link_table = std::move(links);
  return result;
}

// run_cluster_scenario is defined in serving/driver/event_loop.cpp: the
// fixed-horizon loop is now a thin wrapper over the event-driven driver, so
// the driver is the single execution path.

}  // namespace arvis
