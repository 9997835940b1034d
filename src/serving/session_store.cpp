#include "serving/session_store.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace arvis {

namespace {

/// Clamped depth-table lookup, exactly the arithmetic of
/// quality_model/workload's view classes (empty table reads 0, indices
/// clamp to [0, size)). Keeping this identical is what makes the flattened
/// tables a pure layout change.
double clamped(const std::vector<double>& table, int depth) {
  if (table.empty()) return 0.0;
  const int last = static_cast<int>(table.size()) - 1;
  return table[static_cast<std::size_t>(std::clamp(depth, 0, last))];
}

/// Mixes a decide key (interned row key, backlog bits, candidate ceiling)
/// into a table hash (splitmix64-style finalizer; the low bits index the
/// power-of-two ring).
std::uint64_t mix_key(std::uint64_t row_key, std::uint64_t backlog_bits,
                      std::uint32_t limit) {
  std::uint64_t k = row_key ^ (backlog_bits * 0x9E3779B97F4A7C15ULL) ^
                    ((limit + 1ULL) * 0xBF58476D1CE4E5B9ULL);
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDULL;
  k ^= k >> 33;
  return k;
}

/// Cap on a ring's initial capacity: a session planned for millions of
/// slots starts at this and grows like any session that outlives its plan.
constexpr std::size_t kMaxInitialRing = std::size_t{1} << 16;

/// The first step count at which a ring of `cap` samples can no longer
/// hold the stability tail: the smallest k with stability_tail_length(k) >
/// cap. Every k <= 3·cap has floor(k · (1/3)) <= cap, so the scan starts
/// past it and ends within a few steps.
std::size_t ring_grow_step(std::size_t cap) noexcept {
  std::size_t k = 3 * cap + 1;
  while (stability_tail_length(k) <= cap) ++k;
  return k;
}

}  // namespace

TraceSummary summarize_tally(const SessionTally& tally,
                             std::vector<double>& scratch) {
  const std::size_t steps = tally.totals.steps;
  scratch.clear();
  if (steps >= 8) {
    // Unroll the newest `len` samples oldest first; the ring invariant
    // guarantees len <= ring_cap and that none of them was overwritten.
    const std::size_t len = stability_tail_length(steps);
    const std::size_t cap = tally.ring_cap;
    ARVIS_DCHECK_LE(len, cap);
    std::size_t pos = (tally.ring_head + cap - len % cap) % cap;
    for (std::size_t k = 0; k < len; ++k) {
      scratch.push_back(tally.ring[pos]);
      pos = pos + 1 == cap ? 0 : pos + 1;
    }
  }
  return summarize_totals(tally.totals, scratch);
}

FlatDecideTable::FlatDecideTable(const FrameStatsCache& cache,
                                 std::span<const int> candidates)
    : frames_(cache.frame_count()) {
  const std::size_t width = candidates.size();
  data_.resize(frames_ * 2 * width);
  for (std::size_t f = 0; f < frames_; ++f) {
    const FrameWorkload& frame = cache.workload(f);
    double* u = data_.data() + f * 2 * width;
    double* a = u + width;
    for (std::size_t c = 0; c < width; ++c) {
      // LogPointQualityView::quality, verbatim.
      const double points = clamped(frame.points_at_depth, candidates[c]);
      u[c] = points >= 1.0 ? std::log10(points) : 0.0;
      // ByteWorkloadView::arrivals, verbatim.
      a[c] = clamped(frame.bytes_at_depth, candidates[c]);
    }
  }
}

SessionStore::SessionStore(std::vector<int> candidates, double v,
                           TraceMode trace_mode)
    : candidates_(std::move(candidates)),
      v_(v),
      width_(candidates_.size()),
      trace_all_(trace_mode == TraceMode::kAll) {
  if (candidates_.empty()) {
    throw std::invalid_argument("SessionStore: empty candidate set");
  }
  tier_limit_.assign(kStoreQosTiers, static_cast<std::uint32_t>(width_));
  // The per-session LyapunovDepthController used to reject V < 0 at
  // construction; the flat kernel owns V now, so the check lives here.
  if (v < 0.0) {
    throw std::invalid_argument("SessionStore: V must be >= 0");
  }
}

ServingSession& SessionStore::create(std::size_t id, const SessionSpec& spec) {
  return slab_.emplace_back(id, spec);
}

ServingSession* SessionStore::find(std::size_t id) noexcept {
  // Linear: slab ids are NOT guaranteed sorted (EdgeCluster places sessions
  // in (due slot, id) order, so a link can create id 7 before id 3), and
  // closes are rare calendar events, never per-slot work.
  for (std::size_t pos = 0; pos < slab_.size(); ++pos) {
    if (slab_[pos].id == id) return &slab_[pos];
  }
  return nullptr;
}

std::size_t SessionStore::intern(const FrameStatsCache& cache) {
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    if (tables_[t].first == &cache) return t;
  }
  tables_.emplace_back(&cache,
                       std::make_unique<FlatDecideTable>(cache, candidates_));
  return tables_.size() - 1;
}

void SessionStore::activate(ServingSession& s, std::size_t planned_slots) {
#if ARVIS_DCHECK_IS_ON
  // Double-activation would alias two SoA slots onto one slab record;
  // O(active) scan, Debug builds only.
  for (const ServingSession* a : active_) {
    ARVIS_DCHECK_MSG(a != &s, "session activated twice");
  }
#endif
  const std::size_t table_id = intern(*s.spec.cache);
  const FlatDecideTable& table = *tables_[table_id].second;
  active_.push_back(&s);
  backlog_.push_back(0.0);  // sessions start with an empty queue
  weight_.push_back(s.spec.weight);
  ewma_.push_back(0.0);
  table_.push_back(table.data());
  table_id_.push_back(static_cast<std::uint32_t>(table_id));
  frames_.push_back(table.frames());
  row_off_.push_back(0);
  departure_.push_back(s.spec.departure_slot);
  ARVIS_DCHECK_LT(s.spec.qos, tier_limit_.size());
  qos_.push_back(s.spec.qos);
  limit_.push_back(tier_limit_[s.spec.qos]);
  depth_.push_back(0);
  dec_arrivals_.push_back(0.0);
  dec_quality_.push_back(0.0);
  for (std::vector<double>& row : stage_) row.push_back(0.0);
  // The ring is sized here but allocated by the session's first block
  // flush, on the drain path of its own shard: activation runs on the
  // serial placement segment and allocates no block per session.
  const std::size_t cap =
      std::min(stability_tail_length(planned_slots), kMaxInitialRing);
  ring_buf_.emplace_back();
  SessionTally tally;
  tally.ring_cap = static_cast<std::uint32_t>(cap);
  tally.grow_at = ring_grow_step(cap);
  tally_.push_back(tally);
  histo_add(std::bit_cast<std::uint64_t>(s.spec.weight));
  ++generation_;
}

void SessionStore::allocate_ring(std::size_t i) {
  SessionTally& t = tally_[i];
  std::vector<double>& buf = ring_buf_[i];
  buf.assign(t.ring_cap, 0.0);
  t.ring = buf.data();
}

void SessionStore::grow_ring(std::size_t i) {
  SessionTally& t = tally_[i];
  std::vector<double>& buf = ring_buf_[i];
  // Growth triggers past 3x capacity, and a flush adds at most kStageRows
  // samples to a ring of at least 4, so the ring is full before this flush:
  // rotating at the write head puts the oldest sample first, and the new
  // half follows the newest.
  const std::size_t cap = buf.size();
  ARVIS_DCHECK_GE(t.totals.steps, cap + kStageRows);
  ARVIS_DCHECK_LE(2 * cap, std::numeric_limits<std::uint32_t>::max());
  std::rotate(buf.begin(), buf.begin() + t.ring_head, buf.end());
  buf.resize(2 * cap, 0.0);
  t.ring = buf.data();
  t.ring_head = static_cast<std::uint32_t>(cap);
  t.ring_cap = static_cast<std::uint32_t>(2 * cap);
  t.grow_at = ring_grow_step(2 * cap);
  // One doubling covers any flush: grow_at roughly doubles with the ring.
  ARVIS_DCHECK_LT(t.totals.steps, t.grow_at);
}

void SessionStore::set_tier_limits(std::span<const std::uint32_t> limits) {
  if (limits.size() > tier_limit_.size()) {
    throw std::invalid_argument("set_tier_limits: too many tiers");
  }
  for (const std::uint32_t l : limits) {
    if (l < 1 || l > width_) {
      throw std::invalid_argument("set_tier_limits: limit outside [1, width]");
    }
  }
  for (std::size_t t = 0; t < tier_limit_.size(); ++t) {
    tier_limit_[t] =
        t < limits.size() ? limits[t] : static_cast<std::uint32_t>(width_);
  }
  // Refresh the active mirror; a changed ceiling invalidates the decide
  // grouping (the ceiling is part of the group key), so bump the membership
  // generation exactly like a lifecycle edge. No change, no invalidation —
  // a policy re-asserting the current ceilings stays free.
  bool changed = false;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const std::uint32_t next = tier_limit_[qos_[i]];
    if (limit_[i] != next) {
      limit_[i] = next;
      changed = true;
    }
  }
  if (changed) ++generation_;
}

void SessionStore::resize_active(std::size_t n) {
#if ARVIS_DCHECK_IS_ON
  // Poison-on-release: freed slots keep their retired session's data in
  // vector capacity, where a stale index that dodges the bounds DCHECK (or
  // a push_back that recycles the slot without rewriting every mirror)
  // would read it silently. Overwrite with unmistakable poison first.
  for (std::size_t i = n; i < active_.size(); ++i) {
    active_[i] = nullptr;
    backlog_[i] = std::bit_cast<double>(kPoisonedSlotBits);
    weight_[i] = std::bit_cast<double>(kPoisonedSlotBits);
    ewma_[i] = std::bit_cast<double>(kPoisonedSlotBits);
    table_[i] = nullptr;
    table_id_[i] = std::numeric_limits<std::uint32_t>::max();
    frames_[i] = 0;
    row_off_[i] = std::numeric_limits<std::size_t>::max();
    departure_[i] = 0;
    qos_[i] = std::numeric_limits<std::uint8_t>::max();
    limit_[i] = 0;  // a live ceiling is never < 1
    const double poison = std::bit_cast<double>(kPoisonedSlotBits);
    // The poisoned step count trips drain's poisoned-tally DCHECK (a null
    // ring cannot: it is legal before a session's first flush).
    tally_[i] = SessionTally{
        TraceTotals{poison, poison, poison, poison, poison, poison, poison,
                    std::numeric_limits<std::size_t>::max()},
        poison,
        nullptr,
        std::numeric_limits<std::uint32_t>::max(),
        0,
        0};
    for (std::vector<double>& row : stage_) row[i] = poison;
  }
#endif
  active_.resize(n);
  backlog_.resize(n);
  weight_.resize(n);
  ewma_.resize(n);
  table_.resize(n);
  table_id_.resize(n);
  frames_.resize(n);
  row_off_.resize(n);
  departure_.resize(n);
  qos_.resize(n);
  limit_.resize(n);
  tally_.resize(n);
  ring_buf_.resize(n);
  depth_.resize(n);
  dec_arrivals_.resize(n);
  dec_quality_.resize(n);
  for (std::vector<double>& row : stage_) row.resize(n);
}

void SessionStore::histo_add(std::uint64_t weight_bits) {
  for (auto& [bits, count] : weight_histo_) {
    if (bits == weight_bits) {
      ++count;
      return;
    }
  }
  weight_histo_.emplace_back(weight_bits, 1);
}

void SessionStore::histo_remove(std::uint64_t weight_bits) {
  for (std::size_t k = 0; k < weight_histo_.size(); ++k) {
    if (weight_histo_[k].first == weight_bits) {
      if (--weight_histo_[k].second == 0) {
        weight_histo_[k] = weight_histo_.back();
        weight_histo_.pop_back();
      }
      return;
    }
  }
}

Status SessionStore::validate() const {
  const std::size_t n = active_.size();
  const auto fail = [](std::size_t i, const char* what) {
    return Status::FailedPrecondition("SessionStore::validate: slot " +
                                      std::to_string(i) + ": " + what);
  };
  if (backlog_.size() != n || weight_.size() != n || ewma_.size() != n ||
      table_.size() != n || table_id_.size() != n || frames_.size() != n ||
      row_off_.size() != n || departure_.size() != n || qos_.size() != n ||
      limit_.size() != n || tally_.size() != n || ring_buf_.size() != n ||
      depth_.size() != n ||
      dec_arrivals_.size() != n || dec_quality_.size() != n ||
      std::any_of(std::begin(stage_), std::end(stage_),
                  [n](const std::vector<double>& row) {
                    return row.size() != n;
                  })) {
    return Status::FailedPrecondition(
        "SessionStore::validate: SoA mirrors not index-parallel with the "
        "active list");
  }
  std::unordered_set<const ServingSession*> seen;
  seen.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ServingSession* s = active_[i];
    if (s == nullptr) return fail(i, "null (poisoned?) session pointer");
    if (!seen.insert(s).second) return fail(i, "session aliased twice");
    if (s->phase != SessionPhase::kActive) {
      return fail(i, "slab record is not kActive");
    }
    if (std::bit_cast<std::uint64_t>(weight_[i]) !=
        std::bit_cast<std::uint64_t>(s->spec.weight)) {
      return fail(i, "weight mirror diverged from spec");
    }
    if (departure_[i] != s->spec.departure_slot) {
      return fail(i, "departure mirror diverged from spec");
    }
    if (std::bit_cast<std::uint64_t>(backlog_[i]) == kPoisonedSlotBits) {
      return fail(i, "poisoned backlog in live slot");
    }
    if (!(backlog_[i] >= 0.0)) return fail(i, "negative or NaN backlog");
    if (table_id_[i] >= tables_.size()) {
      return fail(i, "table id out of interned range");
    }
    const auto& [cache, table] = tables_[table_id_[i]];
    if (cache != s->spec.cache) {
      return fail(i, "interned table belongs to a different cache");
    }
    if (table_[i] != table->data()) {
      return fail(i, "table base pointer diverged from interned table");
    }
    if (frames_[i] != table->frames()) {
      return fail(i, "frame count diverged from interned table");
    }
    const std::size_t stride = 2 * width_;
    if (row_off_[i] % stride != 0 || row_off_[i] >= frames_[i] * stride) {
      return fail(i, "row cursor out of table range or misaligned");
    }
    if (qos_[i] != s->spec.qos) return fail(i, "qos mirror diverged from spec");
    if (qos_[i] >= tier_limit_.size()) return fail(i, "qos tier out of range");
    if (limit_[i] != tier_limit_[qos_[i]]) {
      return fail(i, "candidate ceiling diverged from tier limit");
    }
    if (limit_[i] < 1 || limit_[i] > width_) {
      return fail(i, "candidate ceiling outside [1, width]");
    }
    const SessionTally& t = tally_[i];
    // The ring covers the flushed steps; the partial block is staged. It is
    // unallocated exactly while no block has been flushed (ring_cap is then
    // its planned size); the first flush allocates it.
    const std::size_t staged = t.totals.steps % kStageRows;
    const std::size_t flushed = t.totals.steps - staged;
    if ((flushed == 0) != (t.ring == nullptr)) {
      return fail(i, flushed == 0 ? "tally ring allocated before any flush"
                                  : "tally ring missing after a flush");
    }
    if (t.ring == nullptr) {
      if (ring_buf_[i].capacity() != 0) {
        return fail(i, "unflushed tally owns ring storage");
      }
    } else if (t.ring != ring_buf_[i].data() ||
               t.ring_cap != ring_buf_[i].size()) {
      return fail(i, "tally ring storage does not belong to this slot");
    }
    if (t.ring_cap < stability_tail_length(flushed)) {
      return fail(i, "tally ring smaller than the stability tail");
    }
    if (t.ring_head >= t.ring_cap) {
      return fail(i, "tally ring head out of range");
    }
    if (t.grow_at != ring_grow_step(t.ring_cap) || t.grow_at <= flushed) {
      return fail(i, "tally ring growth point inconsistent with capacity");
    }
    for (std::size_t k = 0; k < staged; ++k) {
      const double sample = stage_[(stage_slot_ - k) % kStageRows][i];
      if (std::bit_cast<std::uint64_t>(sample) == kPoisonedSlotBits) {
        return fail(i, "poisoned sample in the staged block");
      }
    }
  }
  // The weight histogram must be exactly reproducible from the mirrors (it
  // drives uniform_weights / distinct_weight_count, which gate scheduler
  // fast paths — a drifted histogram silently changes scheduling).
  std::vector<std::pair<std::uint64_t, std::size_t>> expect;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(weight_[i]);
    bool found = false;
    for (auto& [b, c] : expect) {
      if (b == bits) {
        ++c;
        found = true;
        break;
      }
    }
    if (!found) expect.emplace_back(bits, 1);
  }
  if (expect.size() != weight_histo_.size()) {
    return Status::FailedPrecondition(
        "SessionStore::validate: weight histogram tier count diverged");
  }
  for (const auto& [bits, count] : expect) {
    bool matched = false;
    for (const auto& [b, c] : weight_histo_) {
      if (b == bits && c == count) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::FailedPrecondition(
          "SessionStore::validate: weight histogram count diverged");
    }
  }
  // The memo hash is sized by distinct keys: a power of two holding every
  // group of the last grouping at load <= 1 / kMemoLoadInverse.
  if (memo_.empty() ? !group_rep_.empty()
                    : (!std::has_single_bit(memo_.size()) ||
                       memo_.size() < kMemoLoadInverse * group_rep_.size())) {
    return Status::FailedPrecondition(
        "SessionStore::validate: decide memo capacity is not a power of two "
        ">= 8 x groups");
  }
  // Decide-group structures only claim validity while the membership they
  // were built against is current.
  if (groups_generation_ == generation_ && !group_rep_.empty()) {
    if (group_row_.size() != group_rep_.size() ||
        group_limit_.size() != group_rep_.size()) {
      return Status::FailedPrecondition(
          "SessionStore::validate: group rep/row/limit arrays diverged");
    }
    for (std::size_t g = 0; g < group_rep_.size(); ++g) {
      if (group_rep_[g] >= n) {
        return Status::FailedPrecondition(
            "SessionStore::validate: group representative out of range");
      }
    }
  }
  return Status::Ok();
}

void SessionStore::rebuild_groups() {
  const std::size_t n = active_.size();
  group_rep_.clear();
  group_row_.clear();
  group_limit_.clear();
  group_of_.resize(n);

  // The scratch hash is sized by distinct keys, not sessions (a fleet
  // collapses to a few dozen keys): it starts at kMemoMinSlots and doubles
  // mid-scan whenever the load would pass 1 / kMemoLoadInverse.
  if (memo_.empty()) memo_.assign(kMemoMinSlots, MemoSlot{});
  std::size_t mask = memo_.size() - 1;
  const std::uint64_t epoch = ++memo_epoch_;

  std::uint64_t prev_key = 0;
  std::uint64_t prev_bits = 0;
  std::uint32_t prev_limit = 0;
  std::uint32_t prev_group = 0;
  bool have_prev = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = row_key(i);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(backlog_[i]);
    const std::uint32_t lim = limit_[i];
    // Cohort fast path: sessions that activated together sit adjacently in
    // the active list and evolve identically, so most duplicates are the
    // previous index — no hash probe, no random memory touch.
    if (have_prev && key == prev_key && bits == prev_bits &&
        lim == prev_limit) {
      group_of_[i] = prev_group;
      continue;
    }
    std::size_t p = mix_key(key, bits, lim) & mask;
    std::uint32_t g;
    for (;;) {
      MemoSlot& slot = memo_[p];
      if (slot.epoch != epoch) {
        g = static_cast<std::uint32_t>(group_rep_.size());
        slot = MemoSlot{epoch, key, bits, g, lim};
        group_rep_.push_back(static_cast<std::uint32_t>(i));
        group_row_.push_back(table_[i] + row_off_[i]);
        group_limit_.push_back(lim);
        if (kMemoLoadInverse * group_rep_.size() > memo_.size()) {
          grow_memo(epoch);
          mask = memo_.size() - 1;
        }
        break;
      }
      if (slot.row_key == key && slot.backlog_bits == bits &&
          slot.limit == lim) {
        g = slot.group;
        break;
      }
      p = (p + 1) & mask;
    }
    group_of_[i] = g;
    prev_key = key;
    prev_bits = bits;
    prev_limit = lim;
    prev_group = g;
    have_prev = true;
  }

  groups_generation_ = generation_;
  backlog_dirty_ = false;
}

void SessionStore::grow_memo(std::uint64_t epoch) {
  // Fresh slots carry epoch 0, which no scan ever stamps, so the doubled
  // table starts empty; the groups minted so far are re-inserted from their
  // representatives (the keys they were minted under).
  memo_.assign(2 * memo_.size(), MemoSlot{});
  const std::size_t mask = memo_.size() - 1;
  for (std::size_t g = 0; g < group_rep_.size(); ++g) {
    const std::size_t rep = group_rep_[g];
    const std::uint64_t key = row_key(rep);
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(backlog_[rep]);
    std::size_t p = mix_key(key, bits, group_limit_[g]) & mask;
    while (memo_[p].epoch == epoch) p = (p + 1) & mask;
    memo_[p] = MemoSlot{epoch, key, bits, static_cast<std::uint32_t>(g),
                        group_limit_[g]};
  }
}

void SessionStore::run_blocked_kernel() {
  const std::size_t g_count = group_rep_.size();
  group_depth_.resize(g_count);
  group_arrivals_.resize(g_count);
  group_quality_.resize(g_count);

  std::size_t g = 0;
  // Blocked lanes: kDecideLanes independent argmaxes advanced candidate by
  // candidate with branch-free selects. Each lane performs exactly the
  // scalar kernel's operations in the scalar kernel's order, so lane results
  // are bit-identical to decide(i) — blocking changes scheduling, not math.
  for (; g + kDecideLanes <= g_count; g += kDecideLanes) {
    const double* rows[kDecideLanes];
    double q[kDecideLanes];
    double best_obj[kDecideLanes];
    std::size_t best[kDecideLanes];
    std::size_t lim[kDecideLanes];
    for (std::size_t l = 0; l < kDecideLanes; ++l) {
      rows[l] = group_row_[g + l];
      q[l] = backlog_[group_rep_[g + l]];
      best[l] = 0;
      best_obj[l] = v_ * rows[l][0] - q[l] * rows[l][width_];
      lim[l] = group_limit_[g + l];
    }
    for (std::size_t c = 1; c < width_; ++c) {
      for (std::size_t l = 0; l < kDecideLanes; ++l) {
        const double objective = v_ * rows[l][c] - q[l] * rows[l][width_ + c];
        // Candidates past the lane's brownout ceiling never win; computing
        // their objective anyway keeps the lane loop branch-free (the row is
        // width_ wide regardless, so the loads are always in bounds).
        const bool better = c < lim[l] && objective > best_obj[l];
        best_obj[l] = better ? objective : best_obj[l];
        best[l] = better ? c : best[l];
      }
    }
    for (std::size_t l = 0; l < kDecideLanes; ++l) {
      group_depth_[g + l] = candidates_[best[l]];
      group_arrivals_[g + l] = rows[l][width_ + best[l]];
      group_quality_[g + l] = rows[l][best[l]];
    }
  }
  for (; g < g_count; ++g) {  // scalar tail
    const double* row = group_row_[g];
    const double q = backlog_[group_rep_[g]];
    std::size_t best = 0;
    double best_objective = v_ * row[0] - q * row[width_];
    const std::size_t lim = group_limit_[g];
    for (std::size_t c = 1; c < lim; ++c) {
      const double objective = v_ * row[c] - q * row[width_ + c];
      if (objective > best_objective) {
        best = c;
        best_objective = objective;
      }
    }
    group_depth_[g] = candidates_[best];
    group_arrivals_[g] = row[width_ + best];
    group_quality_[g] = row[best];
  }
}

void SessionStore::decide_all() {
  const std::size_t n = active_.size();
  if (n == 0) {
    group_rep_.clear();
    group_row_.clear();
    group_limit_.clear();
    last_reused_ = false;
    return;
  }

  const bool reuse = groups_generation_ == generation_ && !backlog_dirty_ &&
                     !group_rep_.empty();
  last_reused_ = reuse;
  ++decide_calls_;
  if (reuse) {
    ++decide_group_reuses_;
  } else {
    ++decide_group_rebuilds_;
  }
  if (reuse) {
    // Decision-stable steady state: membership and every backlog bit are
    // unchanged since the groups were built, so group structure is provably
    // identical — only each group's frame row advanced. O(groups).
    for (std::size_t g = 0; g < group_rep_.size(); ++g) {
      const std::size_t rep = group_rep_[g];
      group_row_[g] = table_[rep] + row_off_[rep];
    }
  } else {
    rebuild_groups();
  }

  run_blocked_kernel();

  // Fan the group decisions out to members. When every key was distinct the
  // group arrays are index-parallel with the active list (groups are minted
  // in scan order), so the copy is three straight streams.
  const std::size_t g_count = group_rep_.size();
  if (g_count == n) {
    for (std::size_t i = 0; i < n; ++i) {
      depth_[i] = group_depth_[i];
      dec_arrivals_[i] = group_arrivals_[i];
      dec_quality_[i] = group_quality_[i];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t g = group_of_[i];
      depth_[i] = group_depth_[g];
      dec_arrivals_[i] = group_arrivals_[g];
      dec_quality_[i] = group_quality_[g];
    }
  }
}

}  // namespace arvis
