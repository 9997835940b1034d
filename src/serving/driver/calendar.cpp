#include "serving/driver/calendar.hpp"

#include <algorithm>
#include <cstddef>

namespace arvis {

namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 64;
  while (p < n) p *= 2;
  return p;
}

/// Min-heap order on (slot, seq) for the std heap algorithms, which keep the
/// *largest* element under `less` at the front.
bool later(const CalendarEvent& a, const CalendarEvent& b) noexcept {
  if (a.slot != b.slot) return a.slot > b.slot;
  return a.seq > b.seq;
}

}  // namespace

void EventCalendar::reserve(std::size_t events) {
  const std::size_t want = pow2_at_least(events);
  if (want <= buckets_.size()) return;
  if (buckets_.empty()) {
    buckets_.resize(want);
    mask_ = want - 1;
    return;
  }
  std::vector<std::vector<CalendarEvent>> old = std::move(buckets_);
  buckets_.assign(want, {});
  mask_ = want - 1;
  for (const auto& bucket : old) {
    for (const CalendarEvent& e : bucket) {
      buckets_[e.slot & mask_].push_back(e);
    }
  }
}

void EventCalendar::grow() {
  // Double the ring and rehash. Old buckets are walked in index order and
  // each in push order; all events of one slot live in one old bucket, so
  // their relative (push) order survives — the ordering contract holds.
  ++grows_;
  reserve(buckets_.size() * 2);
}

void EventCalendar::push(const CalendarEvent& event) {
  if (buckets_.empty()) {
    buckets_.resize(64);
    mask_ = 63;
  }
  ++count_;
  if (event.slot < floor_) floor_ = event.slot;
  if (min_cache_ != kNone && event.slot < min_cache_) min_cache_ = event.slot;
  // A push beyond one ring revolution of the floor would share its bucket
  // with earlier-"year" slots: it waits in the overflow heap instead.
  if (event.slot > floor_ && event.slot - floor_ > mask_) {
    ++wrapped_pushes_;
    far_.push_back(event);
    std::push_heap(far_.begin(), far_.end(), later);
    return;
  }
  if (count_ - far_.size() > 2 * buckets_.size()) grow();
  buckets_[event.slot & mask_].push_back(event);
}

std::size_t EventCalendar::scan_min(std::size_t limit) const {
  // Fast path: the nearest ring slot usually lies within one revolution of
  // the floor; slot floor_+j can only live in bucket (floor_+j) & mask_, so
  // probe the ring in day order and stop at the first hit, or at `limit`
  // (the heap's earliest slot — nothing later can be the minimum). Falls
  // back to a full scan when the probe covers a whole revolution: a push
  // below the floor can leave ring events more than one revolution out.
  const std::size_t nb = buckets_.size();
  if (floor_ <= kNone - nb) {
    for (std::size_t j = 0; j < nb; ++j) {
      const std::size_t target = floor_ + j;
      if (target >= limit) return limit;
      for (const CalendarEvent& e : buckets_[target & mask_]) {
        if (e.slot == target) return target;
      }
    }
  }
  std::size_t best = limit;
  for (const auto& bucket : buckets_) {
    for (const CalendarEvent& e : bucket) best = std::min(best, e.slot);
  }
  return best;
}

std::size_t EventCalendar::min_slot() {
  if (count_ == 0) return kNone;
  if (min_cache_ == kNone) {
    const std::size_t heap_min = far_.empty() ? kNone : far_.front().slot;
    min_cache_ = count_ > far_.size() ? scan_min(heap_min) : heap_min;
    floor_ = min_cache_;
  }
  return min_cache_;
}

void EventCalendar::pop_due(std::size_t now, std::vector<CalendarEvent>& out) {
  out.clear();
  while (count_ > 0) {
    const std::size_t m = min_slot();
    if (m == kNone || m > now) break;
    // Slot m's overflow events, in seq order, merge with its ring events
    // (push order, so seq order too) into one seq-ordered run.
    far_due_.clear();
    while (!far_.empty() && far_.front().slot == m) {
      std::pop_heap(far_.begin(), far_.end(), later);
      far_due_.push_back(far_.back());
      far_.pop_back();
    }
    std::size_t next_far = 0;
    std::vector<CalendarEvent>& bucket = buckets_[m & mask_];
    std::size_t kept = 0;
    for (CalendarEvent& e : bucket) {
      if (e.slot == m) {
        while (next_far < far_due_.size() && far_due_[next_far].seq < e.seq) {
          out.push_back(far_due_[next_far++]);
        }
        out.push_back(e);
      } else {
        bucket[kept++] = e;
      }
    }
    out.insert(out.end(),
               far_due_.begin() + static_cast<std::ptrdiff_t>(next_far),
               far_due_.end());
    count_ -= bucket.size() - kept + far_due_.size();
    bucket.resize(kept);
    // Every event at slot m lived in this bucket or the heap, so the
    // calendar's new minimum is strictly later.
    floor_ = m + 1;
    min_cache_ = kNone;
  }
}

}  // namespace arvis
