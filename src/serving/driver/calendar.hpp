// EventCalendar: a bucketed calendar queue for the driver's timed events.
//
// The EventLoop used to keep its calendar in a std::priority_queue — every
// push and pop paying O(log n) comparisons and a heap's cache-hostile
// percolation. But driver events are *slot-keyed with a monotonically
// advancing clock*: the classic calendar-queue regime (Brown 1988), where
// hashing events into per-slot buckets makes push and pop O(1) amortized.
//
// Layout: a power-of-two ring of buckets, event -> bucket[slot & mask], one
// slot per "day", for events within one ring revolution of the floor (the
// earliest queued slot). A bucket may still hold several distinct slots
// (slot, slot+nb, ...: different "years") after a push below the floor;
// extraction filters the minimum slot's events out of its bucket in one
// compaction pass. The ring doubles (rehash) when its own occupancy
// outgrows it, so buckets stay O(1) in expectation.
//
// Events more than one revolution past the floor — a session's departure
// marker, typically — go to one overflow min-heap on (slot, seq) instead of
// a bucket: a far push is an O(log n) sift into one contiguous array, never
// a bucket vector of its own nor a reason to grow the ring. They stay in the
// heap until due; pop_due() merges a slot's heap and ring events by seq.
//
// Ordering contract (what the priority_queue gave the loop, preserved bit
// for bit): events come out ascending by (slot, push order). Within a
// bucket, pushes append and compactions keep relative order, the heap pops
// ties in seq order, and the merge keeps seq order, so same-slot events
// always drain in push order; pop_due() extracts ascending slots.
//
// Steady state allocates nothing: buckets, the heap and the merge scratch
// keep their capacity across pushes and pops, and pop_due drains into a
// caller-owned scratch vector. Only a new high-water mark (more events
// queued than ever before) allocates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace arvis {

/// One timed driver event. `kind`/`payload` are opaque to the calendar
/// (the EventLoop stores its EventKind and spec index); `seq` is assigned
/// by the pusher and must be globally increasing — it is the tie-break the
/// ordering contract documents.
struct CalendarEvent {
  std::size_t slot = 0;
  std::uint64_t seq = 0;
  std::uint8_t kind = 0;
  std::size_t payload = 0;
};

class EventCalendar {
 public:
  /// "No event" sentinel returned by min_slot() on an empty calendar.
  static constexpr std::size_t kNone =
      std::numeric_limits<std::size_t>::max();

  /// Pre-sizes the ring for ~`events` concurrently queued events, so a
  /// trace-sized schedule burst never rehashes mid-push.
  void reserve(std::size_t events);

  /// Enqueues: amortized O(1) within one ring revolution of the floor,
  /// O(log far events) past it. Events may land at any slot, including
  /// before previously popped ones.
  void push(const CalendarEvent& event);

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Earliest queued slot (kNone when empty). Cached between mutations, so
  /// repeated peeks are O(1).
  [[nodiscard]] std::size_t min_slot();

  /// Appends every event with slot <= `now` to `out` (cleared first) in
  /// (slot, seq) order and removes them from the calendar. O(k + touched
  /// buckets) for k extracted events, plus O(log far events) for each
  /// event the overflow heap yields.
  void pop_due(std::size_t now, std::vector<CalendarEvent>& out);

  // Always-on structural accounting (one add at the rare edge, nothing per
  // pop): how often the ring doubled, and how many pushes landed more than
  // one ring revolution past the floor (the overflow heap's pushes). The
  // driver flushes these into the telemetry registry at end of run.
  [[nodiscard]] std::size_t grows() const noexcept { return grows_; }
  [[nodiscard]] std::size_t wrapped_pushes() const noexcept {
    return wrapped_pushes_;
  }

 private:
  void grow();
  /// Earliest ring slot, or `limit` when no ring slot is earlier.
  [[nodiscard]] std::size_t scan_min(std::size_t limit) const;

  std::vector<std::vector<CalendarEvent>> buckets_;
  std::vector<CalendarEvent> far_;      // overflow min-heap on (slot, seq)
  std::vector<CalendarEvent> far_due_;  // pop_due's merge scratch
  std::size_t mask_ = 0;   // buckets_.size() - 1 (power of two)
  std::size_t count_ = 0;  // ring + heap
  std::size_t floor_ = 0;  // lower bound: no queued event has slot < floor_
  std::size_t min_cache_ = kNone;  // valid iff != kNone
  std::size_t grows_ = 0;
  std::size_t wrapped_pushes_ = 0;
};

}  // namespace arvis
