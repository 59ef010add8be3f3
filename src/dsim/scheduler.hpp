// Generic discrete-event scheduler.
//
// This is the event-list machinery (Fig. 3 of the paper) shared by the
// network simulator: events ordered by (time, priority, sequence), with O(1)
// cancellation, strictly monotone execution, and counters used by the E7
// event-ratio experiment.  Events may be scheduled for the current time or
// the future, never the past — scheduling into the past throws
// ProtocolError, which is exactly the causality error the §3.1 protocol must
// prevent across simulator boundaries.
//
// Since PR 10 the pending-event set is a calendar queue (Brown 1988) instead
// of a binary heap, so schedule/step/cancel stay O(1) with millions of
// pending events:
//
//   * A "day wheel" of power-of-two many buckets, each one `width` of
//     simulated time wide; an event lands in bucket (day & mask) where
//     day = time / width.  Within a bucket events are a doubly-linked list
//     of slab slots sorted by (time, priority, seq).  Because time never
//     regresses and events only enter the day wheel when they lie within
//     the next `buckets` days of now(), every resident day is distinct —
//     the first occupied bucket at or after today holds the next event.
//   * An "overflow wheel" (buckets keyed by year = buckets consecutive
//     days) and a "far list" park events beyond the day-wheel horizon in
//     O(1), unsorted.  Each overflow bucket is drained wholesale into the
//     day wheel when the day window first reaches its year
//     (cascade_overflow) — every parked event migrates exactly once, so
//     cascading is amortized O(1) per event.  The far list promotes behind
//     a cached lower bound on its earliest day, so the common path never
//     scans it.
//   * The wheel resizes from live-event density: bucket count tracks the
//     live count (grow at 2x, shrink at 1/8) and the bucket width is
//     re-derived from the live events' time span, targeting about one event
//     per bucket.  Resizing relinks slots; handles stay valid.
//
// The execution order contract is bit-for-bit identical to the retained
// reference implementation (tests/support/heap_scheduler.hpp), asserted by
// the randomized differential test tests/dsim/test_scheduler_diff.cpp.
//
// Actions are SmallFn small-buffer callables stored in a slab: a pooled
// vector of slots addressed by index, with a free list and per-slot
// sequence numbers to catch stale handles.  A cancelled handle whose slot
// was since recycled by a new event fails the seq check and cancel()
// returns false — it can never cancel the new occupant.  In steady state
// (slab and bucket arrays warm, captures within SmallFn::kInlineBytes)
// schedule/step perform zero heap allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "src/core/telemetry.hpp"
#include "src/dsim/small_fn.hpp"
#include "src/dsim/time.hpp"

namespace castanet {

/// Identifies a scheduled event so it can be cancelled.
struct EventHandle {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
  bool valid() const { return seq != 0; }
};

class Scheduler {
 public:
  using Action = SmallFn;

  Scheduler();

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when` (>= now).  Events at equal
  /// time run in (priority, insertion) order; lower priority value first.
  EventHandle schedule_at(SimTime when, Action action, int priority = 0);
  /// Schedules `action` `delay` after now.
  EventHandle schedule_in(SimTime delay, Action action, int priority = 0);

  /// Cancels a pending event in O(1) by unlinking its slab slot; returns
  /// false if it already ran or was cancelled.  A stale handle whose slot
  /// has been recycled by a later event fails the sequence check and leaves
  /// the new occupant untouched.
  bool cancel(EventHandle h);

  /// True if no events are pending.
  bool empty() const { return live_count_ == 0; }
  /// Time stamp of the earliest pending event; SimTime::max() when empty.
  SimTime next_event_time() const;

  /// Runs the single earliest event; returns false when none pending.
  bool step();
  /// Runs all events with time <= limit (inclusive); time ends at
  /// min(limit, last event time).  Returns number of events executed.
  /// Shares its semantics with rtl::Simulator::run_until; a `limit` that
  /// precedes now() is a no-op — simulated time never regresses.
  std::uint64_t run_until(SimTime limit);
  /// Runs to exhaustion (or until `max_events` executed; 0 = unlimited).
  std::uint64_t run(std::uint64_t max_events = 0);

  /// Advances now to `t` without executing anything (used by co-simulation
  /// time-window grants).  `t` must be >= now and <= next_event_time().
  void advance_to(SimTime t);

  /// Total events executed since construction (E7 experiment counter).
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return scheduled_; }

  // --- calendar-queue introspection (tests, telemetry) ---------------------
  struct WheelStats {
    std::uint64_t resizes = 0;            ///< wheel rebuilds (grow + shrink)
    std::uint64_t overflow_hits = 0;      ///< events parked on the overflow wheel
    std::uint64_t far_hits = 0;           ///< events parked on the far list
    std::uint64_t cascaded_events = 0;    ///< migrations into the day wheel
    std::uint64_t cancelled_in_place = 0; ///< O(1) unlink cancellations
    std::uint64_t bucket_high_water = 0;  ///< max day-bucket occupancy seen
  };
  const WheelStats& wheel_stats() const { return stats_; }
  std::size_t bucket_count() const { return main_heads_.size(); }
  std::int64_t bucket_width_ps() const {
    return std::int64_t{1} << width_shift_;
  }

  /// Pushes the dsim.wheel.* gauges/counters into the telemetry hub; no-op
  /// while telemetry is disabled.  Called at quiescent points (netsim
  /// Simulation::finish, session publish_metrics).
  void publish_telemetry() const;

  /// Timeline row for "net.slice" spans in the Chrome trace; the session
  /// assigns the "net" row at the start of a traced run.
  void set_telemetry_track(telemetry::TrackId track) {
    telemetry_track_ = track;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kMinBuckets = 16;
  /// Initial bucket width: 2^21 ps ~ 2.1 us, about one ATM cell slot at
  /// 155 Mb/s.  The first density resize re-derives it from live events.
  static constexpr int kInitialWidthShift = 21;

  enum Home : std::uint8_t { kHomeNone = 0, kHomeMain, kHomeOvf, kHomeFar };

  /// Slab slot: seq == 0 marks a free (or cancelled) slot; otherwise it is
  /// the sequence number of the event currently occupying it.  prev/next
  /// link the slot into its bucket list (day wheel, overflow wheel, or far
  /// list, per `home`).
  struct Slot {
    Action action;
    std::uint64_t seq = 0;
    SimTime when = SimTime::zero();
    std::int32_t priority = 0;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    std::uint32_t bucket = kNil;
    std::uint8_t home = kHomeNone;
  };

  std::int64_t day_of(SimTime t) const { return t.ps() >> width_shift_; }
  std::int64_t nbuckets() const {
    return static_cast<std::int64_t>(main_heads_.size());
  }
  /// Strict (when, priority, seq) order — the execution-order contract.
  bool orders_before(std::uint32_t a, std::uint32_t b) const {
    const Slot& x = slab_[a];
    const Slot& y = slab_[b];
    if (x.when != y.when) return x.when < y.when;
    if (x.priority != y.priority) return x.priority < y.priority;
    return x.seq < y.seq;
  }

  void release_slot(std::uint32_t slot);
  /// Removes `s` from whichever list it is linked on (O(1)).
  void unlink(std::uint32_t s);
  /// Sorted insert into the day wheel.
  void insert_main(std::uint32_t s);
  /// Unsorted O(1) insert into the overflow wheel / far list.
  void insert_overflow(std::uint32_t s, std::int64_t day);
  /// Routes a live slot into the right structure relative to now().
  void place(std::uint32_t s);
  /// Drains every overflow bucket whose year the day window has reached
  /// into the day wheel (each bucket exactly once per lap), and promotes
  /// far-list events whose year entered the overflow horizon.
  void cascade_overflow();
  /// Exact minimum over overflow wheel + far list; kNil when both empty.
  std::uint32_t overflow_min_slot() const;
  /// Slot of the earliest pending event (cached when valid); kNil if none.
  std::uint32_t find_next();
  /// Rebuilds the wheel with `buckets` buckets and a width re-derived from
  /// the live events' span.  Handles stay valid (only links change).
  void rebuild(std::size_t buckets);
  void maybe_shrink();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t live_count_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;

  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
  /// Reused by rebuild() to collect live slots, so steady-state width/shrink
  /// rebuilds stay allocation-free once its capacity is warm.
  std::vector<std::uint32_t> rebuild_scratch_;

  // Day wheel: bucket = day & mask.  Direct inserts lie within
  // [day(now), day(now) + nbuckets); a cascaded year may extend to the end
  // of the year the window reaches into, so a bucket can briefly hold two
  // distinct days — the sorted lists keep each bucket's earliest day at the
  // head, which is what find_next's lap scan checks.
  std::vector<std::uint32_t> main_heads_;
  std::vector<std::uint32_t> main_counts_;
  std::uint64_t main_count_ = 0;
  // Overflow wheel (bucket = year & mask, year = day >> bucket_shift) and
  // far list for events beyond the overflow horizon.
  std::vector<std::uint32_t> ovf_heads_;
  std::uint64_t ovf_count_ = 0;
  std::uint32_t far_head_ = kNil;
  std::uint64_t far_count_ = 0;
  /// Last overflow year drained into the day wheel by cascade_overflow.
  std::int64_t year_cascaded_ = 0;
  /// Overflow/far parks since the last rebuild.  When most scheduling
  /// traffic parks beyond the window, the bucket width is stale (the live
  /// span outgrew the window since the width was last derived); schedule_at
  /// re-derives it once this exceeds a fraction of the live count, which
  /// keeps the trigger amortized O(1).
  std::uint64_t ovf_since_rebuild_ = 0;
  /// Lower bound on the earliest day on the far list (INT64_MAX when
  /// empty).  Tightened to exact whenever the far list is scanned.
  std::int64_t far_min_day_ = INT64_MAX;

  int width_shift_ = kInitialWidthShift;
  int bucket_shift_ = 4;  // log2(nbuckets)
  std::uint32_t mask_ = kMinBuckets - 1;

  std::uint32_t cached_next_ = kNil;
  bool cached_valid_ = false;

  WheelStats stats_;
  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

}  // namespace castanet
