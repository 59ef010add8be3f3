// Reference event scheduler: binary heap + lazy cancellation.
//
// This is the pre-calendar-queue implementation of dsim::Scheduler, retained
// verbatim (modulo telemetry) as the ordering oracle.  The execution-order
// contract — events run in strict (time, priority, insertion-sequence)
// order — is defined by this class; the calendar queue in scheduler.hpp must
// match it bit-for-bit, which tests/dsim/test_scheduler_diff.cpp asserts
// across randomized schedule/cancel/advance/re-schedule mixes.  It is also
// the baseline bench_e9_sched_scale measures against: heap push/pop cost
// grows as log N with the pending-event count where the calendar queue stays
// flat.
//
// Test and bench support only: it is compiled into test_core and
// bench_e9_sched_scale, never into the library, where netsim, traffic,
// signaling and the sync layer all run on dsim::Scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/dsim/time.hpp"

namespace castanet {

struct EventHandle;  // shared with Scheduler (scheduler.hpp)

class HeapScheduler {
 public:
  using Action = std::function<void()>;

  SimTime now() const { return now_; }

  EventHandle schedule_at(SimTime when, Action action, int priority = 0);
  EventHandle schedule_in(SimTime delay, Action action, int priority = 0);

  /// Lazy cancellation: the slab slot is released immediately, but the dead
  /// heap entry stays queued until pop_dead() sifts it out.
  bool cancel(EventHandle h);

  bool empty() const { return live_count_ == 0; }
  SimTime next_event_time() const;

  bool step();
  std::uint64_t run_until(SimTime limit);
  std::uint64_t run(std::uint64_t max_events = 0);

  void advance_to(SimTime t);

  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return scheduled_; }

 private:
  struct Entry {
    SimTime when;
    int priority;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      if (priority != o.priority) return priority > o.priority;
      return seq > o.seq;
    }
  };
  struct Slot {
    Action action;
    std::uint64_t seq = 0;
  };

  void pop_dead();
  void release_slot(std::uint32_t slot);

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t live_count_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t scheduled_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace castanet
