#include "tests/support/heap_scheduler.hpp"

#include "src/core/error.hpp"
#include "src/dsim/scheduler.hpp"

namespace castanet {

void HeapScheduler::release_slot(std::uint32_t slot) {
  slab_[slot].action = nullptr;
  slab_[slot].seq = 0;
  free_slots_.push_back(slot);
}

EventHandle HeapScheduler::schedule_at(SimTime when, Action action,
                                       int priority) {
  if (when < now_) {
    throw ProtocolError("HeapScheduler: event scheduled in the past (" +
                        when.to_string() + " < " + now_.to_string() + ")");
  }
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[slot].action = std::move(action);
  slab_[slot].seq = seq;
  queue_.push(Entry{when, priority, seq, slot});
  ++live_count_;
  ++scheduled_;
  return EventHandle{seq, slot};
}

EventHandle HeapScheduler::schedule_in(SimTime delay, Action action,
                                       int priority) {
  return schedule_at(now_ + delay, std::move(action), priority);
}

bool HeapScheduler::cancel(EventHandle h) {
  if (!h.valid() || h.slot >= slab_.size() || slab_[h.slot].seq != h.seq) {
    return false;  // already ran, already cancelled, or never scheduled
  }
  release_slot(h.slot);
  --live_count_;
  return true;
}

void HeapScheduler::pop_dead() {
  // A cancelled event's slot no longer carries its seq; drop its queue entry
  // when it surfaces.
  while (!queue_.empty() && slab_[queue_.top().slot].seq != queue_.top().seq) {
    queue_.pop();
  }
}

SimTime HeapScheduler::next_event_time() const {
  auto* self = const_cast<HeapScheduler*>(this);
  self->pop_dead();
  return queue_.empty() ? SimTime::max() : queue_.top().when;
}

bool HeapScheduler::step() {
  pop_dead();
  if (queue_.empty()) return false;
  const Entry e = queue_.top();
  queue_.pop();
  Action action = std::move(slab_[e.slot].action);
  release_slot(e.slot);
  --live_count_;
  now_ = e.when;
  ++executed_;
  action();
  return true;
}

std::uint64_t HeapScheduler::run_until(SimTime limit) {
  if (limit < now_) return 0;
  std::uint64_t n = 0;
  while (true) {
    pop_dead();
    if (queue_.empty() || queue_.top().when > limit) break;
    step();
    ++n;
  }
  if (now_ < limit) now_ = limit;
  return n;
}

std::uint64_t HeapScheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while ((max_events == 0 || n < max_events) && step()) ++n;
  return n;
}

void HeapScheduler::advance_to(SimTime t) {
  require(t >= now_, "HeapScheduler::advance_to: cannot move time backwards");
  require(t <= next_event_time(),
          "HeapScheduler::advance_to: would skip pending events");
  now_ = t;
}

}  // namespace castanet
