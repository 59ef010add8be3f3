#include "src/castanet/sync.hpp"

#include <algorithm>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim {

void ConservativeSync::declare_input(MessageType type,
                                     std::uint64_t delta_cycles) {
  require(received_ == 0, "ConservativeSync: declare inputs before pushing");
  require(delta_cycles > 0, "ConservativeSync: delta must be >= 1 cycle");
  auto it = std::lower_bound(
      inputs_.begin(), inputs_.end(), type,
      [](const InputQueue& q, MessageType t) { return q.type < t; });
  if (it != inputs_.end() && it->type == type) {
    it->delta_cycles = delta_cycles;  // re-declaration updates delta
  } else {
    InputQueue q;
    q.type = type;
    q.delta_cycles = delta_cycles;
    inputs_.insert(it, std::move(q));
  }
  // min_j delta_j is fixed once inputs are declared; cache it so window()
  // (called once per grant iteration) stays O(#queues) instead of
  // recomputing the minimum.
  min_delta_cycles_ = std::min(min_delta_cycles_, delta_cycles);
}

std::vector<ConservativeSync::InputInfo> ConservativeSync::declared_inputs()
    const {
  std::vector<InputInfo> out;
  out.reserve(inputs_.size());
  for (const InputQueue& q : inputs_) out.push_back({q.type, q.delta_cycles});
  return out;
}

bool ConservativeSync::input_declared(MessageType type) const {
  return const_cast<ConservativeSync*>(this)->find(type) != nullptr;
}

ConservativeSync::InputQueue* ConservativeSync::find(MessageType type) {
  auto it = std::lower_bound(
      inputs_.begin(), inputs_.end(), type,
      [](const InputQueue& q, MessageType t) { return q.type < t; });
  if (it == inputs_.end() || it->type != type) return nullptr;
  return &*it;
}

SimTime ConservativeSync::min_delta_time() const {
  const std::uint64_t min_delta =
      min_delta_cycles_ == UINT64_MAX ? 1 : min_delta_cycles_;
  return p_.clock_period * static_cast<std::int64_t>(min_delta);
}

void ConservativeSync::push(const TimedMessage& m) {
  network_time_ = std::max(network_time_, m.timestamp);
  if (m.time_update_only) {
    // Pure clock announcements carry no event; the originator's clock may
    // legitimately lag a window that the δ rule extended beyond it.
    ++time_updates_;
    return;
  }
  // Time stamps from a sequential DE simulator arrive in nondecreasing
  // order; a data message stamped inside an already-granted window would be
  // a causality error (Fig. 3), which the protocol makes impossible under
  // its spacing assumption (per-queue message spacing >= δ_j).  We still
  // check, because the check is the verification.
  if (m.timestamp < granted_) {
    ++causality_errors_;
    throw ProtocolError(
        "ConservativeSync: message time stamp " + m.timestamp.to_string() +
        " precedes granted window " + granted_.to_string());
  }
  InputQueue* q = find(m.type);
  if (q == nullptr) {
    throw ProtocolError("ConservativeSync: undeclared message type " +
                        std::to_string(m.type));
  }
  q->queue.push_back(m);
  q->depth.set(network_time_.seconds(), static_cast<double>(q->queue.size()));
  ++received_;
}

std::vector<ConservativeSync::QueueDepth> ConservativeSync::queue_depths()
    const {
  std::vector<QueueDepth> out;
  out.reserve(inputs_.size());
  for (const InputQueue& q : inputs_) out.push_back({q.type, &q.depth});
  return out;
}

SimTime ConservativeSync::window() const {
  SimTime w = granted_;
  switch (p_.policy) {
    case SyncPolicy::kGlobalOrder: {
      // Single monotone originator: everything strictly before its
      // announced time is safe.
      w = std::max(w, network_time_);
      break;
    }
    case SyncPolicy::kLockstep: {
      // One clock period at a time, never beyond the originator's clock.
      const SimTime next = granted_ + p_.clock_period;
      w = std::min(next, network_time_);
      w = std::max(w, granted_);
      break;
    }
    case SyncPolicy::kTimeWindow: {
      // The paper's rule.  With every input queue holding a message, local
      // time may advance past the minimum head by min_j δ_j; otherwise the
      // newest announced originator time bounds the window.
      bool all_nonempty = !inputs_.empty();
      SimTime min_head = SimTime::max();
      for (const InputQueue& q : inputs_) {
        if (q.queue.empty()) {
          all_nonempty = false;
          break;
        }
        min_head = std::min(min_head, q.queue.front().timestamp);
      }
      if (all_nonempty) {
        w = std::max(w, min_head + min_delta_time());
        w = std::max(w, network_time_);
      } else {
        w = std::max(w, network_time_);
      }
      break;
    }
  }
  return w;
}

std::vector<TimedMessage> ConservativeSync::take_deliverable(SimTime up_to) {
  std::vector<TimedMessage> out;
  take_deliverable(up_to, out);
  return out;
}

void ConservativeSync::take_deliverable(SimTime up_to,
                                        std::vector<TimedMessage>& out) {
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  for (InputQueue& q : inputs_) {
    const std::size_t before = q.queue.size();
    while (!q.queue.empty() && q.queue.front().timestamp < up_to) {
      out.push_back(std::move(q.queue.front()));
      q.queue.pop_front();
    }
    if (q.queue.size() != before) {
      q.depth.set(network_time_.seconds(),
                  static_cast<double>(q.queue.size()));
    }
  }
  std::sort(out.begin() + first, out.end(),
            [](const TimedMessage& a, const TimedMessage& b) {
              return a.timestamp < b.timestamp;
            });
  if (up_to > granted_) {
    granted_ = up_to;
    ++windows_granted_;
  }
}

void ConservativeSync::note_hdl_time(SimTime t) {
  // The invariant the protocol guarantees: the HDL simulator never runs
  // beyond what was granted, and grants never exceed the originator's
  // announced time by more than the processing window min_j δ_j.
  const SimTime bound = std::max(network_time_ + min_delta_time(), granted_);
  if (t > bound) {
    throw ProtocolError(
        "ConservativeSync: HDL time " + t.to_string() +
        " overtook the granted window " + bound.to_string() +
        " (lag invariant violated)");
  }
  const double lag_sec =
      network_time_ > t ? (network_time_ - t).seconds() : 0.0;
  lag_.record(lag_sec);
  max_lag_sec_ = std::max(max_lag_sec_, lag_sec);
  if (telemetry::enabled()) lag_hist_.record(lag_sec);
}

}  // namespace castanet::cosim
