// §3.1 — conservative synchronization between the network simulator and the
// HDL simulator.
//
// The HDL side maintains one time-stamped message queue I_j per input
// message type, with a user-specified per-type processing delay δ_j (the
// maximum number of clock cycles the DUT needs to react to a type-j
// message).  Incoming messages double as time updates from the originator.
// The protocol grants the HDL simulator timing windows such that
//
//   * the HDL simulator's simulated time always lags the network
//     simulator's simulated time,
//   * no message is ever delivered into the HDL simulator's past (zero
//     causality errors, Fig. 3), and
//   * progress is always possible (no deadlock): the network side never
//     waits on the HDL clock, and every received time stamp widens the
//     window.
//
// Three window policies are provided for the E3 ablation:
//   kTimeWindow  — the paper's protocol: with every queue populated, grant
//                  up to min_j(head ts) + min_j(δ_j); with some queues
//                  still empty, grant strictly below the originator's
//                  newest announced time.
//   kGlobalOrder — exploit the single-originator property: grant strictly
//                  below the newest announced network time (messages from
//                  one OPNET arrive in nondecreasing time-stamp order).
//   kLockstep    — naive baseline: grant exactly one clock period per
//                  explicit time update, regardless of message content.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/castanet/message.hpp"
#include "src/core/histogram.hpp"
#include "src/core/stats.hpp"

namespace castanet::cosim {

enum class SyncPolicy { kTimeWindow, kGlobalOrder, kLockstep };

class ConservativeSync {
 public:
  struct Params {
    SyncPolicy policy = SyncPolicy::kTimeWindow;
    /// HDL clock period; δ_j are expressed in clock cycles of this clock.
    SimTime clock_period = SimTime::from_ns(50);
  };

  explicit ConservativeSync(Params p) : p_(p) {}

  /// Declares input message type `type` with processing delay δ =
  /// `delta_cycles` clock cycles.  All types must be declared before the
  /// first push.
  void declare_input(MessageType type, std::uint64_t delta_cycles);

  /// Feeds a message (or pure time update) from the network side.  Throws
  /// ProtocolError if its time stamp precedes an already-granted window
  /// (a causality error — the network side violated monotonicity).
  void push(const TimedMessage& m);

  /// Largest simulated time (exclusive) the HDL simulator may advance to
  /// right now.  Monotone nondecreasing across calls.
  SimTime window() const;

  /// Messages that must be applied to the DUT before the HDL simulator
  /// crosses their time stamps; pops all with ts < `up_to`.
  std::vector<TimedMessage> take_deliverable(SimTime up_to);
  /// Same, appending the messages (sorted by time stamp) to `out`, so a
  /// caller that reuses `out` keeps its capacity.
  void take_deliverable(SimTime up_to, std::vector<TimedMessage>& out);

  /// Records the HDL simulator's current time for lag statistics and the
  /// lag invariant (hdl_time <= network_time must always hold).
  void note_hdl_time(SimTime t);

  SimTime network_time() const { return network_time_; }
  const Params& params() const { return p_; }

  /// Declared input types with their δ_j, in type order (static view for
  /// the lint sync analyzers).
  struct InputInfo {
    MessageType type = 0;
    std::uint64_t delta_cycles = 0;
  };
  std::vector<InputInfo> declared_inputs() const;
  bool input_declared(MessageType type) const;

  std::uint64_t messages_received() const { return received_; }
  std::uint64_t time_updates_received() const { return time_updates_; }
  std::uint64_t windows_granted() const { return windows_granted_; }
  /// Count of push() calls that would have landed in the granted past; the
  /// protocol guarantees this stays 0 (the E3 bench asserts it).
  std::uint64_t causality_errors() const { return causality_errors_; }
  double max_lag_seconds() const { return max_lag_sec_; }

  // --- telemetry ----------------------------------------------------------
  /// Counts a catch-up attempt that could not advance local time: the
  /// lookahead (granted window minus local time) was exhausted and the HDL
  /// side had to wait for the network to announce more time.  Recorded by
  /// DutBackend::catch_up.
  void note_lookahead_stall() { ++lookahead_stalls_; }
  std::uint64_t lookahead_stalls() const { return lookahead_stalls_; }
  /// Distribution of (network_time - hdl_time) over every note_hdl_time
  /// call — how far this simulator trails the originator (§3.1's lag).
  const SampleStat& lag_stat() const { return lag_; }
  /// The same grant-to-response lag as a log2 histogram (p50/p99 of how far
  /// the HDL side trails).  Recorded only while telemetry is enabled.
  const Log2Histogram& lag_histogram() const { return lag_hist_; }
  /// Per-input-queue occupancy as a time-weighted statistic over network
  /// time (OPNET-style "time average"), one entry per declared type in type
  /// order.  The depth changes at push() and take_deliverable().
  struct QueueDepth {
    MessageType type = 0;
    const TimeAverageStat* depth = nullptr;
  };
  std::vector<QueueDepth> queue_depths() const;

 private:
  struct InputQueue {
    MessageType type = 0;
    std::uint64_t delta_cycles = 0;
    std::deque<TimedMessage> queue;
    TimeAverageStat depth;  ///< occupancy over network time (telemetry)
  };

  SimTime min_delta_time() const;
  InputQueue* find(MessageType type);

  Params p_;
  /// Flat, sorted by type.  Input types are few and all declared up front;
  /// push() and window() run once per grant, so the contiguous scan (and
  /// binary-searched push) beats tree traversal.
  std::vector<InputQueue> inputs_;
  std::uint64_t min_delta_cycles_ = UINT64_MAX;  ///< cached min_j delta_j
  SimTime network_time_;
  SimTime granted_;  ///< high-water mark of window()
  std::uint64_t received_ = 0;
  std::uint64_t time_updates_ = 0;
  std::uint64_t windows_granted_ = 0;
  std::uint64_t causality_errors_ = 0;
  std::uint64_t lookahead_stalls_ = 0;
  double max_lag_sec_ = 0.0;
  SampleStat lag_;
  Log2Histogram lag_hist_;
};

}  // namespace castanet::cosim
