// The backend abstraction behind the paper's testbench-reuse promise (§3.3,
// Fig. 5): the same CASTANET environment — traffic models, gateway, sync
// protocol, comparator — drives the algorithm reference model, the VHDL DUT
// and the fabricated chip on the test board.  A DutBackend is one such
// attachment point, and it owns everything the attachments share: one
// ConservativeSync instance (inputs declared with their δ_j), the table of
// apply functions for apply-based backends, the buffer of time-stamped
// responses the session drains, and an end-of-run finish hook.  Subclasses
// add only how their device advances through a granted window.
//
// Three implementations here (RemoteBackend, remote.hpp, is the fourth):
//   RtlBackend       — the Fig. 2 "C-language co-simulation entity" inside
//                      an rtl::Simulator (the "VSS" path); δ_j are real
//                      processing delays and each deliverable message is
//                      applied as an HDL callback at its own time stamp.
//   ReferenceBackend — the hw/reference behavioral models as an
//                      instantaneous-δ backend: deliverable messages are
//                      applied as plain function calls at their own time
//                      stamps, responses carry the stimulus time stamp.
//   BoardBackend     — the RAVEN board model (§3.3): deliverable cells are
//                      batched into hardware test cycles and replayed
//                      through a HardwareTestBoard in (modeled) real time.
//
// A VerificationSession drives every attached backend from the calling
// thread, one after the other, with the identical protocol input.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/castanet/board_driver.hpp"
#include "src/castanet/message.hpp"
#include "src/castanet/sync.hpp"
#include "src/core/telemetry.hpp"
#include "src/rtl/simulator.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::cosim {

class DutBackend {
 public:
  DutBackend(std::string name, ConservativeSync::Params sync_params);
  virtual ~DutBackend() = default;
  DutBackend(const DutBackend&) = delete;
  DutBackend& operator=(const DutBackend&) = delete;

  const std::string& name() const { return name_; }

  /// This backend's conservative synchronization instance.  The session
  /// pushes every gateway message into every attached backend's sync, so
  /// causality is checked per backend.
  ConservativeSync& sync() { return sync_; }
  const ConservativeSync& sync() const { return sync_; }

  /// Declares input `type` with δ = `delta_cycles` and no apply function
  /// (the board's cell stream, a proxy's mirror of its host's inputs).
  void declare_input(MessageType type, std::uint64_t delta_cycles);

  /// Declares input `type` with δ = `delta_cycles`; `apply` runs once per
  /// deliverable message, at its time stamp, in time-stamp order.  Calling
  /// it again for a declared type replaces the function and the δ.
  using ApplyFn = std::function<void(const TimedMessage&)>;
  void register_input(MessageType type, std::uint64_t delta_cycles,
                      ApplyFn apply);

  /// Buffers a response on `stream` stamped `ts` until the session drains
  /// it.  Apply functions and finish hooks call these.
  void respond(MessageType stream, SimTime ts, const atm::Cell& c);
  void respond_words(MessageType stream, SimTime ts,
                     std::vector<std::uint64_t> words);

  /// Moves every response buffered since the last call into `out`
  /// (appended).
  void drain_responses(std::vector<TimedMessage>& out);

  /// Feeds one message (or pure time update) from the network side.
  /// Virtual so proxy backends (RemoteBackend) can forward the identical
  /// stream across a process boundary while mirroring it locally.
  virtual void push(const TimedMessage& m) { sync_.push(m); }

  /// Current safe window (exclusive) for this backend.
  SimTime window() const { return sync_.window(); }

  /// This backend's current simulated time.
  virtual SimTime now() const = 0;

  /// Grants windows until the protocol stops making progress below `limit`
  /// (the same convergence loop for every backend: message-driven policies
  /// converge in one iteration, lockstep needs one per clock period).
  void catch_up(SimTime limit);

  /// End-of-run hook, invoked after the final catch-up (e.g. read out final
  /// registers and respond_words() them).  Callers capture the backend
  /// they need.
  using FinishHook = std::function<void(SimTime)>;
  void set_finish_hook(FinishHook hook) { finish_hook_ = std::move(hook); }

  /// Invoked once per VerificationSession::run_until after the final
  /// catch-up, before the final response drain: runs the finish hook.
  virtual void finish(SimTime at);

  /// Assigns this backend's timeline row in the Chrome trace; the session
  /// assigns one per backend ("backend:<name>") at the start of a traced
  /// run.  RtlBackend forwards the row to its HDL kernel so kernel slices
  /// nest under this backend's grant spans.
  virtual void set_telemetry_track(telemetry::TrackId track) {
    telemetry_track_ = track;
  }
  telemetry::TrackId telemetry_track() const { return telemetry_track_; }

 protected:
  /// Applies deliverable messages with ts <= `target` and advances this
  /// backend's simulated time to `target` (inclusive).
  virtual void advance_to(SimTime target) = 0;

  /// The apply function registered for `type`; throws if there is none.
  const ApplyFn& apply_fn(MessageType type) const;

  /// Buffers an already-built response (a proxy's decoded host response).
  void respond(TimedMessage m) { responses_.push_back(std::move(m)); }

 private:
  std::string name_;
  ConservativeSync sync_;
  std::map<MessageType, ApplyFn> apply_;
  std::vector<TimedMessage> responses_;
  FinishHook finish_hook_;
  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

/// The Fig. 2 HDL path: the co-simulation entity inside an rtl::Simulator.
/// Each deliverable message's apply function (usually one of the
/// mapping.hpp conversion helpers feeding a driver) runs as an HDL callback
/// at the message's time stamp; DUT-side monitors send responses stamped
/// with the HDL clock.
class RtlBackend : public DutBackend {
 public:
  RtlBackend(std::string name, rtl::Simulator& hdl,
             ConservativeSync::Params sync_params);

  /// Exists only for the benchmark rig, which still reaches the backend
  /// through it; it goes with the next change to the benchmark, as
  /// VerificationSession::Params::clock_period does.
  RtlBackend& entity() { return *this; }

  /// The HDL kernel this backend advances (netlist introspection for the
  /// lint analyzers).
  rtl::Simulator& hdl() { return hdl_; }
  const rtl::Simulator& hdl() const { return hdl_; }

  /// Called by DUT-side monitors: responds stamped with the current HDL
  /// time.
  void send_cell_response(MessageType type, const atm::Cell& c);
  void send_word_response(MessageType type, std::vector<std::uint64_t> words);

  SimTime now() const override { return hdl_.now(); }
  void set_telemetry_track(telemetry::TrackId track) override;

 protected:
  /// Schedules every deliverable message's apply at its time stamp and
  /// runs the HDL simulator to `target` (inclusive).
  void advance_to(SimTime target) override;

 private:
  rtl::Simulator& hdl_;
  /// Messages advance_to has scheduled for delivery, each callback naming
  /// its entry by index.  Cleared once the HDL run that delivers them
  /// returns; the capacity is kept, so delivery allocates nothing.
  std::vector<TimedMessage> parked_;
};

/// An algorithm reference model as a backend.  δ is instantaneous: a
/// deliverable message is applied as a plain function call, and responses
/// emitted during apply usually carry the stimulus time stamp — the
/// reference reacts "within" the message.  The sync instance still enforces
/// the full protocol (declared inputs, causality check, lag accounting), so
/// the reference path is verified under the same rules as the HDL path.
class ReferenceBackend : public DutBackend {
 public:
  ReferenceBackend(std::string name, ConservativeSync::Params sync_params);

  SimTime now() const override { return now_; }
  std::uint64_t messages_applied() const { return applied_; }

 protected:
  void advance_to(SimTime target) override;

 private:
  SimTime now_;
  std::uint64_t applied_ = 0;
};

/// The §3.3 board path as a backend: deliverable cell messages are buffered
/// and replayed through a HardwareTestBoard in batches of hardware test
/// cycles (SW activity -> HW activity -> readback).  Each batch is rebased
/// to its first cell's time stamp so vector memories stay small over long
/// runs; inter-batch idle time is not replayed (the board verifies function
/// and at-speed behavior, not long-term idle).  Responses (board register
/// readbacks via the finish hook, reassembled output cells when the DUT
/// produces any) carry board-derived time stamps.
class BoardBackend : public DutBackend {
 public:
  struct Params {
    ConservativeSync::Params sync;
    BoardCellStream::Params stream;
    /// Deliverable cells buffered before a hardware test-cycle batch runs;
    /// remaining cells flush in finish().
    std::size_t cells_per_batch = 64;
    /// WALL-CLOCK time one hardware test cycle occupies the (shared,
    /// SCSI-attached) test board — the §3.3 board runs in real time, so a
    /// batch of k test cycles blocks the calling process for k times this.
    /// Zero (default) models an infinitely fast board and keeps every
    /// existing rig untouched.  Simulated time is NOT affected; this is the
    /// hardware-in-the-loop latency the session farm overlaps across worker
    /// processes.
    std::chrono::microseconds real_time_per_test_cycle{0};
  };

  /// `board` must be configured; `dut` is the device on it.  Both outlive
  /// the backend.
  BoardBackend(std::string name, board::HardwareTestBoard& board,
               board::BehavioralDut& dut, Params p);

  /// Declares the cell stream replayed through the board.
  void register_cell_input(MessageType type, std::uint64_t delta_cycles);

  board::HardwareTestBoard& board() { return board_; }
  const board::HardwareTestBoard& board() const { return board_; }
  board::BehavioralDut& dut() { return dut_; }
  const Params& params() const { return p_; }

  /// Accumulated run statistics over every batch so far.
  const BoardCellStream::Result& totals() const { return totals_; }

  SimTime now() const override { return now_; }
  /// Runs the last (partial) batch, then the finish hook: µP-bus readbacks
  /// through the board see every cell.
  void finish(SimTime at) override;

 protected:
  void advance_to(SimTime target) override;

 private:
  void run_pending();

  board::HardwareTestBoard& board_;
  board::BehavioralDut& dut_;
  BoardCellStream stream_;
  Params p_;
  MessageType cell_stream_ = 0;
  std::vector<traffic::CellArrival> pending_;
  BoardCellStream::Result totals_;
  SimTime now_;
};

}  // namespace castanet::cosim
