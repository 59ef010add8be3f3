// Device-under-test models plugged into the hardware test board.
//
// The paper connects a fabricated prototype chip; we have no silicon, so a
// BehavioralDut is the substitution (documented in DESIGN.md): a model
// stepped one board clock at a time through plain port values.  The
// RtlDutAdapter wraps a module elaborated on a private rtl::Simulator, and —
// crucially — models the one property silicon has that functional simulation
// lacks (§3.3): above its rated clock frequency it exhibits *timing
// violations*, realized as periodic setup failures on its input registers.
// Real-time verification on the board therefore finds speed-dependent bugs
// a VHDL simulation run cannot.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/rtl/module.hpp"

namespace castanet::board {

class BehavioralDut {
 public:
  virtual ~BehavioralDut() = default;

  virtual void reset() = 0;
  /// One DUT clock: `inputs[i]` is input port i's value this cycle;
  /// `input_enable[i]` zero means the tester releases that port (high-Z) —
  /// the DUT-drive phase of a bidirectional bus.  Implementations fill
  /// `outputs[o]` and set `output_enable[o]` to zero where the DUT releases
  /// the port.  Enables are bytes (0 or 1), so the board and the DUT index
  /// plain arrays.
  virtual void cycle(const std::vector<std::uint64_t>& inputs,
                     const std::vector<std::uint8_t>& input_enable,
                     std::vector<std::uint64_t>& outputs,
                     std::vector<std::uint8_t>& output_enable) = 0;
  virtual std::size_t num_inputs() const = 0;
  virtual std::size_t num_outputs() const = 0;
};

/// Runs an RTL design as the board DUT.  The caller elaborates modules on
/// the adapter's simulator and registers the pin-level ports.
class RtlDutAdapter : public BehavioralDut {
 public:
  RtlDutAdapter();
  ~RtlDutAdapter() override;

  /// The private simulator to elaborate the design on (before first cycle).
  rtl::Simulator& sim() { return *sim_; }
  /// Takes ownership of an elaborated module (keeps it alive with the
  /// adapter; the simulator itself only holds signals and processes).
  template <typename T>
  T& own(std::unique_ptr<T> module) {
    T& ref = *module;
    owned_.push_back(std::move(module));
    return ref;
  }
  /// Clock/reset signals; create and pass in.  The adapter registers the
  /// clock with the kernel (Simulator::add_clock) on its first DUT cycle.
  void set_clock(rtl::Signal clk) { clk_ = clk; }
  void set_reset(rtl::Signal rst) { rst_ = rst; }
  /// Registers input port i (order of calls defines the index).  A port
  /// carries one std::uint64_t per cycle, so it may be at most 64 bits
  /// wide; a wider bus is rejected here with LogicError.
  void add_input(rtl::Bus bus);
  /// Registers output port o, at most 64 bits wide like an input.  A port
  /// reading all-Z reports enable=false.
  void add_output(rtl::Bus bus);

  /// Rated maximum clock of the (virtual) silicon.  When the board steps the
  /// DUT faster than this, every `fault_period`-th cycle suffers a setup
  /// violation: the input registers keep their previous values.
  void set_max_safe_hz(std::uint64_t hz, std::uint64_t fault_period = 97);
  /// Clock the adapter is being stepped at (the board sets this).
  void set_actual_hz(std::uint64_t hz) { actual_hz_ = hz; }

  void reset() override;
  void cycle(const std::vector<std::uint64_t>& inputs,
             const std::vector<std::uint8_t>& input_enable,
             std::vector<std::uint64_t>& outputs,
             std::vector<std::uint8_t>& output_enable) override;
  std::size_t num_inputs() const override { return inputs_.size(); }
  std::size_t num_outputs() const override { return outputs_.size(); }

  std::uint64_t timing_violations() const { return timing_violations_; }
  std::uint64_t cycles() const { return cycle_count_; }

 private:
  std::unique_ptr<rtl::Simulator> sim_;
  std::vector<std::unique_ptr<rtl::Module>> owned_;
  rtl::Signal clk_;
  rtl::Signal rst_;
  bool clock_running_ = false;
  std::vector<rtl::Bus> inputs_;
  std::vector<rtl::Bus> outputs_;
  SimTime period_ = SimTime::from_ns(50);
  std::uint64_t max_safe_hz_ = 0;  ///< 0 = never violates
  std::uint64_t fault_period_ = 97;
  std::uint64_t actual_hz_ = kMaxBoardClockHzDefault;
  std::uint64_t cycle_count_ = 0;
  std::uint64_t timing_violations_ = 0;

  static constexpr std::uint64_t kMaxBoardClockHzDefault = 20'000'000;

  /// Advances one whole DUT clock period in one kernel call: the rising
  /// edge at now(), shared with the inputs written just before, and the
  /// falling edge half a period later; stops before the next rising edge.
  void step_clock();
};

}  // namespace castanet::board
