// Board self-test: walking-ones pin verification.
//
// Before trusting a hardware test board with a DUT, bring-up verifies every
// I/O pin and lane memory: a loopback plug connects input lanes to output
// lanes, a walking-ones pattern (plus all-zero / all-one frames) is replayed
// through the vector memories, and the captures must match bit-exactly.
// Any stuck-at or shorted pin shows up as a specific failing (lane, bit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/board/board.hpp"

namespace castanet::board {

/// The loopback plug: a BehavioralDut that echoes each input port to the
/// output port of the same index, one cycle later (registered loopback).
/// `stuck_mask` forces output bits low (fault injection for the self-test's
/// own verification).
class LoopbackDut : public BehavioralDut {
 public:
  explicit LoopbackDut(std::size_t ports, std::uint64_t stuck_mask = 0);

  void reset() override;
  void cycle(const std::vector<std::uint64_t>& inputs,
             const std::vector<std::uint8_t>& input_enable,
             std::vector<std::uint64_t>& outputs,
             std::vector<std::uint8_t>& output_enable) override;
  std::size_t num_inputs() const override { return ports_; }
  std::size_t num_outputs() const override { return ports_; }

 private:
  std::size_t ports_;
  std::uint64_t stuck_mask_;
  std::vector<std::uint64_t> reg_;
};

struct SelfTestReport {
  bool passed = false;
  std::uint64_t patterns_checked = 0;
  /// One line per failing (port, cycle, expected, got).
  std::vector<std::string> failures;
};

/// Runs the walking-ones self-test over `lanes` paired byte lanes
/// (input lane i <-> output lane 8+i) through `dut` (normally a
/// LoopbackDut).  Exercises every bit of every configured lane plus the
/// all-0 / all-1 frames.
SelfTestReport run_walking_ones(HardwareTestBoard& board, BehavioralDut& dut,
                                std::size_t lanes = 8);

}  // namespace castanet::board
