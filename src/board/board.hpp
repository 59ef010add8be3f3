// The hardware test board (RAVEN, [16] in the paper).
//
// "The hardware test board consists of a control part and multiple memory
// units for intermediate data storage of test vectors.  It provides a bit
// stream interface and a clock interface to which the hardware device under
// test is connected. … The real-time verification process consists of
// repeated hardware activity cycles, interrupted by a software activity
// cycle" (§3.3).
//
// Flow per test cycle:
//   1. software activity: generate stimuli, configure the board, store
//      stimulus vectors into the lane memories (transfer modeled by the
//      ScsiChannel);
//   2. hardware activity: step the DUT `duration` clock cycles at real-time
//      speed, replaying stimulus lanes and capturing response lanes;
//   3. software activity: read the capture memories back.
//
// configure() compiles the configuration data set into a flat replay plan —
// per inport a stimulus slot plus, for the tester side of an I/O port, its
// direction-control slot; per outport a capture slot — so a hardware cycle
// indexes arrays and makes one DUT call, with no port lookups.
#pragma once

#include <cstddef>
#include <vector>

#include "src/board/config.hpp"
#include "src/board/dut.hpp"
#include "src/board/scsi.hpp"

namespace castanet::board {

class HardwareTestBoard {
 public:
  explicit HardwareTestBoard(ScsiChannel::Params scsi = {});

  /// Validates and installs the configuration data set, compiles its replay
  /// plan and clears the memories.  The configuration upload itself costs
  /// one SCSI transfer.
  void configure(const ConfigDataSet& cfg);

  /// Loads per-cycle stimulus values for `inport` (index c = board cycle c).
  void load_stimulus(unsigned inport, std::vector<std::uint64_t> values);
  /// Loads per-cycle values for a control port, overriding its static
  /// write_value (used for per-cycle bus direction control).
  void load_ctrl(unsigned ctrlport, std::vector<std::uint64_t> values);

  /// Runs one hardware activity cycle of `duration` board clocks at
  /// `clock_hz` (<= 20 MHz; the DUT sees clock_hz / gating_factor).
  /// `duration` 0 derives the duration automatically from the longest
  /// loaded stimulus (§3.3's automatic calculation from control-port data).
  /// Throws ConfigError when the DUT has no port for a mapped port number
  /// or the gating factor leaves the DUT no clock (clock_hz below it).
  /// Once warm (same DUT, duration within the capture capacity), a call
  /// allocates nothing.
  struct RunStats {
    std::uint64_t cycles = 0;
    SimTime sw_time;        ///< modeled software-activity time (SCSI + prep)
    SimTime hw_time;        ///< modeled hardware-activity time
    SimTime total() const { return sw_time + hw_time; }
  };
  RunStats run_test_cycle(BehavioralDut& dut, std::uint64_t duration = 0,
                          std::uint64_t clock_hz = kMaxBoardClockHz);

  /// Captured response of `outport`, one value per cycle of the last run;
  /// `enabled` tells whether the DUT actually drove the port that cycle.
  struct Capture {
    std::vector<std::uint64_t> values;
    std::vector<std::uint8_t> enabled;  ///< 0 or 1 per cycle
  };
  /// Throws LogicError for an outport outside the configuration or before
  /// the first test cycle since configure().
  const Capture& response(unsigned outport) const;

  const ScsiChannel& scsi() const { return scsi_; }
  std::uint64_t test_cycles_run() const { return test_cycles_run_; }
  const ConfigDataSet& config() const { return cfg_; }

 private:
  static constexpr std::size_t kNoCtrl = ~std::size_t{0};

  /// A control port's per-cycle value: the loaded override while it lasts,
  /// the mapping's static write_value after that.
  struct CtrlSlot {
    unsigned ctrlport = 0;
    std::uint64_t write_value = 0;
    std::vector<std::uint64_t> values;
    std::uint64_t at(std::uint64_t cycle) const {
      return cycle < values.size() ? values[cycle] : write_value;
    }
  };
  /// An inport's stimulus memory.  On the tester side of an I/O port,
  /// `ctrl` indexes the direction control: the tester releases the pins
  /// while it reads `dut_drives_value`.
  struct InSlot {
    unsigned inport = 0;
    std::vector<std::uint64_t> stimulus;
    std::size_t ctrl = kNoCtrl;
    std::uint64_t dut_drives_value = 0;
  };
  /// An outport's capture memory; on the DUT side of an I/O port nothing
  /// is captured while the tester drives.
  struct OutSlot {
    unsigned outport = 0;
    std::size_t ctrl = kNoCtrl;
    std::uint64_t dut_drives_value = 0;
    Capture capture;
  };

  std::uint64_t stimulus_length() const;

  ScsiChannel scsi_;
  ConfigDataSet cfg_;
  bool configured_ = false;
  bool captured_ = false;  ///< a test cycle ran since configure()
  std::vector<InSlot> ins_;
  std::vector<CtrlSlot> ctrls_;
  std::vector<OutSlot> outs_;
  // Pin values of one hardware cycle, reused across cycles and runs.
  std::vector<std::uint64_t> in_vals_;
  std::vector<std::uint8_t> in_en_;
  std::vector<std::uint64_t> out_vals_;
  std::vector<std::uint8_t> out_en_;
  std::uint64_t test_cycles_run_ = 0;
};

}  // namespace castanet::board
