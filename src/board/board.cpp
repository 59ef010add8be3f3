#include "src/board/board.hpp"

#include <algorithm>

#include "src/core/error.hpp"

namespace castanet::board {

HardwareTestBoard::HardwareTestBoard(ScsiChannel::Params scsi)
    : scsi_(scsi) {}

void HardwareTestBoard::configure(const ConfigDataSet& cfg) {
  cfg.validate();
  cfg_ = cfg;
  configured_ = true;
  captured_ = false;

  // Compile the replay plan.  validate() guarantees unique port numbers and
  // that every I/O port names a known inport, outport and ctrlport.
  ctrls_.clear();
  ctrls_.reserve(cfg.ctrlports.size());
  for (const CtrlportMapping& m : cfg.ctrlports) {
    ctrls_.push_back({m.ctrlport, m.write_value, {}});
  }
  ins_.clear();
  ins_.reserve(cfg.inports.size());
  for (const InportMapping& m : cfg.inports) {
    ins_.emplace_back().inport = m.inport;
  }
  outs_.clear();
  outs_.reserve(cfg.outports.size());
  for (const OutportMapping& m : cfg.outports) {
    outs_.emplace_back().outport = m.outport;
  }
  for (const IoPortMapping& io : cfg.ioports) {
    std::size_t ctrl = 0;
    while (ctrls_[ctrl].ctrlport != io.ctrlport) ++ctrl;
    for (InSlot& in : ins_) {
      if (in.inport == io.inport) {
        in.ctrl = ctrl;
        in.dut_drives_value = io.dut_drives_value;
      }
    }
    for (OutSlot& out : outs_) {
      if (out.outport == io.outport) {
        out.ctrl = ctrl;
        out.dut_drives_value = io.dut_drives_value;
      }
    }
  }

  // Uploading the configuration data set costs a (small) SCSI transfer.
  const std::uint64_t cfg_bytes =
      16 * (cfg.inports.size() + cfg.outports.size() + cfg.ctrlports.size() +
            cfg.ioports.size());
  scsi_.transfer(cfg_bytes);
}

void HardwareTestBoard::load_stimulus(unsigned inport,
                                      std::vector<std::uint64_t> values) {
  require(configured_, "board: configure() before load_stimulus()");
  const auto it =
      std::find_if(ins_.begin(), ins_.end(),
                   [&](const InSlot& in) { return in.inport == inport; });
  if (it == ins_.end()) {
    throw ConfigError("load_stimulus: inport " + std::to_string(inport) +
                      " not in configuration data set");
  }
  if (values.size() > kMaxTestCycle) {
    throw ConfigError("load_stimulus: exceeds vector memory depth");
  }
  it->stimulus = std::move(values);
}

void HardwareTestBoard::load_ctrl(unsigned ctrlport,
                                  std::vector<std::uint64_t> values) {
  require(configured_, "board: configure() before load_ctrl()");
  const auto it =
      std::find_if(ctrls_.begin(), ctrls_.end(),
                   [&](const CtrlSlot& c) { return c.ctrlport == ctrlport; });
  if (it == ctrls_.end()) {
    throw ConfigError("load_ctrl: ctrlport " + std::to_string(ctrlport) +
                      " not in configuration data set");
  }
  if (values.size() > kMaxTestCycle) {
    throw ConfigError("load_ctrl: exceeds vector memory depth");
  }
  it->values = std::move(values);
}

std::uint64_t HardwareTestBoard::stimulus_length() const {
  std::uint64_t n = 0;
  for (const InSlot& in : ins_) {
    n = std::max<std::uint64_t>(n, in.stimulus.size());
  }
  for (const CtrlSlot& c : ctrls_) {
    n = std::max<std::uint64_t>(n, c.values.size());
  }
  return n;
}

HardwareTestBoard::RunStats HardwareTestBoard::run_test_cycle(
    BehavioralDut& dut, std::uint64_t duration, std::uint64_t clock_hz) {
  require(configured_, "board: configure() before run_test_cycle()");
  if (clock_hz == 0 || clock_hz > kMaxBoardClockHz) {
    throw ConfigError("board: clock beyond the 20 MHz board maximum");
  }
  const std::uint64_t dut_hz = clock_hz / cfg_.gating_factor;
  if (dut_hz == 0) {
    throw ConfigError("board: clock of " + std::to_string(clock_hz) +
                      " Hz below the gating factor " +
                      std::to_string(cfg_.gating_factor) +
                      " leaves the DUT no clock");
  }
  if (duration == 0) duration = stimulus_length();
  if (duration == 0 || duration > kMaxTestCycle) {
    throw ConfigError("board: test cycle duration must be in 1.." +
                      std::to_string(kMaxTestCycle));
  }
  // Port numbers are unique (validate()), so these checks also cover a
  // DUT with fewer ports than the configuration maps.
  for (const InSlot& in : ins_) {
    if (in.inport >= dut.num_inputs()) {
      throw ConfigError("board: inport " + std::to_string(in.inport) +
                        " beyond the DUT's " +
                        std::to_string(dut.num_inputs()) + " inputs");
    }
  }
  for (const OutSlot& out : outs_) {
    if (out.outport >= dut.num_outputs()) {
      throw ConfigError("board: outport " + std::to_string(out.outport) +
                        " beyond the DUT's " +
                        std::to_string(dut.num_outputs()) + " outputs");
    }
  }

  RunStats stats;
  stats.cycles = duration;

  // --- software activity: store stimuli into the board memories ----------
  std::uint64_t stim_bytes = 0;
  for (const InSlot& in : ins_) stim_bytes += in.stimulus.size() * 8;
  for (const CtrlSlot& c : ctrls_) stim_bytes += c.values.size() * 8;
  stats.sw_time += scsi_.transfer(stim_bytes);

  for (OutSlot& out : outs_) {
    out.capture.values.clear();
    out.capture.enabled.clear();
    out.capture.values.reserve(duration);
    out.capture.enabled.reserve(duration);
  }
  captured_ = true;

  // --- hardware activity: real-time replay -------------------------------
  if (auto* rtl_dut = dynamic_cast<RtlDutAdapter*>(&dut)) {
    rtl_dut->set_actual_hz(dut_hz);
  }
  // Unmapped inputs stay 0 and driven.
  in_vals_.assign(dut.num_inputs(), 0);
  in_en_.assign(dut.num_inputs(), 1);
  for (std::uint64_t c = 0; c < duration; ++c) {
    for (const InSlot& in : ins_) {
      in_vals_[in.inport] = c < in.stimulus.size() ? in.stimulus[c] : 0;
      // The tester releases a shared bus while the DUT drives it.
      in_en_[in.inport] =
          in.ctrl == kNoCtrl || ctrls_[in.ctrl].at(c) != in.dut_drives_value;
    }
    dut.cycle(in_vals_, in_en_, out_vals_, out_en_);
    for (OutSlot& out : outs_) {
      const bool driven =
          out.outport < out_en_.size() && out_en_[out.outport] != 0;
      // Tester-drive phase of an I/O port: nothing to capture.
      const bool tester_drives =
          out.ctrl != kNoCtrl && ctrls_[out.ctrl].at(c) != out.dut_drives_value;
      out.capture.values.push_back(
          out.outport < out_vals_.size() ? out_vals_[out.outport] : 0);
      out.capture.enabled.push_back(driven && !tester_drives ? 1 : 0);
    }
  }
  stats.hw_time = SimTime::from_ps(static_cast<std::int64_t>(
      static_cast<double>(duration) / static_cast<double>(dut_hz) * 1e12));

  // --- software activity: read responses back ----------------------------
  const std::uint64_t resp_bytes = duration * 8 * cfg_.outports.size();
  stats.sw_time += scsi_.transfer(resp_bytes);

  ++test_cycles_run_;
  return stats;
}

const HardwareTestBoard::Capture& HardwareTestBoard::response(
    unsigned outport) const {
  for (const OutSlot& out : outs_) {
    if (captured_ && out.outport == outport) return out.capture;
  }
  throw LogicError("board: no capture for outport " +
                   std::to_string(outport));
}

}  // namespace castanet::board
