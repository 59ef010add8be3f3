#include "src/board/selftest.hpp"

#include <sstream>

#include "src/core/error.hpp"

namespace castanet::board {

LoopbackDut::LoopbackDut(std::size_t ports, std::uint64_t stuck_mask)
    : ports_(ports), stuck_mask_(stuck_mask), reg_(ports, 0) {
  require(ports >= 1, "LoopbackDut: need at least one port");
}

void LoopbackDut::reset() { reg_.assign(ports_, 0); }

void LoopbackDut::cycle(const std::vector<std::uint64_t>& inputs,
                        const std::vector<std::uint8_t>& input_enable,
                        std::vector<std::uint64_t>& outputs,
                        std::vector<std::uint8_t>& output_enable) {
  outputs.resize(ports_);
  output_enable.assign(ports_, 1);
  for (std::size_t p = 0; p < ports_; ++p) {
    outputs[p] = reg_[p] & ~stuck_mask_;
    reg_[p] = p < inputs.size() && input_enable[p] ? inputs[p] : 0;
  }
}

SelfTestReport run_walking_ones(HardwareTestBoard& board, BehavioralDut& dut,
                                std::size_t lanes) {
  require(lanes >= 1 && lanes <= 8, "run_walking_ones: 1..8 lane pairs");
  ConfigDataSet cfg;
  for (std::size_t l = 0; l < lanes; ++l) {
    cfg.inports.push_back({static_cast<unsigned>(l), 8,
                           {{static_cast<std::uint8_t>(l), 0, 8}}});
    cfg.outports.push_back({static_cast<unsigned>(l), 8,
                            {{static_cast<std::uint8_t>(8 + l), 0, 8}}});
  }
  board.configure(cfg);
  dut.reset();

  // Pattern sequence per lane: walking one (8 cycles), walking zero (8),
  // all-zero, all-one, then per-lane distinct bytes (crosstalk check).
  std::vector<std::vector<std::uint64_t>> stim(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (int b = 0; b < 8; ++b) stim[l].push_back(1u << b);
    for (int b = 0; b < 8; ++b) stim[l].push_back(0xFFu ^ (1u << b));
    stim[l].push_back(0x00);
    stim[l].push_back(0xFF);
    stim[l].push_back(static_cast<std::uint64_t>(0x11 * (l + 1)) & 0xFF);
    stim[l].push_back(0x00);  // flush cycle for the registered loopback
    board.load_stimulus(static_cast<unsigned>(l), stim[l]);
  }
  const std::uint64_t cycles = stim[0].size();
  board.run_test_cycle(dut, cycles);

  SelfTestReport report;
  report.passed = true;
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto& cap = board.response(static_cast<unsigned>(l));
    for (std::uint64_t c = 1; c < cycles; ++c) {
      const std::uint64_t want = stim[l][c - 1];  // one-cycle loopback
      ++report.patterns_checked;
      if (cap.values[c] != want) {
        report.passed = false;
        std::ostringstream os;
        os << "lane " << l << " cycle " << c << ": expected 0x" << std::hex
           << want << " got 0x" << cap.values[c];
        report.failures.push_back(os.str());
      }
    }
  }
  return report;
}

}  // namespace castanet::board
