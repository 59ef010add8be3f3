#include "src/board/dut.hpp"

#include "src/core/error.hpp"

namespace castanet::board {

RtlDutAdapter::RtlDutAdapter() : sim_(std::make_unique<rtl::Simulator>()) {}
RtlDutAdapter::~RtlDutAdapter() = default;

void RtlDutAdapter::add_input(rtl::Bus bus) {
  require(bus.valid(), "RtlDutAdapter::add_input: invalid bus");
  require(bus.width() <= 64,
          "RtlDutAdapter::add_input: port wider than 64 bits");
  inputs_.push_back(bus);
}

void RtlDutAdapter::add_output(rtl::Bus bus) {
  require(bus.valid(), "RtlDutAdapter::add_output: invalid bus");
  require(bus.width() <= 64,
          "RtlDutAdapter::add_output: port wider than 64 bits");
  outputs_.push_back(bus);
}

void RtlDutAdapter::set_max_safe_hz(std::uint64_t hz,
                                    std::uint64_t fault_period) {
  require(fault_period > 0, "RtlDutAdapter: fault period must be > 0");
  max_safe_hz_ = hz;
  fault_period_ = fault_period;
}

void RtlDutAdapter::step_clock() {
  // The concrete period only spaces events on the adapter's private time
  // axis.
  if (!clock_running_) {
    require(clk_.valid(), "RtlDutAdapter: clock not set");
    sim_->add_clock(clk_.id(), period_);
    clock_running_ = true;
  }
  sim_->run_before(sim_->now() + period_);
}

void RtlDutAdapter::reset() {
  require(clk_.valid(), "RtlDutAdapter: clock not set");
  if (rst_.valid()) {
    rst_.write(rtl::Logic::L1);
    step_clock();
    step_clock();
    rst_.write(rtl::Logic::L0);
    step_clock();
  }
  cycle_count_ = 0;
  timing_violations_ = 0;
}

void RtlDutAdapter::cycle(const std::vector<std::uint64_t>& inputs,
                          const std::vector<std::uint8_t>& input_enable,
                          std::vector<std::uint64_t>& outputs,
                          std::vector<std::uint8_t>& output_enable) {
  require(inputs.size() == inputs_.size() &&
              input_enable.size() == inputs_.size(),
          "RtlDutAdapter::cycle: input count mismatch");
  ++cycle_count_;

  const bool violate = max_safe_hz_ != 0 && actual_hz_ > max_safe_hz_ &&
                       cycle_count_ % fault_period_ == 0;
  if (violate) {
    // Setup violation: the input registers miss this cycle's new values and
    // keep sampling the previous ones — inputs are simply not applied.
    ++timing_violations_;
  } else {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      if (input_enable[i]) {
        inputs_[i].write_uint(inputs[i]);
      } else {
        inputs_[i].release();
      }
    }
  }
  step_clock();

  // One word per port: bit b reads 1 for '1'/'H' (to_bool), and a port
  // reading all-Z is released.
  outputs.resize(outputs_.size());
  output_enable.resize(outputs_.size());
  for (std::size_t o = 0; o < outputs_.size(); ++o) {
    const rtl::LogicVector& v = outputs_[o].read();
    outputs[o] = v.bool_word(0);
    output_enable[o] = v.all_z() ? 0 : 1;
  }
}

}  // namespace castanet::board
