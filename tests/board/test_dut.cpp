#include "src/board/dut.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::board {
namespace {

/// A pin-level 8-bit accumulator: out = sum of sampled inputs; input 1 adds,
/// input 0 is the operand.
class AccumulatorDut {
 public:
  RtlDutAdapter adapter;
  rtl::Bus operand, out;
  rtl::Signal add;

  AccumulatorDut() {
    auto& sim = adapter.sim();
    rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
    rtl::Signal rst(&sim, sim.create_signal("rst", 1, rtl::Logic::L0));
    operand = rtl::Bus(&sim, sim.create_signal("operand", 8, rtl::Logic::L0));
    add = rtl::Signal(&sim, sim.create_signal("add", 1, rtl::Logic::L0));
    out = rtl::Bus(&sim, sim.create_signal("out", 8, rtl::Logic::L0));
    sim.add_process("acc", {clk.id()}, [this, clk, rst] {
      if (!clk.rose()) return;
      if (rst.read_bool()) {
        acc_ = 0;
      } else if (add.read_bool()) {
        acc_ = (acc_ + operand.read_uint()) & 0xFF;
      }
      out.write_uint(acc_);
    });
    adapter.set_clock(clk);
    adapter.set_reset(rst);
    adapter.add_input(operand);
    adapter.add_input(rtl::Bus(&sim, add.id()));
    adapter.add_output(out);
  }

 private:
  std::uint64_t acc_ = 0;
};

TEST(RtlDutAdapter, CyclesApplyInputsAndCaptureOutputs) {
  AccumulatorDut dut;
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  dut.adapter.cycle({5, 1}, {true, true}, out, en);
  dut.adapter.cycle({7, 1}, {true, true}, out, en);
  EXPECT_EQ(out[0], 12u);
  EXPECT_TRUE(en[0]);
  dut.adapter.cycle({100, 0}, {true, true}, out, en);  // add deasserted
  EXPECT_EQ(out[0], 12u);
}

TEST(RtlDutAdapter, ResetClearsState) {
  AccumulatorDut dut;
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  dut.adapter.cycle({9, 1}, {true, true}, out, en);
  EXPECT_EQ(out[0], 9u);
  // Inputs hold their last values through reset (pins are level-driven), so
  // deassert 'add' first, as a real tester would.
  dut.adapter.cycle({0, 0}, {true, true}, out, en);
  dut.adapter.reset();
  dut.adapter.cycle({0, 0}, {true, true}, out, en);
  EXPECT_EQ(out[0], 0u);
}

TEST(RtlDutAdapter, ReleasedOutputsReportDisabled) {
  RtlDutAdapter a;
  auto& sim = a.sim();
  rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
  rtl::Bus bus(&sim, sim.create_signal("bus", 8, rtl::Logic::Z));
  a.set_clock(clk);
  a.add_output(bus);
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  a.cycle({}, {}, out, en);
  EXPECT_FALSE(en[0]);  // all-Z: nobody driving
}

TEST(RtlDutAdapter, TimingViolationsOnlyWhenOverclocked) {
  AccumulatorDut dut;
  dut.adapter.set_max_safe_hz(10'000'000, /*fault_period=*/4);
  dut.adapter.set_actual_hz(5'000'000);  // within rating
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  for (int i = 0; i < 8; ++i) dut.adapter.cycle({1, 1}, {true, true}, out, en);
  EXPECT_EQ(dut.adapter.timing_violations(), 0u);
  EXPECT_EQ(out[0], 8u);

  // Overclocked: every 4th cycle misses its inputs.
  dut.adapter.reset();
  dut.adapter.set_actual_hz(20'000'000);
  for (int i = 0; i < 8; ++i) dut.adapter.cycle({1, 1}, {true, true}, out, en);
  EXPECT_EQ(dut.adapter.timing_violations(), 2u);
  // The accumulator still adds on violated cycles (inputs held), so the sum
  // is correct here; what matters is that violations are counted and the
  // stale-input mechanism engaged.  A value-visible case is exercised in
  // the board tests.
  EXPECT_EQ(dut.adapter.cycles(), 8u);
}

TEST(RtlDutAdapter, StaleInputsVisibleWhenValuesChange) {
  AccumulatorDut dut;
  dut.adapter.set_max_safe_hz(10'000'000, /*fault_period=*/2);
  dut.adapter.set_actual_hz(20'000'000);
  dut.adapter.reset();
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  // Alternate operand 1, 10, 1, 10 ... every 2nd cycle keeps old inputs.
  std::uint64_t healthy_sum = 0;
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t operand = i % 2 == 0 ? 1 : 10;
    healthy_sum += operand;
    dut.adapter.cycle({operand, 1}, {true, true}, out, en);
  }
  EXPECT_NE(out[0], healthy_sum & 0xFF);  // corruption observable at speed
}

TEST(RtlDutAdapter, InputCountMismatchRejected) {
  AccumulatorDut dut;
  std::vector<std::uint64_t> out;
  std::vector<bool> en;
  EXPECT_THROW(dut.adapter.cycle({1}, {true}, out, en), castanet::LogicError);
}

TEST(RtlDutAdapter, PortsWiderThan64BitsRejectedAtRegistration) {
  // A port value travels as one std::uint64_t: a 65-bit input could not be
  // applied, and reading a 65-bit output would shift by 64.
  RtlDutAdapter adapter;
  auto& sim = adapter.sim();
  const rtl::Bus wide(&sim, sim.create_signal("wide", 65, rtl::Logic::L0));
  const rtl::Bus word(&sim, sim.create_signal("word", 64, rtl::Logic::L0));
  EXPECT_THROW(adapter.add_input(wide), castanet::LogicError);
  EXPECT_THROW(adapter.add_output(wide), castanet::LogicError);
  EXPECT_EQ(adapter.num_inputs(), 0u);
  EXPECT_EQ(adapter.num_outputs(), 0u);
  adapter.add_input(word);  // exactly 64 bits is the widest port
  adapter.add_output(word);
  EXPECT_EQ(adapter.num_inputs(), 1u);
  EXPECT_EQ(adapter.num_outputs(), 1u);
}

}  // namespace
}  // namespace castanet::board
