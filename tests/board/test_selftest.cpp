#include "src/board/selftest.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::board {
namespace {

TEST(SelfTest, HealthyBoardPasses) {
  HardwareTestBoard board;
  LoopbackDut plug(8);
  const SelfTestReport r = run_walking_ones(board, plug);
  EXPECT_TRUE(r.passed) << (r.failures.empty() ? "" : r.failures[0]);
  EXPECT_GT(r.patterns_checked, 100u);
  EXPECT_TRUE(r.failures.empty());
}

TEST(SelfTest, StuckAtZeroPinDetected) {
  HardwareTestBoard board;
  LoopbackDut plug(8, /*stuck_mask=*/0x04);  // bit 2 stuck low
  const SelfTestReport r = run_walking_ones(board, plug);
  EXPECT_FALSE(r.passed);
  EXPECT_FALSE(r.failures.empty());
  // Every lane reports the same stuck bit via its walking-one pattern.
  bool found_bit2 = false;
  for (const std::string& f : r.failures) {
    if (f.find("expected 0x4 got 0x0") != std::string::npos) {
      found_bit2 = true;
    }
  }
  EXPECT_TRUE(found_bit2);
}

TEST(SelfTest, SingleLanePairWorks) {
  HardwareTestBoard board;
  LoopbackDut plug(1);
  const SelfTestReport r = run_walking_ones(board, plug, 1);
  EXPECT_TRUE(r.passed);
}

TEST(SelfTest, LaneCountValidated) {
  HardwareTestBoard board;
  LoopbackDut plug(8);
  EXPECT_THROW(run_walking_ones(board, plug, 0), LogicError);
  EXPECT_THROW(run_walking_ones(board, plug, 9), LogicError);
}

TEST(LoopbackDutTest, EchoesWithOneCycleDelay) {
  LoopbackDut dut(2);
  std::vector<std::uint64_t> out;
  std::vector<std::uint8_t> en;
  dut.cycle({0xAB, 0xCD}, {1, 1}, out, en);
  EXPECT_EQ(out[0], 0u);  // registered: nothing yet
  dut.cycle({0x00, 0x00}, {1, 1}, out, en);
  EXPECT_EQ(out[0], 0xABu);
  EXPECT_EQ(out[1], 0xCDu);
}

TEST(LoopbackDutTest, DisabledInputReadsAsZero) {
  LoopbackDut dut(1);
  std::vector<std::uint64_t> out;
  std::vector<std::uint8_t> en;
  dut.cycle({0xFF}, {0}, out, en);
  dut.cycle({0x00}, {1}, out, en);
  EXPECT_EQ(out[0], 0u);
}

}  // namespace
}  // namespace castanet::board
