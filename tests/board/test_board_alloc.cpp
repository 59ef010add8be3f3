// Steady-state allocation contract of the hardware test board: once a
// board and its DUT are warm (capture memories and pin vectors at their
// working capacity, the DUT's kernel pools filled), a further hardware
// activity cycle over the same stimulus performs ZERO heap allocations.
// The replay covers every per-cycle path of the plan: stimulus lanes, an
// I/O port whose direction control alternates (tester drive and release,
// DUT drive and capture), and a plain outport.  Proven like
// tests/rtl/test_rtl_alloc.cpp: this binary replaces the global allocator
// with a counting wrapper and asserts the count does not move.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/board/board.hpp"
#include "src/board/selftest.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: replaces the global allocator for this test binary.
// Only counts; behavior is unchanged.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace castanet::board {
namespace {

constexpr std::uint64_t kCycles = 512;

/// A registered echo with a bidirectional bus: q takes input a on each
/// rising edge, and while `drive` is high the DUT also drives a onto the
/// bus.
struct EchoDut {
  RtlDutAdapter adapter;
  rtl::Bus a, bus, q;
  rtl::Signal drive;

  EchoDut() {
    rtl::Simulator& sim = adapter.sim();
    const rtl::Signal clk(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
    a = rtl::Bus(&sim, sim.create_signal("a", 8, rtl::Logic::L0));
    drive = rtl::Signal(&sim, sim.create_signal("drive", 1, rtl::Logic::L0));
    bus = rtl::Bus(&sim, sim.create_signal("bus", 8, rtl::Logic::Z));
    q = rtl::Bus(&sim, sim.create_signal("q", 8, rtl::Logic::L0));
    sim.add_process("echo", {clk.id()}, [this, clk] {
      if (!clk.rose()) return;
      q.write_uint(a.read_uint());
      if (drive.read_bool()) {
        bus.write_uint(a.read_uint());
      } else {
        bus.release();
      }
    });
    adapter.set_clock(clk);
    adapter.add_input(a);                           // 0
    adapter.add_input(rtl::Bus(&sim, drive.id()));  // 1
    adapter.add_input(bus);                         // 2
    adapter.add_output(q);                          // 0
    adapter.add_output(bus);                        // 1
  }
};

ConfigDataSet echo_config() {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  cfg.inports.push_back({1, 1, {{1, 0, 1}}});
  cfg.inports.push_back({2, 8, {{2, 0, 8}}});  // bus, tester side
  cfg.outports.push_back({0, 8, {{8, 0, 8}}});
  cfg.outports.push_back({1, 8, {{9, 0, 8}}});  // bus, DUT side
  cfg.ctrlports.push_back({0, 1, {{1, 1, 1}}, 0});
  cfg.ioports.push_back({2, 1, 0, 8, 1});
  return cfg;
}

/// Runs test cycles until warm, then asserts one more allocates nothing.
void expect_warm_cycle_allocation_free(HardwareTestBoard& board,
                                       BehavioralDut& dut) {
  for (int i = 0; i < 3; ++i) board.run_test_cycle(dut, kCycles);
  const std::uint64_t before = g_allocations.load();
  const auto stats = board.run_test_cycle(dut, kCycles);
  EXPECT_EQ(g_allocations.load(), before)
      << "a warm run_test_cycle allocated";
  EXPECT_EQ(stats.cycles, kCycles);
}

TEST(BoardAlloc, WarmTestCycleOfAnRtlDutIsAllocationFree) {
  HardwareTestBoard board;
  board.configure(echo_config());
  EchoDut dut;
  dut.adapter.reset();
  // Bus direction alternates every 8 cycles; the DUT drives exactly while
  // the tester releases.
  std::vector<std::uint64_t> a(kCycles), dir(kCycles);
  for (std::uint64_t c = 0; c < kCycles; ++c) {
    a[c] = (c * 37 + 5) & 0xFF;
    dir[c] = (c / 8) % 2;
  }
  board.load_stimulus(0, a);
  board.load_stimulus(1, dir);
  board.load_stimulus(2, a);
  board.load_ctrl(0, dir);
  expect_warm_cycle_allocation_free(board, dut.adapter);

  // The replay did the work it was meant to do.
  const auto& q = board.response(0);
  const auto& bus = board.response(1);
  ASSERT_EQ(q.values.size(), kCycles);
  for (std::uint64_t c = 1; c < kCycles; ++c) {
    EXPECT_EQ(q.values[c], a[c]) << "cycle " << c;
    EXPECT_EQ(bus.enabled[c], dir[c]) << "cycle " << c;
    if (dir[c] != 0) {
      EXPECT_EQ(bus.values[c], a[c]) << "cycle " << c;
    }
  }
}

TEST(BoardAlloc, WarmTestCycleOfABehavioralDutIsAllocationFree) {
  HardwareTestBoard board;
  LoopbackDut dut(4);
  ConfigDataSet cfg;
  for (unsigned l = 0; l < 4; ++l) {
    cfg.inports.push_back({l, 8, {{static_cast<std::uint8_t>(l), 0, 8}}});
    cfg.outports.push_back(
        {l, 8, {{static_cast<std::uint8_t>(8 + l), 0, 8}}});
  }
  board.configure(cfg);
  for (unsigned l = 0; l < 4; ++l) {
    board.load_stimulus(l, std::vector<std::uint64_t>(kCycles, l + 1));
  }
  expect_warm_cycle_allocation_free(board, dut);
  EXPECT_EQ(board.response(3).values.back(), 4u);
}

}  // namespace
}  // namespace castanet::board
