// Steady-state allocation contract of the RTL kernel: once a clocked design
// is warm (bucket pool, pending list, delta and scratch vectors at their
// working capacity), further clock cycles perform ZERO heap allocations.
// The design covers every hot-path kind of activity: the kernel clock's
// edges, a rising-edge clocked process, a combinational process, scalar
// and word writes, one delayed write and one scheduled callback per
// cycle.  Proven like tests/dsim/test_scheduler_alloc.cpp:
// this binary replaces the global allocator with a counting wrapper and
// asserts the count does not move across the hot phase.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/rtl/module.hpp"
#include "src/rtl/simulator.hpp"

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

namespace castanet::rtl {
namespace {

constexpr SimTime kPeriod = SimTime::from_ns(10);

/// A counter register with a combinational parity output, a delayed echo
/// of the toggle bit and one kernel callback per cycle.
class Ticker : public Module {
 public:
  Ticker(Simulator& sim, const Signal& clk) : Module(sim, "ticker") {
    toggle_ = make_signal("toggle", Logic::L0);
    echo_ = make_signal("echo", Logic::L0);
    parity_ = make_signal("parity", Logic::L0);
    count_ = make_bus("count", 16, Logic::L0);
    clocked("reg", clk, [this] {
      const bool t = toggle_.read_bool();
      toggle_.write(!t);
      echo_.write(!t, SimTime::from_ns(3));
      count_.write_uint((count_.read_uint() + 1) & 0xFFFF);
      this->sim().schedule_callback(SimTime::from_ns(2),
                                    [this] { ++callbacks_; });
    });
    process("parity", {toggle_.id(), count_.id()}, [this] {
      parity_.write(toggle_.read_bool() != ((count_.read_uint() & 1) != 0));
    });
  }

  std::uint64_t count() const { return count_.read_uint(); }
  std::uint64_t callbacks() const { return callbacks_; }
  bool echo() const { return echo_.read_bool(); }
  bool toggle() const { return toggle_.read_bool(); }

 private:
  Signal toggle_, echo_, parity_;
  Bus count_;
  std::uint64_t callbacks_ = 0;
};

TEST(RtlAlloc, WarmClockCyclesAreAllocationFree) {
  Simulator sim;
  Signal clk(&sim, sim.create_signal("clk", 1, Logic::L0));
  ClockGen clock(sim, clk, kPeriod);
  Ticker ticker(sim, clk);

  // Warm-up: a few hundred cycles bring every pooled vector to its working
  // capacity.  Both runs stop 4 ns past a rising edge, after that cycle's
  // callback (2 ns) and echo (3 ns) have landed.
  const SimTime past_edge = SimTime::from_ns(4);
  sim.run_until(kPeriod * 200 + past_edge);
  const std::uint64_t edges0 = clock.rising_edges();
  const std::uint64_t callbacks0 = ticker.callbacks();
  const KernelStats stats0 = sim.stats();

  constexpr std::int64_t kCycles = 5'000;
  const std::uint64_t before = g_allocations.load();
  sim.run_until(kPeriod * (200 + kCycles) + past_edge);
  EXPECT_EQ(g_allocations.load(), before)
      << "the warm RTL path allocated during " << kCycles << " clock cycles";

  // The hot phase did the work it was meant to do.
  EXPECT_EQ(clock.rising_edges() - edges0, static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(ticker.callbacks() - callbacks0,
            static_cast<std::uint64_t>(kCycles));
  EXPECT_EQ(ticker.count(), clock.rising_edges() & 0xFFFF);
  EXPECT_GT(sim.stats().process_activations, stats0.process_activations);
  EXPECT_GT(sim.stats().value_changes, stats0.value_changes);
  EXPECT_EQ(ticker.echo(), ticker.toggle());
}

}  // namespace
}  // namespace castanet::rtl
