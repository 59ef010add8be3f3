// Deeper VHDL-semantics coverage of the event-driven kernel: transaction
// ordering, last-write-wins per driver, delayed vs delta writes, X
// propagation through logic, and stability of the delta loop under
// pathological feedback, and the ordering rules of zero-delay writes
// staged straight into driver slots.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::rtl {
namespace {

TEST(KernelSemantics, SameDriverSameTimeLastWriteWins) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 4, Logic::L0);
  sim.schedule_write(s, LogicVector::from_uint(3, 4));
  sim.schedule_write(s, LogicVector::from_uint(9, 4));
  sim.step_time();
  EXPECT_EQ(sim.value(s).to_uint(), 9u);
}

TEST(KernelSemantics, DistinctTimesApplyInOrder) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 4, Logic::L0);
  std::vector<std::uint64_t> seen;
  sim.add_change_observer([&](SignalId, const LogicVector& v, SimTime) {
    seen.push_back(v.to_uint());
  });
  sim.schedule_write(s, LogicVector::from_uint(2, 4), SimTime::from_ns(20));
  sim.schedule_write(s, LogicVector::from_uint(1, 4), SimTime::from_ns(10));
  sim.schedule_write(s, LogicVector::from_uint(3, 4), SimTime::from_ns(30));
  sim.run_until(SimTime::from_ns(40));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(KernelSemantics, ZeroDelayFeedbackTerminatesWhenStable) {
  // p drives s with the same value it reads: one delta, then quiescent
  // (no event since the value does not change).
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  int runs = 0;
  sim.add_process("p", {s}, [&] {
    ++runs;
    sim.schedule_write(s, sim.value(s).bit(0));
  });
  sim.initialize();
  sim.step_time();
  sim.step_time();
  EXPECT_LE(runs, 2);  // initialization + at most one re-run
  EXPECT_TRUE(sim.quiescent());
}

TEST(KernelSemantics, OscillatorBoundedByRunUntil) {
  // A zero-delay ring oscillator (classic VHDL bug) spins delta cycles at
  // one time point; the kernel must make progress and honour external
  // bounds via step limits rather than hanging...  we bound it with an
  // explicit delay so time advances.
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  sim.add_process("inv", {s}, [&] {
    sim.schedule_write(s, logic_not(sim.value(s).bit(0)), SimTime::from_ns(5));
  });
  sim.initialize();
  sim.run_until(SimTime::from_ns(52));
  // Toggles at 5, 10, ..., 50 -> ten transitions, value ends at L0/L1
  // deterministically.
  EXPECT_GE(sim.stats().value_changes, 10u);
  EXPECT_EQ(sim.now(), SimTime::from_ns(52));
}

TEST(KernelSemantics, XPropagatesThroughCombinationalChain) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  const SignalId b = sim.create_signal("b", 1, Logic::L1);
  const SignalId y = sim.create_signal("y", 1);
  sim.add_process("and", {a, b}, [&] {
    sim.schedule_write(y, logic_and(sim.value(a).bit(0), sim.value(b).bit(0)));
  });
  sim.initialize();
  sim.step_time();
  EXPECT_EQ(sim.value(y).bit(0), Logic::L0);
  sim.schedule_write(a, Logic::X, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(1));
  EXPECT_EQ(sim.value(y).bit(0), Logic::X);  // X & 1 = X
  sim.schedule_write(b, Logic::L0, SimTime::from_ns(1));  // lands at 2 ns
  sim.run_until(SimTime::from_ns(2));
  EXPECT_EQ(sim.value(y).bit(0), Logic::L0);  // X & 0 = 0: X masked
}

TEST(KernelSemantics, EventDistinguishedFromTransaction) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  int events = 0;
  sim.add_process("watch", {s}, [&] { ++events; });
  sim.initialize();
  events = 0;
  // Three transactions, only two change the value.
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(1));
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(2));  // no event
  sim.schedule_write(s, Logic::L0, SimTime::from_ns(3));
  sim.run_until(SimTime::from_ns(5));
  EXPECT_EQ(events, 2);
  EXPECT_EQ(sim.stats().transactions >= 3, true);
}

TEST(KernelSemantics, RoseFellOnlyDuringTriggeringDelta) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  bool rose_in_delta = false;
  sim.add_process("watch", {s}, [&] { rose_in_delta = sim.rose(s); });
  sim.initialize();
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(1));
  EXPECT_TRUE(rose_in_delta);
  // Outside any delta of s, rose() is false even though the value is '1'.
  EXPECT_FALSE(sim.rose(s) && sim.fell(s));
  sim.run_until(SimTime::from_ns(10));
  EXPECT_FALSE(sim.rose(s));
}

TEST(KernelSemantics, EdgeFromWeakLevelsCounts) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L);
  bool rose = false;
  sim.add_process("watch", {s}, [&] { rose = sim.rose(s); });
  sim.initialize();
  sim.schedule_write(s, Logic::H, SimTime::from_ns(1));  // weak 0 -> weak 1
  sim.run_until(SimTime::from_ns(1));
  EXPECT_TRUE(rose);
}

TEST(KernelSemantics, NegativeDelayRejected) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1);
  EXPECT_THROW(
      sim.schedule_write(s, Logic::L1, SimTime::from_ns(-1)),
      LogicError);
}

TEST(KernelSemantics, TimePointCountsDistinctTimes) {
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(1));
  sim.schedule_write(s, Logic::L0, SimTime::from_ns(1));  // same time
  sim.schedule_write(s, Logic::L1, SimTime::from_ns(7));
  sim.run_until(SimTime::from_ns(10));
  EXPECT_EQ(sim.stats().time_points, 2u);
}

TEST(KernelSemantics, ManySignalsManyProcessesScale) {
  // Smoke-scale: a 64-stage shift register clocked 256 times.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  std::vector<SignalId> stages;
  stages.push_back(sim.create_signal("in", 1, Logic::L1));
  for (int i = 1; i <= 64; ++i) {
    stages.push_back(
        sim.create_signal("st" + std::to_string(i), 1, Logic::L0));
  }
  for (int i = 1; i <= 64; ++i) {
    const SignalId src = stages[static_cast<std::size_t>(i - 1)];
    const SignalId dst = stages[static_cast<std::size_t>(i)];
    sim.add_process("sh" + std::to_string(i), {clk}, [&sim, clk, src, dst] {
      if (sim.rose(clk)) sim.schedule_write(dst, sim.value(src).bit(0));
    });
  }
  for (int c = 0; c < 256; ++c) {
    sim.schedule_write(clk, Logic::L1, SimTime::from_ns(2));
    sim.run_until(sim.now() + SimTime::from_ns(2));
    sim.schedule_write(clk, Logic::L0, SimTime::from_ns(2));
    sim.run_until(sim.now() + SimTime::from_ns(2));
  }
  // After 64+ clocks the '1' has filled the register.
  EXPECT_EQ(sim.value(stages[64]).bit(0), Logic::L1);
}

TEST(KernelSemantics, IdenticalRewriteCountsOneTransactionAndOneDelta) {
  // Modules re-assert unchanged outputs every clock.  Such a write changes
  // no driver slot, yet it is one transaction and still runs the (empty)
  // next delta, as a queued transaction would.  Scalar, word and wide
  // (heap-backed) values and schedule_write_uint take the same rule.
  Simulator sim;
  const SignalId s = sim.create_signal("s", 1, Logic::L0);
  const SignalId w = sim.create_signal("w", 8, Logic::L0);
  const SignalId wide = sim.create_signal("wide", 100, Logic::L0);
  int wakes = 0;
  sim.add_process("watch", {s, w, wide}, [&] { ++wakes; });
  sim.initialize();
  wakes = 0;
  LogicVector wide_value(100, Logic::L1);
  sim.schedule_write(s, Logic::L1);
  sim.schedule_write(w, LogicVector::from_uint(0x5A, 8));
  sim.schedule_write(wide, wide_value);
  ASSERT_TRUE(sim.step_time());
  KernelStats prev = sim.stats();
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(prev.value_changes, 3u);

  const auto rewrite_once = [&](const char* what, auto write) {
    SCOPED_TRACE(what);
    write();
    EXPECT_FALSE(sim.quiescent());  // the re-write still requests a delta
    EXPECT_EQ(sim.next_activity(), sim.now());
    ASSERT_TRUE(sim.step_time());
    const KernelStats& now = sim.stats();
    EXPECT_EQ(now.transactions, prev.transactions + 1);
    EXPECT_EQ(now.delta_cycles, prev.delta_cycles + 1);
    EXPECT_EQ(now.time_points, prev.time_points + 1);
    EXPECT_EQ(now.value_changes, prev.value_changes);
    EXPECT_TRUE(sim.quiescent());
    prev = now;
  };
  rewrite_once("scalar", [&] { sim.schedule_write(s, Logic::L1); });
  rewrite_once("word",
               [&] { sim.schedule_write(w, LogicVector::from_uint(0x5A, 8)); });
  rewrite_once("uint", [&] { sim.schedule_write_uint(w, 0x5A); });
  rewrite_once("wide", [&] { sim.schedule_write(wide, wide_value); });
  EXPECT_EQ(wakes, 1);
  EXPECT_EQ(sim.value(s).bit(0), Logic::L1);
  EXPECT_EQ(sim.value(w).to_uint(), 0x5Au);
  EXPECT_EQ(sim.value(wide), wide_value);
}

TEST(KernelSemantics, WordWriteComparesEveryPlaneOfTheDriverSlot) {
  // schedule_write_uint compares the slot in place: a slot holding 'Z' or
  // 'X' bits is not equal to the strong word with the same value bits.
  Simulator sim;
  const SignalId w = sim.create_signal("w", 8, Logic::L0);
  for (const Logic fill : {Logic::Z, Logic::X, Logic::L, Logic::H}) {
    SCOPED_TRACE(to_char(fill));
    sim.schedule_write(w, LogicVector(8, fill));
    sim.step_time();
    const std::uint64_t word = fill == Logic::H ? 0xFF : 0;
    sim.schedule_write_uint(w, word);
    sim.step_time();
    EXPECT_EQ(sim.value(w), LogicVector::from_uint(word, 8));
  }
  EXPECT_EQ(sim.stats().value_changes, 8u);
  const SignalId wide = sim.create_signal("wide", 65, Logic::L0);
  EXPECT_THROW(sim.schedule_write_uint(wide, 1), LogicError);
}

TEST(KernelSemantics, RewriteBySameProcessCountsEveryTransaction) {
  // A process that writes one signal twice per activation: every write is
  // a transaction, the last one of an activation wins, and an activation
  // that ends on the value already held changes nothing.
  Simulator sim;
  const SignalId go = sim.create_signal("go", 1, Logic::L0);
  const SignalId y = sim.create_signal("y", 4, Logic::L0);
  std::vector<std::uint64_t> seen;
  sim.add_change_observer([&](SignalId sig, const LogicVector& v, SimTime) {
    if (sig == y) seen.push_back(v.to_uint());
  });
  sim.add_process("p", {go}, [&] {
    if (sim.value(go).bit(0) != Logic::L1) return;
    sim.schedule_write(y, LogicVector::from_uint(3, 4));
    sim.schedule_write(y, LogicVector::from_uint(9, 4));
  });
  sim.initialize();
  sim.schedule_write(go, Logic::L1, SimTime::from_ns(1));
  sim.run_until(SimTime::from_ns(1));
  const std::uint64_t txns = sim.stats().transactions;
  sim.schedule_write(go, Logic::L0, SimTime::from_ns(1));
  sim.schedule_write(go, Logic::L1, SimTime::from_ns(2));
  sim.run_until(SimTime::from_ns(3));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{9}));
  EXPECT_EQ(sim.value(y).to_uint(), 9u);
  // Two go transactions plus the re-activation's two writes to y.
  EXPECT_EQ(sim.stats().transactions, txns + 4);
}

TEST(KernelSemantics, CallbackWriteBehindDelayedWriteCommitsOneDeltaLater) {
  // The bucket at 10 ns holds delayed external writes to s and b, and a
  // callback at 10 ns writes both again with zero delay.  The delayed
  // writes own the first delta of the time point; the callback's writes
  // commit one delta later, so they are the values that stay.
  Simulator sim;
  const SignalId s = sim.create_signal("s", 4, Logic::L0);
  const SignalId b = sim.create_signal("b", 1, Logic::L0);
  std::vector<std::pair<std::string, std::uint64_t>> seen;
  std::vector<std::uint64_t> delta_of;
  sim.add_change_observer([&](SignalId sig, const LogicVector& v, SimTime) {
    seen.emplace_back(sim.signal_name(sig), v.to_uint());
    delta_of.push_back(sim.stats().delta_cycles);
  });
  sim.schedule_write(s, LogicVector::from_uint(1, 4), SimTime::from_ns(10));
  sim.schedule_write(b, Logic::L1, SimTime::from_ns(10));
  sim.schedule_callback(SimTime::from_ns(10), [&] {
    sim.schedule_write(s, LogicVector::from_uint(2, 4));
    sim.schedule_write(b, Logic::L0);
  });
  sim.run_until(SimTime::from_ns(20));
  using Seen = std::vector<std::pair<std::string, std::uint64_t>>;
  EXPECT_EQ(seen, (Seen{{"s", 1}, {"b", 1}, {"s", 2}, {"b", 0}}));
  ASSERT_EQ(delta_of.size(), 4u);
  EXPECT_EQ(delta_of[0], delta_of[1]);
  EXPECT_EQ(delta_of[2], delta_of[0] + 1);
  EXPECT_EQ(delta_of[3], delta_of[2]);
  EXPECT_EQ(sim.value(s).to_uint(), 2u);
  EXPECT_EQ(sim.value(b).bit(0), Logic::L0);
}

TEST(KernelSemantics, WritesBehindDeferredCallbackWriteKeepFirstTouchOrder) {
  // At 10 ns the delayed write a=1 takes the first delta and a callback's
  // write b=1 waits for the second.  pa, woken by a in the first delta,
  // writes c: that write queues behind b's, so the second delta commits b
  // before c and wakes pb before pc.  The delta loop runs wakeups in commit
  // order (the levelized waves would reorder them by rank).
  Simulator sim;
  sim.set_levelized(false);
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  const SignalId b = sim.create_signal("b", 1, Logic::L0);
  const SignalId c = sim.create_signal("c", 1, Logic::L0);
  std::string order;
  sim.add_process("pa", {a}, [&] { sim.schedule_write(c, sim.value(a).bit(0)); });
  sim.add_process("pb", {b}, [&] { order += 'b'; });
  sim.add_process("pc", {c}, [&] { order += 'c'; });
  sim.initialize();
  order.clear();
  sim.schedule_write(a, Logic::L1, SimTime::from_ns(10));
  sim.schedule_callback(SimTime::from_ns(10),
                        [&] { sim.schedule_write(b, Logic::L1); });
  sim.run_until(SimTime::from_ns(20));
  EXPECT_EQ(order, "bc");
  EXPECT_EQ(sim.value(c).bit(0), Logic::L1);
}

TEST(KernelSemantics, FirstWriteCreatesDriverSlotAndRelevelizes) {
  // A process's first write to a signal it never drove adds a driver slot
  // (a new netlist edge): drivers_of reports it, and the level schedule is
  // rebuilt at the next time point — once, not on later re-writes.
  telemetry::Hub& hub = telemetry::Hub::instance();
  hub.reset();
  hub.enable();
  Simulator sim;
  const SignalId go = sim.create_signal("go", 1, Logic::L0);
  const SignalId y = sim.create_signal("y", 1, Logic::L0);
  const ProcessId p = sim.add_process("p", {go}, [&] {
    if (sim.value(go).bit(0) == Logic::L1) sim.schedule_write(y, Logic::L1);
  });
  sim.schedule_write(go, Logic::L0);  // the external driver slot on go
  sim.initialize();
  const telemetry::Counter& rebuilds = hub.counter("rtl.levelize.rebuilds");
  const auto pulse = [&](std::int64_t ns, Logic v) {
    sim.schedule_write(go, v, SimTime::from_ns(ns) - sim.now());
    sim.run_until(SimTime::from_ns(ns));
  };
  pulse(1, Logic::L0);  // first time point: the elaborated schedule
  EXPECT_EQ(rebuilds.value(), 1u);
  EXPECT_TRUE(sim.drivers_of(y).empty());
  pulse(2, Logic::L1);  // p's first write to y
  EXPECT_EQ(sim.drivers_of(y), (std::vector<ProcessId>{p}));
  ASSERT_NE(sim.driver_value(y, p), nullptr);
  EXPECT_EQ(sim.driver_value(y, p)->bit(0), Logic::L1);
  EXPECT_EQ(sim.value(y).bit(0), Logic::L1);
  EXPECT_EQ(rebuilds.value(), 1u);
  pulse(3, Logic::L0);  // the new edge p -> y is levelized here
  EXPECT_EQ(rebuilds.value(), 2u);
  pulse(4, Logic::L1);  // a re-write adds no edge
  pulse(5, Logic::L0);
  EXPECT_EQ(rebuilds.value(), 2u);
  EXPECT_EQ(sim.drivers_of(y), (std::vector<ProcessId>{p}));
  hub.reset();
}

}  // namespace
}  // namespace castanet::rtl
