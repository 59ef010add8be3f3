// Randomized timeline test of the kernel's future-activity queue, aimed at
// the shapes the co-verification workloads never produce: many time points
// pending at once, schedules landing in the middle of the pending list,
// same-time schedules that must share one time point, zero-delay callbacks
// scheduled from inside a callback (a new time point at the same time) and
// run_until limits that are stale or fall between pending points.
//
// Each scenario drives the kernel with external writes, callbacks and
// kernel clocks — started and stopped between rounds, with periods whose
// edges land on the same instants as callbacks and delayed writes — and
// replays the same script on an in-test reference model of the kernel's
// transport-delay semantics: a std::map of time points, each with its
// writes and callbacks in schedule order, and clock edges written ahead of
// a point's callbacks.  The change-observer log, the callback log,
// next_activity() after every run_until, each clock's rising-edge count and
// the kernel statistics must match the model exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/core/rng.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::rtl {
namespace {

/// One scheduled action: a write of `value` to `sig`, or the callback
/// `callback`, `delay` after the time it is issued.
struct Op {
  bool is_write = true;
  SimTime delay;
  SignalId sig = 0;
  LogicVector value;
  std::uint32_t callback = 0;
};

struct LogEntry {
  SignalId sig;
  std::string value;
  std::int64_t ps;
  bool operator==(const LogEntry&) const = default;
};

struct CallbackRun {
  std::uint32_t id;
  std::int64_t ps;
  bool operator==(const CallbackRun&) const = default;
};

/// Signal widths of every scenario: scalars (the zero-delay fast path),
/// in-object words and one heap-backed wide bus.
const std::vector<std::size_t> kWidths = {1, 1, 1, 8, 8, 100};

/// A kernel clock of the scenario, on its own scalar signal (created after
/// the kWidths signals, in clock order).  It is registered at the start of
/// round `start` and, unless `stop` is negative, stopped at the start of
/// round `stop`.
struct ClockPlan {
  int start = 0;
  int stop = -1;
  SimTime period;
  SimTime phase;
};

/// The scenario: top-level rounds of schedules and run_until limits, the
/// script each callback executes when it fires, and the clocks.
struct Scenario {
  struct Round {
    std::vector<Op> ops;  ///< issued from outside any process
    SimTime limit;        ///< run_until target, possibly stale
  };
  std::vector<Round> rounds;
  std::vector<std::vector<Op>> scripts;  ///< indexed by callback id
  std::vector<ClockPlan> clocks;
};

class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::uint64_t seed) : rng_(seed) {}

  Scenario build() {
    SimTime horizon = SimTime::zero();
    for (int r = 0; r < 40; ++r) {
      Scenario::Round round;
      const int n = r == 0 ? 150 : static_cast<int>(rng_.uniform_int(0, 12));
      for (int i = 0; i < n; ++i) round.ops.push_back(make_op(0));
      // Mostly advancing limits; some stale ones (before the time already
      // reached) and some that repeat the previous limit.
      const std::uint64_t pick = rng_.uniform_int(0, 9);
      if (pick == 0 && horizon > SimTime::from_ns(50)) {
        round.limit = horizon - SimTime::from_ns(
                                    static_cast<std::int64_t>(
                                        rng_.uniform_int(1, 50)));
      } else if (pick == 1) {
        round.limit = horizon;
      } else {
        horizon += delay();
        round.limit = horizon;
      }
      scenario_.rounds.push_back(std::move(round));
    }
    scenario_.rounds.push_back({{}, SimTime::from_us(100)});
    // Edges on the 5 ns grid of the clustered delays: a free-running clock
    // from time 0, one started late and stopped again, and one with an odd
    // period (3.5 ns high and low) off that grid.
    const auto round = [&](int lo, int hi) {
      return static_cast<int>(rng_.uniform_int(static_cast<std::uint64_t>(lo),
                                                static_cast<std::uint64_t>(hi)));
    };
    scenario_.clocks.push_back(
        {0, -1, SimTime::from_ns(10), SimTime::zero()});
    scenario_.clocks.push_back(
        {round(2, 10), round(15, 30), SimTime::from_ns(20),
         SimTime::from_ns(static_cast<std::int64_t>(5 * round(0, 3)))});
    scenario_.clocks.push_back(
        {round(5, 20), -1, SimTime::from_ns(7), SimTime::from_ps(round(0, 999))});
    return std::move(scenario_);
  }

 private:
  /// Delays cluster on a few values so schedules coincide, with a wide
  /// tail of distinct ones so many time points are pending at once.
  SimTime delay() {
    const std::uint64_t pick = rng_.uniform_int(0, 9);
    if (pick < 2) return SimTime::zero();
    if (pick < 5) {
      return SimTime::from_ns(static_cast<std::int64_t>(
          rng_.uniform_int(1, 4) * 5));
    }
    return SimTime::from_ps(static_cast<std::int64_t>(
        rng_.uniform_int(1, 400'000)));
  }

  Logic logic() {
    const std::uint64_t v = rng_.uniform_int(0, 5);
    return v < 3 ? Logic::L0 : v < 5 ? Logic::L1 : Logic::X;
  }

  Op make_op(int depth) {
    Op op;
    op.delay = delay();
    op.is_write = depth >= 3 || rng_.uniform_int(0, 2) != 0;
    if (op.is_write) {
      op.sig = static_cast<SignalId>(rng_.uniform_int(0, kWidths.size() - 1));
      // Alternating two bit values gives few distinct vectors, so repeated
      // writes often change nothing.
      const Logic even = logic(), odd = logic();
      op.value = LogicVector(kWidths[op.sig], Logic::L0);
      for (std::size_t b = 0; b < op.value.width(); ++b) {
        op.value.set_bit(b, b % 2 == 0 ? even : odd);
      }
      return op;
    }
    op.callback = static_cast<std::uint32_t>(scenario_.scripts.size());
    scenario_.scripts.emplace_back();
    std::vector<Op> script;
    const std::uint64_t n = rng_.uniform_int(0, 3);
    for (std::uint64_t i = 0; i < n; ++i) script.push_back(make_op(depth + 1));
    scenario_.scripts[op.callback] = std::move(script);
    return op;
  }

  Rng rng_;
  Scenario scenario_;
};

/// What one run produces; compared field by field between kernel and model.
struct Trace {
  std::vector<LogEntry> changes;
  std::vector<CallbackRun> callbacks;
  std::vector<std::int64_t> next_activity;  ///< after every run_until
  std::vector<std::uint64_t> rising_edges;   ///< per clock, at the end
  /// Model only: clock edges sharing a time point with delayed writes, and
  /// with callbacks (the scenario must reach both orderings).
  std::uint64_t edges_with_writes = 0;
  std::uint64_t edges_with_callbacks = 0;
  std::uint64_t time_points = 0;
  std::uint64_t delta_cycles = 0;
  std::uint64_t transactions = 0;
  std::uint64_t value_changes = 0;
};

/// Runs the scenario on the kernel.
class KernelRun {
 public:
  KernelRun(const Scenario& sc, bool levelized) : sc_(sc) {
    sim_.set_levelized(levelized);
    for (std::size_t i = 0; i < kWidths.size(); ++i) {
      sim_.create_signal(std::string("s").append(std::to_string(i)), kWidths[i],
                         Logic::U);
    }
    for (std::size_t c = 0; c < sc_.clocks.size(); ++c) {
      sim_.create_signal(std::string("clk").append(std::to_string(c)), 1,
                         Logic::U);
    }
    sim_.add_change_observer(
        [this](SignalId s, const LogicVector& v, SimTime t) {
          trace_.changes.push_back({s, v.to_string(), t.ps()});
        });
  }

  Trace run() {
    std::vector<ClockId> ids(sc_.clocks.size());
    for (int r = 0; r < static_cast<int>(sc_.rounds.size()); ++r) {
      for (std::size_t c = 0; c < sc_.clocks.size(); ++c) {
        const ClockPlan& plan = sc_.clocks[c];
        if (plan.start == r) {
          ids[c] = sim_.add_clock(static_cast<SignalId>(kWidths.size() + c),
                                  plan.period, plan.phase);
        }
        if (plan.stop == r) sim_.stop_clock(ids[c]);
      }
      const Scenario::Round& round = sc_.rounds[static_cast<std::size_t>(r)];
      for (const Op& op : round.ops) issue(op);
      sim_.run_until(round.limit);
      const SimTime next = sim_.next_activity();
      trace_.next_activity.push_back(next.ps());
    }
    for (ClockId id : ids) {
      trace_.rising_edges.push_back(sim_.clock_rising_edges(id));
    }
    const KernelStats& st = sim_.stats();
    trace_.time_points = st.time_points;
    trace_.delta_cycles = st.delta_cycles;
    trace_.transactions = st.transactions;
    trace_.value_changes = st.value_changes;
    return std::move(trace_);
  }

 private:
  void issue(const Op& op) {
    if (!op.is_write) {
      sim_.schedule_callback(op.delay, [this, id = op.callback] {
        trace_.callbacks.push_back({id, sim_.now().ps()});
        for (const Op& child : sc_.scripts[id]) issue(child);
      });
    } else if (op.value.width() == 1) {
      sim_.schedule_write(op.sig, op.value.bit(0), op.delay);
    } else {
      sim_.schedule_write(op.sig, op.value, op.delay);
    }
  }

  const Scenario& sc_;
  Simulator sim_;
  Trace trace_;
};

/// The reference model: transport-delay semantics with one external driver
/// per signal, spelled out with a std::map of time points.
class ModelRun {
 public:
  explicit ModelRun(const Scenario& sc) : sc_(sc) {
    for (std::size_t w : kWidths) {
      signals_.push_back({LogicVector(w, Logic::U), std::nullopt});
    }
    for (std::size_t c = 0; c < sc_.clocks.size(); ++c) {
      signals_.push_back({LogicVector(1, Logic::U), std::nullopt});
      clocks_.emplace_back().sig = static_cast<SignalId>(kWidths.size() + c);
    }
  }

  Trace run() {
    for (int r = 0; r < static_cast<int>(sc_.rounds.size()); ++r) {
      for (std::size_t c = 0; c < sc_.clocks.size(); ++c) {
        const ClockPlan& plan = sc_.clocks[c];
        if (plan.start == r) {
          clocks_[c].running = true;
          clocks_[c].next = now_ + plan.phase;
        }
        if (plan.stop == r) clocks_[c].running = false;
      }
      const Scenario::Round& round = sc_.rounds[static_cast<std::size_t>(r)];
      for (const Op& op : round.ops) issue(op);
      run_until(round.limit);
      trace_.next_activity.push_back(next_activity().ps());
    }
    for (const ClockModel& c : clocks_) {
      trace_.rising_edges.push_back(c.rising_edges);
    }
    return std::move(trace_);
  }

 private:
  struct Write {
    SignalId sig;
    LogicVector value;
  };
  /// Everything scheduled for one time point, in schedule order.
  struct Point {
    std::vector<Write> writes;
    std::vector<std::uint32_t> callbacks;
  };
  struct SignalModel {
    LogicVector effective;
    std::optional<LogicVector> driver;  ///< unset until the first write
  };
  struct ClockModel {
    SignalId sig;
    bool running = false;
    bool rising = true;  ///< the next edge rises
    SimTime next;
    std::uint64_t rising_edges = 0;
  };

  void issue(const Op& op) {
    if (op.delay == SimTime::zero() && op.is_write) {
      next_delta_.push_back({op.sig, op.value});
      return;
    }
    // A time point already popped is gone from the map, so a zero-delay
    // callback issued while one runs opens a new point at the same time.
    Point& p = points_[(now_ + op.delay).ps()];
    if (op.is_write) {
      p.writes.push_back({op.sig, op.value});
    } else {
      p.callbacks.push_back(op.callback);
    }
  }

  SimTime next_activity() const {
    if (!next_delta_.empty()) return now_;
    SimTime t = points_.empty() ? SimTime::max()
                                : SimTime::from_ps(points_.begin()->first);
    for (const ClockModel& c : clocks_) {
      if (c.running) t = std::min(t, c.next);
    }
    return t;
  }

  void run_until(SimTime limit) {
    if (limit < now_) return;
    while (next_activity() <= limit) step();
    now_ = limit;
  }

  void step() {
    now_ = next_activity();
    ++trace_.time_points;
    std::vector<Write> batch;
    std::vector<std::uint32_t> callbacks;
    if (!points_.empty() && points_.begin()->first == now_.ps()) {
      batch = std::move(points_.begin()->second.writes);
      callbacks = std::move(points_.begin()->second.callbacks);
      points_.erase(points_.begin());
    }
    // Clock edges, then callbacks; their zero-delay writes form the delta
    // after the point's own writes.  A rising edge lasts half the period
    // (rounded down), the falling edge the rest.
    for (std::size_t c = 0; c < clocks_.size(); ++c) {
      ClockModel& clk = clocks_[c];
      if (!clk.running || clk.next != now_) continue;
      if (!batch.empty()) ++trace_.edges_with_writes;
      if (!callbacks.empty()) ++trace_.edges_with_callbacks;
      const std::int64_t period = sc_.clocks[c].period.ps();
      next_delta_.push_back(
          {clk.sig, LogicVector(1, clk.rising ? Logic::L1 : Logic::L0)});
      clk.next += SimTime::from_ps(clk.rising ? period / 2
                                              : period - period / 2);
      if (clk.rising) ++clk.rising_edges;
      clk.rising = !clk.rising;
    }
    for (std::uint32_t id : callbacks) {
      trace_.callbacks.push_back({id, now_.ps()});
      for (const Op& child : sc_.scripts[id]) issue(child);
    }
    if (batch.empty()) batch.swap(next_delta_);
    while (!batch.empty()) {
      delta(batch);
      batch.clear();
      batch.swap(next_delta_);
    }
  }

  /// One delta: every write replaces its signal's driver value; each
  /// signal whose driver changed is then committed, in first-change order,
  /// and logged if its value changed.
  void delta(const std::vector<Write>& batch) {
    ++trace_.delta_cycles;
    std::vector<SignalId> dirty;
    for (const Write& w : batch) {
      ++trace_.transactions;
      SignalModel& s = signals_[w.sig];
      if (s.driver && *s.driver == w.value) continue;
      s.driver = w.value;
      bool seen = false;
      for (SignalId d : dirty) seen = seen || d == w.sig;
      if (!seen) dirty.push_back(w.sig);
    }
    for (SignalId sig : dirty) {
      SignalModel& s = signals_[sig];
      if (*s.driver == s.effective) continue;
      s.effective = *s.driver;
      ++trace_.value_changes;
      trace_.changes.push_back({sig, s.effective.to_string(), now_.ps()});
    }
  }

  const Scenario& sc_;
  SimTime now_ = SimTime::zero();
  std::map<std::int64_t, Point> points_;
  std::vector<Write> next_delta_;
  std::vector<SignalModel> signals_;
  std::vector<ClockModel> clocks_;
  Trace trace_;
};

void expect_same(const Trace& kernel, const Trace& model) {
  ASSERT_EQ(kernel.changes.size(), model.changes.size());
  for (std::size_t i = 0; i < model.changes.size(); ++i) {
    ASSERT_EQ(kernel.changes[i], model.changes[i])
        << "change #" << i << ": model has signal " << model.changes[i].sig
        << " -> " << model.changes[i].value << " at "
        << model.changes[i].ps << " ps";
  }
  EXPECT_EQ(kernel.callbacks, model.callbacks);
  EXPECT_EQ(kernel.next_activity, model.next_activity);
  EXPECT_EQ(kernel.rising_edges, model.rising_edges);
  EXPECT_EQ(kernel.time_points, model.time_points);
  EXPECT_EQ(kernel.delta_cycles, model.delta_cycles);
  EXPECT_EQ(kernel.transactions, model.transactions);
  EXPECT_EQ(kernel.value_changes, model.value_changes);
}

class KernelTimeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelTimeline, MatchesTransportDelayModel) {
  const Scenario sc = ScenarioBuilder(GetParam()).build();
  const Trace model = ModelRun(sc).run();
  // The scenario must reach the shapes it exists for.
  ASSERT_GT(model.callbacks.size(), 50u);
  ASSERT_GT(model.changes.size(), 100u);
  ASSERT_GT(model.rising_edges.at(1), 0u);
  ASSERT_GT(model.edges_with_writes, 0u);
  ASSERT_GT(model.edges_with_callbacks, 0u);
  for (bool levelized : {true, false}) {
    SCOPED_TRACE(levelized ? "levelized" : "delta loop");
    expect_same(KernelRun(sc, levelized).run(), model);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTimeline,
                         ::testing::Values(1u, 7u, 2024u));

TEST(KernelTimelineCases, SameTimeSchedulesShareOneTimePoint) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  const SignalId b = sim.create_signal("b", 8, Logic::L0);
  int fired = 0;
  // Interleave with other times so the shared point sits mid-list.
  sim.schedule_write(a, Logic::L1, SimTime::from_ns(30));
  sim.schedule_write(a, Logic::L1, SimTime::from_ns(10));
  sim.schedule_callback(SimTime::from_ns(20), [&] { ++fired; });
  sim.schedule_write(b, LogicVector::from_uint(5, 8), SimTime::from_ns(20));
  sim.schedule_callback(SimTime::from_ns(20), [&] { ++fired; });
  sim.schedule_write(a, Logic::L0, SimTime::from_ns(20));
  sim.run_until(SimTime::from_ns(40));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.stats().time_points, 3u);
  EXPECT_EQ(sim.value(b).to_uint(), 5u);
  EXPECT_EQ(sim.value(a).bit(0), Logic::L1);
}

TEST(KernelTimelineCases, ZeroDelayCallbackFromCallbackIsItsOwnTimePoint) {
  Simulator sim;
  std::vector<std::string> order;
  sim.schedule_callback(SimTime::from_ns(5), [&] {
    order.push_back("outer@" + std::to_string(sim.now().ps()));
    sim.schedule_callback(SimTime::zero(), [&] {
      order.push_back("inner@" + std::to_string(sim.now().ps()));
    });
  });
  sim.schedule_callback(SimTime::from_ns(5), [&] {
    order.push_back("sibling@" + std::to_string(sim.now().ps()));
  });
  sim.run_until(SimTime::from_ns(5));
  EXPECT_EQ(order, (std::vector<std::string>{"outer@5000", "sibling@5000",
                                             "inner@5000"}));
  EXPECT_EQ(sim.stats().time_points, 2u);
  EXPECT_EQ(sim.now(), SimTime::from_ns(5));
  EXPECT_TRUE(sim.quiescent());
}

TEST(KernelTimelineCases, StopFromCallbackAtEdgeInstantKeepsThatEdge) {
  // Edges are issued ahead of a time point's callbacks, so a callback at
  // an edge instant that stops the clock runs after that edge: the edge
  // is still applied and counted, and no later edge follows.
  Simulator sim;
  const SignalId clk = sim.create_signal("clk", 1, Logic::L0);
  const ClockId c = sim.add_clock(clk, SimTime::from_ns(10));
  std::uint64_t edges_seen = 0;
  sim.schedule_callback(SimTime::from_ns(20), [&] {
    edges_seen = sim.clock_rising_edges(c);
    sim.stop_clock(c);
  });
  sim.run_until(SimTime::from_ns(100));
  // Rising edges at 0, 10 and 20 ns; the one at 20 ns precedes the stop.
  EXPECT_EQ(edges_seen, 3u);
  EXPECT_EQ(sim.clock_rising_edges(c), 3u);
  EXPECT_EQ(sim.value(clk).bit(0), Logic::L1);
  EXPECT_TRUE(sim.quiescent());
}

TEST(KernelTimelineCases, StaleLimitIsANoOp) {
  Simulator sim;
  const SignalId a = sim.create_signal("a", 1, Logic::L0);
  sim.schedule_write(a, Logic::L1, SimTime::from_ns(10));
  sim.schedule_write(a, Logic::L0, SimTime::from_ns(30));
  sim.run_until(SimTime::from_ns(20));
  EXPECT_EQ(sim.now(), SimTime::from_ns(20));
  EXPECT_EQ(sim.next_activity(), SimTime::from_ns(30));
  const KernelStats before = sim.stats();
  sim.run_until(SimTime::from_ns(15));
  EXPECT_EQ(sim.now(), SimTime::from_ns(20));
  EXPECT_EQ(sim.stats().time_points, before.time_points);
  EXPECT_EQ(sim.value(a).bit(0), Logic::L1);
  sim.run_until(SimTime::from_ns(30));
  EXPECT_EQ(sim.value(a).bit(0), Logic::L0);
  EXPECT_TRUE(sim.quiescent());
}

}  // namespace
}  // namespace castanet::rtl
