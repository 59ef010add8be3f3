// Randomized oracle for the dataflow engine (DESIGN.md §13): build random
// feed-forward netlists, run the abstract interpreter, then check every
// verdict it is willing to commit to against concrete simulation:
//
//   * every DF-STUCK claim (facts.stuck) must hold under random input
//     valuations drawn from the full nine-valued alphabet — including
//     U/X/Z/W, which the ⊤ abstraction of externally driven pins covers;
//   * every DF-DEAD-BRANCH claim (facts.dead_guards) must correspond to a
//     guard whose active level is never observed by the guarded process.
//
// A single false positive here is an engine soundness bug, not test flake:
// the trials are seeded and deterministic.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/lint/dataflow.hpp"
#include "src/rtl/module.hpp"

namespace castanet::lint {
namespace {

constexpr rtl::Logic kAlphabet[] = {rtl::Logic::L0, rtl::Logic::L1,
                                    rtl::Logic::X,  rtl::Logic::U,
                                    rtl::Logic::Z,  rtl::Logic::W};

struct TrialConfig {
  unsigned seed = 0;
  bool clocked = false;
  bool all_tied = false;  // force a fully-constant netlist
};

void run_trial(const TrialConfig& cfg) {
  SCOPED_TRACE("seed=" + std::to_string(cfg.seed) +
               (cfg.clocked ? " clocked" : "") +
               (cfg.all_tied ? " all_tied" : ""));
  std::mt19937 rng(cfg.seed);
  auto pick = [&](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };

  rtl::Simulator sim;
  std::vector<rtl::SignalId> pool;
  std::vector<rtl::SignalId> external;

  const std::size_t nin = 2 + pick(3);
  for (std::size_t i = 0; i < nin; ++i) {
    const bool tied = cfg.all_tied || pick(10) < 3;
    const rtl::Logic init =
        pick(2) == 0 ? rtl::Logic::L0 : rtl::Logic::L1;
    const auto s =
        sim.create_signal("in" + std::to_string(i), 1,
                          tied ? init : rtl::Logic::L0);
    pool.push_back(s);
    if (!tied) external.push_back(s);
  }

  // Guard-taken counters, one slot per declare_guard() call in order (the
  // index facts.dead_guards reports).  Bodies bump them so the oracle can
  // observe "was the active level ever seen while the process ran".
  std::vector<std::uint64_t> taken(16, 0);
  std::size_t guard_count = 0;

  const std::size_t ngates = 3 + pick(6);
  for (std::size_t g = 0; g < ngates; ++g) {
    const auto out =
        sim.create_signal(std::string("g").append(std::to_string(g)), 1);
    const std::size_t op = pick(5);
    const rtl::SignalId a = pool[pick(pool.size())];
    const rtl::SignalId b = pool[pick(pool.size())];
    rtl::ProcessId pid = 0;
    const std::string name = "gate" + std::to_string(g);
    if (op == 0) {
      pid = sim.add_process(name, {a, b}, [&sim, a, b, out] {
        sim.schedule_write(
            out, rtl::logic_and(sim.value(a).bit(0), sim.value(b).bit(0)));
      });
    } else if (op == 1) {
      pid = sim.add_process(name, {a, b}, [&sim, a, b, out] {
        sim.schedule_write(
            out, rtl::logic_or(sim.value(a).bit(0), sim.value(b).bit(0)));
      });
    } else if (op == 2) {
      pid = sim.add_process(name, {a, b}, [&sim, a, b, out] {
        sim.schedule_write(
            out, rtl::logic_xor(sim.value(a).bit(0), sim.value(b).bit(0)));
      });
    } else if (op == 3) {
      pid = sim.add_process(name, {a}, [&sim, a, out] {
        sim.schedule_write(out, rtl::logic_not(sim.value(a).bit(0)));
      });
    } else {
      // "Lazy" mux: sensitive only to the select, so the probe machinery
      // has to discover the data reads it takes on each arm.
      const rtl::SignalId sel = pool[pick(pool.size())];
      pid = sim.add_process(name, {sel}, [&sim, sel, a, b, out] {
        sim.schedule_write(out,
                           rtl::to_bool(sim.value(sel).bit(0), false)
                               ? sim.value(a).bit(0)
                               : sim.value(b).bit(0));
      });
    }
    if (pick(2) == 0) {
      const bool active_high = pick(2) == 0;
      const std::size_t gi = guard_count++;
      // Observe the guard from a sibling monitor on the same wake set as
      // the guarded process, so counting never perturbs the gate body.
      sim.add_process(name + ".mon", {a}, [&sim, a, active_high, gi, &taken] {
        if (rtl::to_bool(sim.value(a).bit(0), false) == active_high) {
          ++taken[gi];
        }
      });
      sim.declare_guard(pid, a, active_high, rtl::GuardKind::kBranch,
                        "t." + name);
    }
    pool.push_back(out);
  }

  rtl::Signal clk;
  std::unique_ptr<rtl::ClockGen> gen;
  if (cfg.clocked) {
    clk = rtl::Signal(&sim, sim.create_signal("clk", 1, rtl::Logic::L0));
    gen = std::make_unique<rtl::ClockGen>(sim, clk, SimTime::from_ns(50));
    const std::size_t nregs = 1 + pick(2);
    for (std::size_t i = 0; i < nregs; ++i) {
      const rtl::SignalId src = pool[pick(pool.size())];
      const auto q = sim.create_signal(
          std::string("q").append(std::to_string(i)), 1, rtl::Logic::L0);
      const auto pid =
          sim.add_process("reg" + std::to_string(i), {clk.id()},
                          [&sim, clk, src, q] {
                            const rtl::Logic v = sim.value(src).bit(0);
                            if (clk.rose()) sim.schedule_write(q, v);
                          });
      sim.restrict_sensitivity_to_rising(pid, clk.id());
      // Registers are sinks: their outputs stay out of the comb pool.
    }
  }

  sim.set_read_tracking(true);
  sim.initialize();
  for (const rtl::SignalId s : external) {
    sim.schedule_write(s, kAlphabet[pick(2)]);  // start defined: 0/1
  }
  if (cfg.clocked) {
    sim.run_until(SimTime::from_ns(300));  // harvest register drivers
  } else {
    sim.step_time();
  }

  DataflowFacts facts;
  DataflowOptions opts;
  opts.facts = &facts;
  Report report;
  const DataflowStats stats = analyze_dataflow(sim, opts, report);

  // No X machinery may trigger: every net is either tied, externally
  // driven (⊤), or comb/register output.  And with a single clock domain
  // and no FSM declarations, the cone rules stay quiet too.
  for (const Diagnostic& d : report.diagnostics()) {
    EXPECT_TRUE(d.rule == "DF-STUCK" || d.rule == "DF-DEAD-BRANCH")
        << d.rule << " " << d.location << ": " << d.message;
  }

  // The abstract claims are now fixed; hammer them with concrete runs.
  std::fill(taken.begin(), taken.end(), 0);
  for (int round = 0; round < 12; ++round) {
    for (const rtl::SignalId s : external) {
      sim.schedule_write(s, kAlphabet[pick(6)]);
    }
    for (int k = 0; k < 6; ++k) sim.step_time();
    for (const auto& [sig, val] : facts.stuck) {
      EXPECT_EQ(sim.value(sig).to_string(), val.to_string())
          << "DF-STUCK refuted on '" << sim.signal_name(sig)
          << "' in round " << round;
    }
  }
  for (const std::size_t gi : facts.dead_guards) {
    ASSERT_LT(gi, sim.guards().size());
    // Map the guard back to its counter slot: slots were allocated in
    // declaration order, which is exactly guards() order.
    EXPECT_EQ(taken[gi], 0u)
        << "DF-DEAD-BRANCH refuted on guard " << gi << " ('"
        << sim.guards()[gi].label << "')";
  }

  // Sanity: the machinery actually ran (nothing suppressed it).
  EXPECT_GE(stats.fixpoint_passes, 1u);
}

TEST(DataflowOracle, FullyTiedNetlistsAreMostlyConstant) {
  for (unsigned t = 0; t < 4; ++t) {
    run_trial({/*seed=*/900 + t, /*clocked=*/false, /*all_tied=*/true});
  }
}

TEST(DataflowOracle, RandomCombNetlists) {
  for (unsigned t = 0; t < 10; ++t) {
    run_trial({/*seed=*/1000 + t, /*clocked=*/false, /*all_tied=*/false});
  }
}

TEST(DataflowOracle, RandomClockedNetlists) {
  for (unsigned t = 0; t < 6; ++t) {
    run_trial({/*seed=*/2000 + t, /*clocked=*/true, /*all_tied=*/false});
  }
}

}  // namespace
}  // namespace castanet::lint
