#include "src/rtl/module.hpp"

#include "src/core/error.hpp"

namespace castanet::rtl {

ClockGen::ClockGen(Simulator& sim, Signal clk, SimTime period, SimTime phase)
    : sim_(&sim), period_(period) {
  require(period > SimTime::zero(), "ClockGen: period must be positive");
  clk.write(Logic::L0);
  id_ = sim.add_clock(clk.id(), period, phase);
}

}  // namespace castanet::rtl
