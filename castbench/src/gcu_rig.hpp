// Experiment E1's configuration C on VerificationSession: only the global
// control unit is RTL; the four port modules are abstracted into a
// cell-level harness (header translation through a SwitchRef, a
// head-of-line request/grant handshake per port).  A second, independent
// SwitchRef behind a ReferenceBackend checks every granted cell through the
// session comparator, and the harness checks that the GCU forwarded each
// granted cell unchanged to the output the reference routed it to.
//
// Construction order follows E1's configuration C (signals, clock, request
// interfaces, GCU, harness process, then the coupling), so the kernel's
// process IDs and therefore its activation counts are the same.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/castanet/backend.hpp"
#include "src/castanet/session.hpp"
#include "src/hw/gcu.hpp"
#include "src/hw/reference.hpp"
#include "src/netsim/simulation.hpp"

namespace castbench {

class GcuRig {
 public:
  static constexpr std::size_t kPorts = 4;

  GcuRig();

  castanet::netsim::Simulation net;
  castanet::netsim::Node& env;
  castanet::rtl::Simulator hdl;
  castanet::rtl::Signal clk;
  castanet::rtl::Signal rst;
  castanet::rtl::ClockGen clock;
  std::vector<castanet::hw::GlobalControlUnit::InputIf> ifs;
  castanet::hw::GlobalControlUnit gcu;
  /// The abstracted port modules' header translation (RTL side).
  castanet::hw::SwitchRef ports_ref;
  /// The checking backend's own reference model.
  castanet::hw::SwitchRef ref;
  castanet::cosim::RtlBackend rtl;
  castanet::cosim::ReferenceBackend refb;
  castanet::cosim::VerificationSession session;

  std::uint64_t delivered() const { return delivered_; }
  /// Grants whose forwarded cell was missing from, or differed on, the
  /// output the reference routed it to.
  std::uint64_t grant_mismatches() const { return grant_mismatches_; }

 private:
  struct PortState {
    std::deque<std::pair<castanet::atm::Cell, std::uint8_t>> pending;
    bool in_flight = false;
    unsigned cooldown = 0;
  };
  void on_clock();

  std::vector<PortState> ports_;
  std::uint64_t delivered_ = 0;
  std::uint64_t grant_mismatches_ = 0;
};

}  // namespace castbench
