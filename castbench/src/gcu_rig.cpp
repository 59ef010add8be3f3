#include "src/gcu_rig.hpp"

#include <string>

#include "src/hw/cell_bits.hpp"
#include "src/probe.hpp"

namespace castbench {

using namespace castanet;

namespace {

const SimTime kClk = clock_period_hz(20'000'000);

std::vector<hw::GlobalControlUnit::InputIf> make_inputs(rtl::Simulator& hdl) {
  std::vector<hw::GlobalControlUnit::InputIf> ifs;
  for (std::size_t p = 0; p < GcuRig::kPorts; ++p) {
    const std::string nm = "req" + std::to_string(p);
    hw::GlobalControlUnit::InputIf f;
    f.req = rtl::Signal(&hdl, hdl.create_signal(nm, 1, rtl::Logic::L0));
    f.dest = rtl::Bus(&hdl, hdl.create_signal(nm + ".dest", 4, rtl::Logic::L0));
    f.cell = rtl::Bus(&hdl, hdl.create_signal(nm + ".cell", hw::kCellBits,
                                              rtl::Logic::L0));
    ifs.push_back(f);
  }
  return ifs;
}

cosim::ConservativeSync::Params sync_params() {
  cosim::ConservativeSync::Params sync;
  sync.policy = cosim::SyncPolicy::kGlobalOrder;
  sync.clock_period = kClk;
  return sync;
}

cosim::VerificationSession::Params session_params() {
  cosim::VerificationSession::Params sp;
  sp.clock_period = kClk;
  return sp;
}

}  // namespace

GcuRig::GcuRig()
    : env(net.add_node("env")),
      clk(&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)),
      rst(&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)),
      clock(hdl, clk, kClk),
      ifs(make_inputs(hdl)),
      gcu(hdl, "gcu", clk, rst, ifs),
      ports_ref(kPorts),
      ref(kPorts),
      rtl("rtl", hdl, sync_params()),
      refb("reference", sync_params()),
      session(net, env, kPorts, session_params()),
      ports_(kPorts) {
  hdl.add_process("harness", {clk.id()}, [this] { on_clock(); });
  session.attach(rtl);   // primary
  session.attach(refb);  // checked against the primary per output stream
  for (std::size_t p = 0; p < kPorts; ++p) {
    const atm::VcId in{1, static_cast<std::uint16_t>(100 + p)};
    const atm::Route route{static_cast<std::uint8_t>((p + 1) % kPorts),
                           {2, static_cast<std::uint16_t>(200 + p)},
                           {}};
    ports_ref.table(p).install(in, route);
    ref.table(p).install(in, route);
    // §3.2 input mapping of the hybrid: the abstracted port module
    // translates the header and queues a head-of-line request.
    rtl.entity().register_input(
        static_cast<cosim::MessageType>(p), 2,
        [this, p](const cosim::TimedMessage& m) {
          probe(kSpanMapIn, [&] {
            if (const auto routed = ports_ref.route(p, *m.cell)) {
              ports_[p].pending.emplace_back(
                  routed->cell, static_cast<std::uint8_t>(routed->out_port));
            }
          });
        });
    refb.register_input(
        static_cast<cosim::MessageType>(p), 1,
        [this, p](const cosim::TimedMessage& m) {
          probe(kSpanRef, [&] {
            if (const auto routed = ref.route(p, *m.cell)) {
              refb.respond(static_cast<cosim::MessageType>(routed->out_port),
                           m.timestamp, routed->cell);
            }
          });
        });
  }
  session.set_response_handler([](const cosim::TimedMessage&) {});
}

void GcuRig::on_clock() {
  if (!clk.rose()) return;
  for (std::size_t p = 0; p < kPorts; ++p) {
    PortState& st = ports_[p];
    if (gcu.grant(p).read_bool()) {
      // The GCU forwarded the cell on the edge that raised the grant; the
      // output stage it chose still holds it.
      probe(kSpanMonitor, [&] {
        const auto& [cell, dest] = st.pending.front();
        const bool forwarded = gcu.out_valid(dest).read_bool() &&
                               gcu.out_cell(dest).read().is_defined();
        const atm::Cell out =
            forwarded ? hw::bits_to_cell(gcu.out_cell(dest).read()) : cell;
        if (!forwarded || !(out == cell)) ++grant_mismatches_;
        rtl.entity().send_cell_response(static_cast<cosim::MessageType>(dest),
                                        out);
      });
      st.pending.pop_front();
      st.in_flight = false;
      st.cooldown = 1;
      ifs[p].req.write(rtl::Logic::L0);
      ++delivered_;
      continue;
    }
    if (st.cooldown > 0) {
      --st.cooldown;
      continue;
    }
    if (!st.pending.empty() && !st.in_flight) {
      ifs[p].cell.write(hw::cell_to_bits(st.pending.front().first));
      ifs[p].dest.write_uint(st.pending.front().second);
      ifs[p].req.write(rtl::Logic::L1);
      st.in_flight = true;
    }
  }
}

}  // namespace castbench
