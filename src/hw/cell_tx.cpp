#include "src/hw/cell_tx.hpp"

#include "src/hw/cell_bits.hpp"

namespace castanet::hw {

CellTransmitter::CellTransmitter(rtl::Simulator& sim, std::string name,
                                 rtl::Signal clk, rtl::Signal rst,
                                 CellPort out, bool insert_idle)
    : Module(sim, std::move(name)), clk_(clk), rst_(rst), out_(out),
      insert_idle_(insert_idle) {
  cell_in = make_bus("cell_in", kCellBits);
  send = make_signal("send", rtl::Logic::L0);
  ready = make_signal("ready", rtl::Logic::L1);
  const rtl::ProcessId pid = clocked("tx", clk_, [this] { on_clk(); });
  wake_on(pid, {rst_.id(), send.id()});
}

void CellTransmitter::on_clk() {
  if (rst_.read_bool()) {
    busy_ = false;
    index_ = 0;
    ready.write(rtl::Logic::L1);
    out_.valid.write(rtl::Logic::L0);
    out_.sync.write(rtl::Logic::L0);
    return;
  }

  if (!busy_) {
    if (send.read_bool()) {
      const atm::Cell c = bits_to_cell(cell_in.read(), false);
      const auto bytes = c.to_bytes();
      std::copy(bytes.begin(), bytes.end(), buffer_.begin());
      busy_ = true;
      sending_idle_ = false;
      index_ = 0;
    } else if (insert_idle_) {
      const auto bytes = atm::make_idle_cell().to_bytes();
      std::copy(bytes.begin(), bytes.end(), buffer_.begin());
      busy_ = true;
      sending_idle_ = true;
      index_ = 0;
    }
  }

  if (!busy_) {
    out_.valid.write(rtl::Logic::L0);
    out_.sync.write(rtl::Logic::L0);
    ready.write(rtl::Logic::L1);
    // Reached only with send low and idle insertion off: the lane stays
    // silent until send (or rst) changes.
    gate();
    return;
  }

  out_.data.write_uint(buffer_[index_]);
  out_.sync.write(index_ == 0 ? rtl::Logic::L1 : rtl::Logic::L0);
  out_.valid.write(rtl::Logic::L1);
  ++index_;
  if (index_ == atm::kCellBytes) {
    busy_ = false;
    index_ = 0;
    if (sending_idle_) {
      ++idle_sent_;
    } else {
      ++cells_sent_;
    }
  }
  // Ready for a new cell on the clock where the last octet goes out.
  ready.write(busy_ ? rtl::Logic::L0 : rtl::Logic::L1);
}

}  // namespace castanet::hw
