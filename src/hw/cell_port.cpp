#include "src/hw/cell_port.hpp"

#include "src/core/error.hpp"
#include "src/hw/cell_bits.hpp"

namespace castanet::hw {

CellPort make_cell_port(rtl::Simulator& sim, const std::string& prefix) {
  // Initial values are set at creation: adding initialization *writes* from
  // a constructor would register a second driver on the net and resolve
  // against the real driving process forever (X).
  CellPort p;
  p.data = rtl::Bus(&sim, sim.create_signal(prefix + ".data", 8,
                                            rtl::Logic::L0));
  p.sync = rtl::Signal(&sim, sim.create_signal(prefix + ".sync", 1,
                                               rtl::Logic::L0));
  p.valid = rtl::Signal(&sim, sim.create_signal(prefix + ".valid", 1,
                                                rtl::Logic::L0));
  return p;
}

// --- CellPortDriver ----------------------------------------------------------

CellPortDriver::CellPortDriver(rtl::Simulator& sim, std::string name,
                               rtl::Signal clk, CellPort port)
    : Module(sim, std::move(name)), clk_(clk), port_(port) {
  bind_port(clk_, rtl::PortDir::kIn, "clk");
  bind_port(port_.data, rtl::PortDir::kOut, 8, "data");
  bind_port(port_.sync, rtl::PortDir::kOut, "sync");
  bind_port(port_.valid, rtl::PortDir::kOut, "valid");
  pid_ = clocked("drive", clk_, [this] { on_clk(); });
}

void CellPortDriver::enqueue(const atm::Cell& c) {
  enqueue_bytes(c.to_bytes());
}

void CellPortDriver::enqueue_bytes(
    const std::array<std::uint8_t, atm::kCellBytes>& bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // The queue lives outside the signal world, so no wake signal can re-arm
  // the driver after it gates on an empty buffer — re-arm it explicitly.
  sim().wake_process(pid_);
}

void CellPortDriver::on_clk() {
  if (buffer_.empty()) {
    port_.valid.write(rtl::Logic::L0);
    port_.sync.write(rtl::Logic::L0);
    phase_ = 0;
    gate();  // nothing queued: sleep until enqueue_bytes() wakes us
    return;
  }
  const std::uint8_t b = buffer_.front();
  buffer_.pop_front();
  port_.data.write_uint(b);
  port_.valid.write(rtl::Logic::L1);
  port_.sync.write(phase_ == 0 ? rtl::Logic::L1 : rtl::Logic::L0);
  ++phase_;
  if (phase_ == atm::kCellBytes) {
    phase_ = 0;
    ++cells_driven_;
  }
}

// --- CellPortMonitor ---------------------------------------------------------

CellPortMonitor::CellPortMonitor(rtl::Simulator& sim, std::string name,
                                 rtl::Signal clk, CellPort port,
                                 bool check_hec)
    : Module(sim, std::move(name)), clk_(clk), port_(port),
      check_hec_(check_hec) {
  bind_port(clk_, rtl::PortDir::kIn, "clk");
  bind_port(port_.data, rtl::PortDir::kIn, 8, "data");
  bind_port(port_.sync, rtl::PortDir::kIn, "sync");
  bind_port(port_.valid, rtl::PortDir::kIn, "valid");
  const rtl::ProcessId pid = clocked("observe", clk_, [this] { on_clk(); });
  wake_on(pid, {port_.valid.id()});
}

void CellPortMonitor::on_clk() {
  if (!port_.valid.read_bool()) {
    gate();  // between cells; data/sync are only read while valid is high
    return;
  }
  const bool sync = port_.sync.read_bool();
  if (sync && count_ != 0) {
    // Mid-cell resynchronization: drop the partial cell.
    ++framing_errors_;
    count_ = 0;
  }
  if (!sync && count_ == 0) {
    // Valid octet outside any cell frame: framing error, skip.
    ++framing_errors_;
    return;
  }
  shift_[count_++] = bits_to_byte(port_.data.read());
  if (count_ < atm::kCellBytes) return;
  count_ = 0;
  try {
    atm::Cell c = atm::Cell::from_bytes(shift_.data(), check_hec_);
    cells_.push_back(c);
    if (callback_) callback_(c);
  } catch (const ProtocolError&) {
    ++hec_discards_;
  }
}

}  // namespace castanet::hw
