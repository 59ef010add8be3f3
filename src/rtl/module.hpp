// Structural layer on top of the kernel: typed signal handles, modules with
// named local signals, clocked-process helpers, and a free-running clock
// generator.  Hardware models in src/hw are written against this API the way
// the paper's DUTs are written as VHDL entities with processes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/rtl/simulator.hpp"

namespace castanet::rtl {

/// Handle to a scalar (width-1) signal.
class Signal {
 public:
  Signal() = default;
  Signal(Simulator* sim, SignalId id) : sim_(sim), id_(id) {}

  Logic read() const { return sim_->value(id_).bit(0); }
  bool read_bool(bool fallback = false) const {
    return to_bool(read(), fallback);
  }
  void write(Logic v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, v, delay);
  }
  void write(bool b, SimTime delay = SimTime::zero()) const {
    write(from_bool(b), delay);
  }
  bool event() const { return sim_->event(id_); }
  bool rose() const { return sim_->rose(id_); }
  bool fell() const { return sim_->fell(id_); }

  SignalId id() const { return id_; }
  bool valid() const { return sim_ != nullptr; }

 private:
  Simulator* sim_ = nullptr;
  SignalId id_ = 0;
};

/// Handle to a vector signal.
class Bus {
 public:
  Bus() = default;
  Bus(Simulator* sim, SignalId id) : sim_(sim), id_(id) {}

  const LogicVector& read() const { return sim_->value(id_); }
  /// Throws LogicError when any bit is undefined (X-propagation guard).
  std::uint64_t read_uint() const { return read().to_uint(); }
  void write(const LogicVector& v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, v, delay);
  }
  /// Hands a temporary's storage to the kernel instead of copying it (one
  /// heap block saved per write of a bus wider than 64 bits).
  void write(LogicVector&& v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, std::move(v), delay);
  }
  void write_uint(std::uint64_t v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write_uint(id_, v, delay);
  }
  /// Releases this process's contribution to a resolved bus (drives all-Z).
  void release(SimTime delay = SimTime::zero()) const {
    sim_->schedule_release(id_, delay);
  }
  bool event() const { return sim_->event(id_); }
  std::size_t width() const { return sim_->width(id_); }

  SignalId id() const { return id_; }
  bool valid() const { return sim_ != nullptr; }

 private:
  Simulator* sim_ = nullptr;
  SignalId id_ = 0;
};

/// Base class for hardware entities.  A Module creates its local signals and
/// processes with hierarchical names ("switch.port0.rx_state").
class Module {
 public:
  Module(Simulator& sim, std::string name)
      : sim_(&sim), name_(std::move(name)) {}
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

 protected:
  Simulator& sim() const { return *sim_; }

  Signal make_signal(const std::string& local, Logic init = Logic::U) {
    return Signal(sim_, sim_->create_signal(name_ + "." + local, 1, init));
  }
  Bus make_bus(const std::string& local, std::size_t width,
               Logic init = Logic::U) {
    return Bus(sim_, sim_->create_signal(name_ + "." + local, width, init));
  }

  /// Declares this module's expectation about a signal it was handed at
  /// construction (a "port binding"): direction and the width its logic
  /// assumes.  Purely descriptive — the static netlist analyzers
  /// (src/lint) cross-check the expectations against the elaborated
  /// signals; recording one never changes simulation behavior.
  void bind_port(const Bus& b, PortDir dir, std::size_t expected_width,
                 const std::string& local) {
    if (b.valid()) {
      sim_->declare_port_binding(b.id(), dir, expected_width,
                                 name_ + "." + local);
    }
  }
  void bind_port(const Signal& s, PortDir dir, const std::string& local) {
    if (s.valid()) {
      sim_->declare_port_binding(s.id(), dir, 1, name_ + "." + local);
    }
  }

  /// Registers a process sensitive to `sensitivity`.
  ProcessId process(const std::string& local,
                    std::vector<SignalId> sensitivity, SmallFn fn) {
    return sim_->add_process(name_ + "." + local, std::move(sensitivity),
                             std::move(fn));
  }
  /// Declares the signals whose value change re-arms a self-gated process
  /// (Simulator::set_wake_signals); call once at construction, after the
  /// process is registered.
  void wake_on(ProcessId pid, std::vector<SignalId> sigs) {
    sim_->set_wake_signals(pid, sigs);
  }
  /// Suppresses future wakeups of the running process until a declared wake
  /// signal changes (Simulator::gate_current_process).  Call only where the
  /// remaining behavior is a pure function of the wake set — see the
  /// soundness contract on the kernel API.
  void gate() { sim_->gate_current_process(); }

  /// Declares that `pid`'s body (or a branch of it) executes only while
  /// `cond` reads active (Simulator::declare_guard).  Descriptive analysis
  /// metadata like bind_port: the lint dataflow rules prove guards dead
  /// (DF-DEAD-BRANCH) or cross-domain (DF-RESET); recording one never
  /// changes simulation behavior.
  void guard_on(ProcessId pid, const Signal& cond, bool active_high,
                GuardKind kind, const std::string& local) {
    if (cond.valid()) {
      sim_->declare_guard(pid, cond.id(), active_high, kind,
                          name_ + "." + local);
    }
  }
  /// Declares a state machine: `state` register, its `next`-state signal
  /// and the legal encodings (Simulator::declare_fsm; consumed by the
  /// DF-UNREACHABLE-STATE dataflow rule).  Descriptive only.
  void fsm_on(const Bus& state, const Bus& next,
              std::vector<LogicVector> states, const std::string& local) {
    if (state.valid() && next.valid()) {
      sim_->declare_fsm(state.id(), next.id(), std::move(states),
                        name_ + "." + local);
    }
  }

  /// Registers a process that runs `fn` on every rising edge of `clk`.
  /// The sensitivity entry is edge-restricted so the kernel never wakes the
  /// process on the falling edge; the rose() guard stays for the
  /// initialization run, where every process executes once unconditionally.
  /// `fn` is captured by value next to the clock handle, so a small body is
  /// called without a second type-erased hop.
  template <typename F>
  ProcessId clocked(const std::string& local, const Signal& clk, F fn) {
    Signal c = clk;
    const ProcessId pid =
        process(local, {clk.id()}, [c, fn = std::move(fn)]() mutable {
          if (c.rose()) fn();
        });
    sim_->restrict_sensitivity_to_rising(pid, clk.id());
    return pid;
  }

 private:
  Simulator* sim_;
  std::string name_;
};

/// Free-running clock generator: rising edge at phase, period thereafter.
/// Drives `clk` to '0' at construction and registers a kernel clock
/// (Simulator::add_clock) for the edges.
class ClockGen {
 public:
  ClockGen(Simulator& sim, Signal clk, SimTime period,
           SimTime phase = SimTime::zero());

  std::uint64_t rising_edges() const { return sim_->clock_rising_edges(id_); }
  SimTime period() const { return period_; }
  /// Simulator::stop_clock: an edge due at now() that the kernel has
  /// already issued (a callback at an edge instant runs after it) is still
  /// applied and counted in rising_edges().
  void stop() { sim_->stop_clock(id_); }

 private:
  Simulator* sim_;
  SimTime period_;
  ClockId id_ = 0;
};

}  // namespace castanet::rtl
