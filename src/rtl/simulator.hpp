// Event-driven HDL simulation kernel (the "VHDL simulator" of Fig. 2).
//
// Implements the VHDL simulation cycle: signal transactions are scheduled
// with a (possibly zero) transport delay; at each simulated time point the
// kernel alternates *apply* phases (update signals, detect events) and
// *execute* phases (run processes sensitive to changed signals) — each pair
// is one delta cycle — until quiescent, then advances to the next scheduled
// time.  Multiply-driven signals are resolved per IEEE 1164, which the test
// board needs for bidirectional bus ports (§3.3).
//
// Scheduling structures are built for the traffic the kernel serves.  Free-
// running clocks are kernel-native: each is a period and a phase in a small
// array, merged into next_activity(), and an edge is a zero-delay write
// issued at the start of its time point, ahead of that point's callbacks —
// no callback, bucket or SmallFn per edge.  Future transactions and
// callbacks live in per-time-point buckets, and the pending time points are
// a short vector of pooled bucket ids sorted latest-first, so the earliest
// sits at back(): step_time pops it in O(1) and a schedule scans from the
// back for its time or insertion point.  With the clocks outside it, the
// list never holds more than one time point on the benchmark workloads, so
// the scan needs no heap or hash index (DESIGN.md §7.2), and a popped
// bucket keeps its vectors' capacity on a free list.  Processes and
// callbacks are stored as SmallFn (the network kernel's callable), and
// runnable processes are deduplicated with a delta-generation stamp per
// process instead of sort+unique scans: once warm, a clock cycle allocates
// nothing.
//
// A zero-delay write — the kernel's unit of work — is staged at write time:
// the value goes straight into the writer's driver slot and the signal is
// queued, once, for the next delta's commit (DESIGN.md §7.5).  An identical
// re-write, which modules issue every clock for unchanged outputs, costs one
// compare.  Two rules keep counters and delta semantics those of a queued
// transaction: a re-write still requests the (possibly empty) next delta,
// and while a popped time point's delayed transactions wait for their own
// delta — callbacks run ahead of them — zero-delay writes, and every write
// behind one, travel as Transactions through next_delta_ so they commit one
// delta later in first-touch order.  Writes issued from a change observer
// take the same route, since the delta they were issued in is mid-commit.
// Scalar, <=64-bit and release zero-delay writes into a driver slot the
// writer already owns — every clocked output and test-bench pin write after
// the first — take an inline path in this header; the rest go out of line.
//
// The kernel counts transactions, events, process activations and delta
// cycles; experiment E7 uses these to reproduce the paper's claim that the
// event-driven HDL simulator evaluates an order of magnitude more events
// than the system-level network simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/telemetry.hpp"
#include "src/dsim/small_fn.hpp"
#include "src/dsim/time.hpp"
#include "src/rtl/logic_vector.hpp"

namespace castanet::rtl {

using SignalId = std::uint32_t;
using ProcessId = std::uint32_t;
using ClockId = std::uint32_t;

/// ProcessId used for writes issued from outside any process (test benches,
/// the co-simulation entity).
constexpr ProcessId kExternalProcess = 0;

struct KernelStats {
  std::uint64_t transactions = 0;        ///< signal updates applied
  std::uint64_t value_changes = 0;       ///< updates that changed the value
  std::uint64_t process_activations = 0; ///< process executions
  std::uint64_t delta_cycles = 0;        ///< apply+execute rounds
  std::uint64_t time_points = 0;         ///< distinct times with activity
  std::uint64_t gated_skips = 0;         ///< wakeups suppressed by a gate
  std::uint64_t levelized_points = 0;    ///< time points settled rank-ordered
  std::uint64_t fallback_points = 0;     ///< time points degraded to deltas
};

/// Direction of a declared port binding (module-level contract on a signal,
/// recorded for the static netlist analyzers in src/lint).
enum class PortDir { kIn, kOut, kInOut };

/// What a declared process guard protects: an ordinary enable branch or a
/// reset branch (the distinction feeds the DF-RESET cross-domain rule).
enum class GuardKind { kBranch, kReset };

/// A module's declaration that a process body (or part of it) executes only
/// while a condition signal is active.  Purely descriptive, like
/// PortBinding: recording one never changes simulation; the lint dataflow
/// analysis proves guards dead (DF-DEAD-BRANCH) or cross-domain (DF-RESET).
struct GuardDecl {
  ProcessId pid = 0;
  SignalId sig = 0;
  bool active_high = true;
  GuardKind kind = GuardKind::kBranch;
  std::string label;  ///< "module.process" of the declaring module
};

/// A module's declaration of a finite state machine: the state register
/// signal, the combinational next-state signal feeding it, and the legal
/// state encodings.  Consumed by the DF-UNREACHABLE-STATE dataflow rule.
struct FsmDecl {
  SignalId state = 0;
  SignalId next = 0;
  std::vector<LogicVector> states;
  std::string context;
};

/// A module's declared expectation about a signal it is bound to: the
/// direction it uses the signal in and the width its logic assumes.  Purely
/// descriptive — recording one never changes simulation behavior; the lint
/// netlist analyzers cross-check expectations against the elaborated
/// signals (width mismatches, undriven inputs).
struct PortBinding {
  SignalId sig = 0;
  PortDir dir = PortDir::kIn;
  std::size_t expected_width = 1;
  std::string context;  ///< "module.port" of the declaring module
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- elaboration ------------------------------------------------------
  SignalId create_signal(std::string name, std::size_t width,
                         Logic init = Logic::U);
  ProcessId add_process(std::string name, std::vector<SignalId> sensitivity,
                        SmallFn fn);
  /// Restricts an existing sensitivity entry (process `p` on width-1 signal
  /// `s`) to rising edges: the kernel wakes `p` only when a commit takes bit
  /// 0 from not-'1'/'H' to '1'/'H' (rose() semantics).  Clocked-process
  /// helpers use this so the falling clock edge stops activating processes
  /// whose bodies are rising-edge no-ops; event()/rose()/fell() queries on
  /// `s` are unaffected.
  void restrict_sensitivity_to_rising(ProcessId p, SignalId s);

  // --- activity gating (input-cone clock gating) ------------------------
  // A clocked process whose body is provably a no-op until one of a known
  // set of input signals changes can *gate* itself: the kernel keeps waking
  // it on clock edges but skips the call (counted in stats().gated_skips)
  // until a declared wake signal changes value, wake_process() is called,
  // or the process is re-armed some other way.  Soundness contract for the
  // caller: gate only at a point where every future run, with the wake
  // signals and internal C++ state unchanged, would re-issue exactly the
  // writes already committed (identical re-writes are elided by stage(), so
  // the skipped runs are observationally void).  Declare *every* signal the
  // remaining behavior depends on — a missing wake signal silently freezes
  // the process.
  /// Declares the signals whose value change re-arms `p` after it gates
  /// itself.  Cumulative; duplicates are ignored.
  void set_wake_signals(ProcessId p, const std::vector<SignalId>& sigs);
  /// Called from inside a process body: suppress future wakeups of the
  /// running process until a wake signal changes.  No-op outside a process.
  void gate_current_process();
  /// Explicitly re-arms `p` (e.g. test-bench state pushed into a driver
  /// module between clock edges, invisible to any signal).
  void wake_process(ProcessId p);
  /// True while `p` is gated (introspection for tests/telemetry).
  bool process_gated(ProcessId p) const;

  // --- two-phase evaluation ---------------------------------------------
  /// Levelized two-phase evaluation (DESIGN.md §7.7) is on by default: the
  /// triggering delta of each time point runs generically, then acyclic
  /// combinational wakeups settle in topological-rank order — each process
  /// at most once per wave — while cyclic/latch regions and any dynamic
  /// surprise (sequential wakeup mid-settling, stale rank) degrade the
  /// remainder of the time point to the classic delta loop.  Off: every
  /// time point uses the delta loop.  For processes honouring the
  /// combinational purity contract (compute from value() reads only) the
  /// settled value of every signal at every time point is bit-identical
  /// either way; ranked settling may elide intermediate stale-input glitch
  /// commits *within* a time point (a deferred process runs once with
  /// fresh inputs instead of re-running), so delta-granular change counts
  /// can only shrink, never diverge at settled points.
  void set_levelized(bool on) { levelize_enabled_ = on; }
  bool levelized() const { return levelize_enabled_; }

  std::size_t signal_count() const { return signals_.size(); }
  const std::string& signal_name(SignalId s) const;
  std::size_t width(SignalId s) const;

  // --- netlist introspection (read-only; consumed by src/lint) ----------
  /// Number of process slots, including the reserved external slot 0 (0
  /// until the first add_process).
  std::size_t process_count() const { return processes_.size(); }
  const std::string& process_name(ProcessId p) const;
  /// Processes on `s`'s sensitivity list (static, set at add_process).
  const std::vector<ProcessId>& sensitive_processes(SignalId s) const;
  /// Parallel to sensitive_processes(s): non-zero entries are restricted to
  /// rising edges (see restrict_sensitivity_to_rising).  Consumed by the
  /// levelization pass to separate sequential from combinational wakeups.
  const std::vector<std::uint8_t>& sensitive_rising(SignalId s) const;
  /// Distinct processes that have driven `s` so far (driver slots persist
  /// for the simulator's lifetime; kExternalProcess marks test-bench
  /// writes).  Empty until the driving processes have executed — run
  /// initialize() (and a short settling window for clocked logic) before
  /// structural analysis.
  std::vector<ProcessId> drivers_of(SignalId s) const;
  /// The value contributed by `pid`'s driver slot on `s`, or nullptr if
  /// that process has never driven `s`.
  const LogicVector* driver_value(SignalId s, ProcessId pid) const;

  /// Records a module's port-binding expectation (see PortBinding); the
  /// module helpers in module.hpp call this from constructors.
  void declare_port_binding(SignalId s, PortDir dir,
                            std::size_t expected_width, std::string context);
  const std::vector<PortBinding>& port_bindings() const { return bindings_; }

  /// Opt-in read tracking for the lint dataflow analyses: while enabled,
  /// value() records which process read which signal (the write side is
  /// already captured by driver slots).  Off by default — the hot path pays
  /// only one predictable branch.
  void set_read_tracking(bool on) { read_tracking_ = on; }
  bool read_tracking() const { return read_tracking_; }
  /// Distinct processes observed reading `s` while tracking was enabled.
  const std::vector<ProcessId>& readers_of(SignalId s) const;

  /// Declares a guard on `pid` (see GuardDecl); module helpers call this.
  void declare_guard(ProcessId pid, SignalId sig, bool active_high,
                     GuardKind kind, std::string label);
  const std::vector<GuardDecl>& guards() const { return guard_decls_; }

  /// Declares a state machine (see FsmDecl); module helpers call this.
  void declare_fsm(SignalId state, SignalId next,
                   std::vector<LogicVector> states, std::string context);
  const std::vector<FsmDecl>& fsms() const { return fsm_decls_; }

  // --- analysis sandbox (consumed by lint::analyze_dataflow) ------------
  /// One signal write captured during a probe (the value the process would
  /// have scheduled; the transport delay is irrelevant to the abstraction).
  struct ProbeWrite {
    SignalId sig = 0;
    LogicVector value;
  };
  /// Outcome of one sandboxed execution.  `clean` is false when the body
  /// consulted edge state (event/rose/fell — meaningless under a probe) or
  /// threw: the caller must treat the process's outputs as unknown.
  struct ProbeResult {
    std::vector<ProbeWrite> writes;
    std::vector<SignalId> reads;
    bool clean = true;
  };
  /// Executes process `p` once in a sandbox: scheduled writes are captured
  /// instead of staged, reads are harvested, edge queries answer false (and
  /// mark the result unclean), self-gating is ignored, and no kernel state
  /// or statistic changes.  Only processes honouring the combinational
  /// purity contract (compute from value() reads, no internal C++ state)
  /// yield meaningful results; probing a sequential process additionally
  /// mutates its member state and must be avoided by the caller.
  ProbeResult probe_process(ProcessId p);
  /// Overwrites a signal's effective value directly — no transaction, no
  /// event, no process wakeup.  Analysis-only: callers must restore every
  /// poked signal before simulation resumes.
  void set_value_for_analysis(SignalId s, const LogicVector& v);

  bool initialized() const { return initialized_; }

  /// Opt-in elaboration hook, installed process-wide (e.g. by
  /// lint::install_elaboration_hooks): invoked once per simulator at the
  /// end of initialize(), when the design is fully elaborated and every
  /// process has executed its initialization run.  Install before
  /// elaborating any design and never from a second thread; a throwing
  /// hook propagates out of initialize()/run_until.
  using ElaborationHook = std::function<void(Simulator&)>;
  static void set_elaboration_hook(ElaborationHook hook);

  // --- signal access ----------------------------------------------------
  /// Inline fast path: every read_bool()/read() in module code lands here,
  /// so the common (no read-tracking) case must be two loads.
  const LogicVector& value(SignalId s) const {
    require(s < signals_.size(), "value: unknown signal");
    if (read_tracking_ && current_process_ != kExternalProcess) [[unlikely]] {
      harvest_read(s);
    }
    return signals_[s].effective;
  }
  /// Schedules a transaction on `s` for now+delay, driven by the currently
  /// executing process (or kExternalProcess outside any process).  Transport
  /// delay semantics; delay 0 lands in the next delta cycle (staged into the
  /// driver slot at once, see the file comment).
  void schedule_write(SignalId s, LogicVector v,
                      SimTime delay = SimTime::zero());
  /// Convenience for scalar signals; the zero-delay case compares and sets
  /// bit 0 of the driver slot in place, with no LogicVector built.
  void schedule_write(SignalId s, Logic v, SimTime delay = SimTime::zero()) {
    DriverSlot* d = owned_slot(s, delay);
    if (d == nullptr || signals_[s].width != 1) [[unlikely]] {
      schedule_write_slow(s, v, delay);
      return;
    }
    delta_requested_ = true;
    ++stats_.transactions;
    if (d->value.equals_scalar(v)) return;
    d->value.assign_scalar(v);
    mark_staged(s, delta_serial_ + 1);
  }
  /// Writes the low width(s) bits of `v` as strong '0'/'1' (signals up to
  /// 64 bits wide); the zero-delay case compares and overwrites the driver
  /// slot's words in place, with no LogicVector built.
  void schedule_write_uint(SignalId s, std::uint64_t v,
                           SimTime delay = SimTime::zero()) {
    DriverSlot* d = owned_slot(s, delay);
    if (d == nullptr || signals_[s].width > 64) [[unlikely]] {
      schedule_write_uint_slow(s, v, delay);
      return;
    }
    delta_requested_ = true;
    ++stats_.transactions;
    if (d->value.equals_uint(v)) return;
    d->value.assign_uint(v);
    mark_staged(s, delta_serial_ + 1);
  }

  /// Drives all of `s` to 'Z' (releases this process's contribution to a
  /// resolved bus).  A zero-delay release of an already released slot —
  /// an idle bus master's every clock — is one compare.  On the
  /// accounting_board benchmark at seed 1 (--trace 1), 1,613,844 of the
  /// kernel's 2,410,897 transactions are such releases.
  void schedule_release(SignalId s, SimTime delay = SimTime::zero()) {
    DriverSlot* d = owned_slot(s, delay);
    if (d == nullptr || !d->value.all_z()) [[unlikely]] {
      schedule_release_slow(s, delay);
      return;
    }
    delta_requested_ = true;
    ++stats_.transactions;
  }

  /// True if `s` changed value in the current delta cycle.  Inline, like
  /// rose(): every clocked process asks on every wakeup.
  bool event(SignalId s) const {
    require(s < signals_.size(), "event: unknown signal");
    if (probing_) [[unlikely]] {
      // Edge state is meaningless in the analysis sandbox; answer false and
      // flag the probe so the caller degrades this process to unknown.
      probe_unclean_ = true;
      return false;
    }
    return signals_[s].changed_serial == delta_serial_;
  }
  /// rising_edge(s): event on bit 0 with new value '1'.
  bool rose(SignalId s) const {
    if (!event(s)) return false;
    const SignalState& st = signals_[s];
    return (st.effective.bool_word(0) & ~st.previous.bool_word(0) & 1) != 0;
  }
  /// falling_edge(s): event on bit 0 with new value '0'.
  bool fell(SignalId s) const;

  // --- generic scheduled callbacks (stimuli, entity deliveries) ---------
  void schedule_callback(SimTime delay, SmallFn fn);

  // --- kernel clocks ----------------------------------------------------
  /// Registers a free-running clock on scalar signal `s`: a rising edge at
  /// now()+phase, a falling edge period/2 (rounded down) later, and so on
  /// every period.  Each edge is a zero-delay write of '1' or '0' by
  /// kExternalProcess, issued at the start of its time point ahead of the
  /// point's callbacks — so it follows the callbacks' rules: it lands in
  /// the point's first delta, or in the second when the point holds
  /// delayed transactions.  Clocks sharing an instant write in
  /// registration order.
  ClockId add_clock(SignalId s, SimTime period,
                    SimTime phase = SimTime::zero());
  /// Stops `c` for good: no further edges, and the clock no longer keeps
  /// the kernel from being quiescent.  An edge due at now() that the
  /// current time point has already issued stands: edges are issued ahead
  /// of the point's callbacks, so when a callback at an edge instant stops
  /// the clock, that edge is still applied (in the point's delta cycles)
  /// and counted in clock_rising_edges().
  void stop_clock(ClockId c);
  /// Rising edges `c` has written so far.
  std::uint64_t clock_rising_edges(ClockId c) const;

  // --- execution --------------------------------------------------------
  SimTime now() const { return now_; }
  /// Time of the next scheduled activity; SimTime::max() when idle.
  SimTime next_activity() const;
  /// Runs every process once (VHDL initialization); implicit in run_until.
  void initialize() {
    if (!initialized_) [[unlikely]] initialize_design();
  }
  /// Executes one time point completely (all delta cycles); false when no
  /// activity is pending.
  bool step_time();
  /// Executes all activity with time <= limit, then sets now to limit.
  /// Shares its semantics with dsim::Scheduler::run_until; a `limit` that
  /// precedes now() is a no-op — simulated time never regresses.
  void run_until(SimTime limit);
  /// Executes all activity with time < limit, then sets now to limit.
  /// Activity at `limit` itself stays pending, so writes issued next share
  /// its time point: a DUT stepped one clock period per call gets its
  /// inputs and the period's rising edge in one time point.
  void run_before(SimTime limit);
  bool quiescent() const;

  const KernelStats& stats() const { return stats_; }

  /// Timeline row for kernel slice spans in the Chrome trace.  An
  /// RtlBackend forwards its own row here so "rtl.slice" spans nest under
  /// that backend's grant spans; defaults to the "main" row otherwise.
  void set_telemetry_track(telemetry::TrackId track) {
    telemetry_track_ = track;
  }

  /// Called after each applied value change: (signal, new value, time).
  using ChangeObserver =
      std::function<void(SignalId, const LogicVector&, SimTime)>;
  void add_change_observer(ChangeObserver obs);

 private:
  struct DriverSlot {
    ProcessId pid;
    LogicVector value;
  };
  struct SignalState {
    std::string name;
    std::size_t width;
    LogicVector effective;
    std::vector<DriverSlot> drivers;
    std::vector<ProcessId> sensitive;
    /// Parallel to `sensitive`: non-zero entries wake only on rising edges
    /// of bit 0 (see restrict_sensitivity_to_rising).
    std::vector<std::uint8_t> sensitive_rising;
    /// Gated processes re-armed by any value change of this signal (see
    /// set_wake_signals).  Empty for almost every signal.
    std::vector<ProcessId> wake_watch;
    std::vector<ProcessId> readers;  ///< read-tracking harvest (lint only)
    std::uint64_t changed_serial = 0;  ///< delta serial of last change
    std::uint64_t staged_serial = 0;   ///< delta a driver update commits in
    LogicVector previous;              ///< value before last change
  };
  struct ProcessState {
    std::string name;
    SmallFn fn;
  };
  struct Transaction {
    Transaction(SignalId s, ProcessId p, LogicVector&& v)
        : sig(s), pid(p), value(std::move(v)) {}
    SignalId sig;
    ProcessId pid;
    LogicVector value;
  };
  /// All activity scheduled for one simulated time point.  Buckets are
  /// pooled: a popped bucket's index goes on the free list and its vectors
  /// keep their capacity for reuse.
  struct TimeBucket {
    SimTime t;
    std::vector<Transaction> txns;
    std::vector<SmallFn> callbacks;
  };

  /// A kernel clock (see add_clock).
  struct KernelClock {
    SignalId sig;
    std::int64_t high_ps;  ///< rising edge to falling edge
    std::int64_t low_ps;   ///< falling edge to rising edge
    SimTime next;          ///< time of the next edge
    bool next_rising = true;
    bool running = true;
    std::uint64_t rising_edges = 0;
  };

  /// The driver slot a zero-delay write by the running process stages into
  /// on the inline path, or nullptr when the write must go out of line: a
  /// delay, a probe, a deferred delta, an unknown signal, or the process's
  /// first write to the signal (no slot yet).
  DriverSlot* owned_slot(SignalId s, SimTime delay) {
    if (delay != SimTime::zero() || probing_ || defer_zero_delay() ||
        s >= signals_.size()) {
      return nullptr;
    }
    return find_driver(signals_[s], current_process_);
  }
  void schedule_write_slow(SignalId s, Logic v, SimTime delay);
  void schedule_write_uint_slow(SignalId s, std::uint64_t v, SimTime delay);
  void schedule_release_slow(SignalId s, SimTime delay);
  /// Cold half of initialize().
  void initialize_design();
  /// Writes every running clock's edge due at `t` and advances it.
  void fire_clock_edges(SimTime t);
  /// Recomputes clock_next_ from the running clocks.
  void update_clock_next();
  /// Steps every time point before `limit` (or up to and including it when
  /// `inclusive`), then pins now() to limit; shared by run_until and
  /// run_before.
  void advance(SimTime limit, bool inclusive);
  TimeBucket& bucket_for(SimTime when);
  void enqueue_runnable(ProcessId p);
  /// True while zero-delay writes must travel through next_delta_ instead
  /// of being staged at write time (the two ordering rules of the file
  /// comment).
  bool defer_zero_delay() const {
    return defer_writes_ || !next_delta_.empty();
  }
  /// `pid`'s driver slot on `st`, or nullptr before its first write.  A
  /// net has one slot per driving process, so the scan is one or two
  /// compares.
  static DriverSlot* find_driver(SignalState& st, ProcessId pid) {
    for (DriverSlot& d : st.drivers) {
      if (d.pid == pid) return &d;
    }
    return nullptr;
  }
  /// Apply phase, first half: moves `v` into `pid`'s driver slot on `sig`
  /// (creating the slot on a first write) and queues the signal for the
  /// commit of delta `serial`; an identical value only counts the
  /// transaction.  Resolution is deferred to commit() so N same-delta
  /// writes on one signal cost one resolution, not N.
  void stage(SignalId sig, ProcessId pid, LogicVector&& v,
             std::uint64_t serial);
  /// Queues `sig` for the commit of delta `serial` unless already queued.
  /// Out of line, so the inline write paths do not each carry a copy of
  /// the vector's growth code.
  void mark_staged(SignalId sig, std::uint64_t serial);
  /// Opens a delta cycle: stages `batch` (emptying it), then commits every
  /// signal staged for this delta.
  void begin_delta(std::vector<Transaction>& batch);
  /// Apply phase, second half: resolves a dirty signal's driver
  /// contributions once (in place, word-at-a-time), and only if the
  /// resolved planes differ from the current value commits the change and
  /// wakes the (edge-filtered) sensitive processes.
  void commit(SignalId sig);
  /// Runs every process in runnable_ (skipping gated ones) and resets
  /// current_process_; shared by the delta loop and the ranked waves.
  void execute_runnable();
  void run_delta_loop(std::vector<Transaction>& batch,
                      const std::vector<ProcessId>& preactivated);
  /// Executes one complete time point: levelized two-phase evaluation when
  /// enabled (with dynamic degradation to the delta loop), the classic
  /// delta loop otherwise.
  void run_time_point(std::vector<Transaction>& batch);
  /// Recomputes the flattened LevelSchedule (see levelize.hpp) from the
  /// current netlist structure; called lazily from run_time_point whenever
  /// elaboration or a newly discovered driver edge marked it dirty.
  void rebuild_schedule();
  /// Cold half of value(): records the lint-only read-set entry.
  void harvest_read(SignalId s) const;

  SimTime now_ = SimTime::zero();
  bool initialized_ = false;
  bool read_tracking_ = false;
  /// True while probe_process runs a body in the analysis sandbox.
  bool probing_ = false;
  /// Mutable: event()/rose()/fell() are const but must be able to flag a
  /// probe as unclean, and harvest_read appends probe reads.
  mutable bool probe_unclean_ = false;
  mutable std::vector<SignalId> probe_reads_;
  std::vector<ProbeWrite> probe_writes_;
  std::uint64_t delta_serial_ = 0;  ///< increments every delta cycle
  ProcessId current_process_ = kExternalProcess;

  std::vector<SignalState> signals_;
  std::vector<ProcessState> processes_;  // index 0 reserved (external)
  /// Zero-delay writes that could not be staged at write time (see
  /// defer_zero_delay); empty in the common case.
  std::vector<Transaction> next_delta_;
  /// A zero-delay write was staged (or re-asserted) at write time: the next
  /// delta must run even if nothing is dirty, as it would for a queued
  /// transaction.
  bool delta_requested_ = false;
  /// Set while callbacks run ahead of a popped bucket's delayed
  /// transactions and while a delta commits (see defer_zero_delay).
  bool defer_writes_ = false;

  // Future-activity queue: ids of pooled buckets, one per distinct time
  // point, sorted by time with the earliest at back() (see the file
  // comment for why a scanned vector suffices).
  std::vector<std::uint32_t> pending_;
  std::vector<TimeBucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;

  // Kernel clocks (see add_clock) and the earliest next edge of a running
  // one, SimTime::max() when none runs.
  std::vector<KernelClock> clocks_;
  SimTime clock_next_ = SimTime::max();

  // Per-delta runnable set, deduplicated by generation stamp: a process is
  // enqueued at most once per delta regardless of how many of its
  // sensitivity signals changed.
  std::vector<ProcessId> runnable_;
  std::vector<std::uint64_t> runnable_stamp_;  // last delta_serial_ enqueued

  // Activity gates (see gate_current_process): per-process suppression
  // flags, cleared by wake-signal commits and wake_process().
  std::vector<std::uint8_t> gated_;

  // Flattened LevelSchedule (rtl/levelize.hpp), rebuilt lazily: per-process
  // scheduling kind (ProcKind as uint8) and topological rank, plus the
  // rank-bucket scratch used while settling a levelized time point.
  bool levelize_enabled_ = true;
  bool schedule_dirty_ = true;
  std::uint32_t max_rank_ = 0;
  std::vector<std::uint8_t> proc_kind_;
  std::vector<std::uint32_t> proc_rank_;
  std::vector<std::vector<ProcessId>> rank_buckets_;
  std::vector<std::uint8_t> pending_member_;

  // Scratch buffers recycled across time points.
  std::vector<Transaction> batch_scratch_;
  std::vector<SmallFn> cb_scratch_;
  /// Signals whose driver slots were updated for the next commit
  /// (first-touch order, deduplicated by SignalState::staged_serial);
  /// resolved once each by commit().
  std::vector<SignalId> dirty_signals_;
  /// Multi-driver resolution accumulator, reused across commits so the
  /// steady state allocates nothing.
  LogicVector resolve_scratch_;

  std::vector<ChangeObserver> observers_;
  std::vector<PortBinding> bindings_;
  std::vector<GuardDecl> guard_decls_;
  std::vector<FsmDecl> fsm_decls_;
  KernelStats stats_;
  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

}  // namespace castanet::rtl
