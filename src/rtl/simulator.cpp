#include "src/rtl/simulator.hpp"

#include <algorithm>

#include "src/core/error.hpp"
#include "src/rtl/levelize.hpp"

namespace castanet::rtl {

namespace {
/// Process-wide elaboration hook (see set_elaboration_hook).  Written once
/// at program setup, read from initialize(); not synchronized — install it
/// before any simulator elaborates.
Simulator::ElaborationHook g_elaboration_hook;
}  // namespace

void Simulator::set_elaboration_hook(ElaborationHook hook) {
  g_elaboration_hook = std::move(hook);
}

SignalId Simulator::create_signal(std::string name, std::size_t width,
                                  Logic init) {
  require(width > 0, "create_signal: width must be > 0");
  SignalState st;
  st.name = std::move(name);
  st.width = width;
  st.effective = LogicVector(width, init);
  st.previous = st.effective;
  signals_.push_back(std::move(st));
  schedule_dirty_ = true;
  return static_cast<SignalId>(signals_.size() - 1);
}

ProcessId Simulator::add_process(std::string name,
                                 std::vector<SignalId> sensitivity,
                                 SmallFn fn) {
  if (processes_.empty()) {
    processes_.push_back({"<external>", nullptr});  // reserve id 0
  }
  processes_.push_back({std::move(name), std::move(fn)});
  const auto pid = static_cast<ProcessId>(processes_.size() - 1);
  runnable_stamp_.resize(processes_.size(), 0);
  gated_.resize(processes_.size(), 0);
  schedule_dirty_ = true;
  for (SignalId s : sensitivity) {
    require(s < signals_.size(), "add_process: unknown signal in sensitivity");
    signals_[s].sensitive.push_back(pid);
    signals_[s].sensitive_rising.push_back(0);
  }
  return pid;
}

void Simulator::restrict_sensitivity_to_rising(ProcessId p, SignalId s) {
  require(s < signals_.size(), "restrict_sensitivity_to_rising: unknown signal");
  SignalState& st = signals_[s];
  require(st.width == 1,
          "restrict_sensitivity_to_rising: signal is not a scalar");
  for (std::size_t i = 0; i < st.sensitive.size(); ++i) {
    if (st.sensitive[i] == p) {
      st.sensitive_rising[i] = 1;
      schedule_dirty_ = true;
      return;
    }
  }
  require(false, "restrict_sensitivity_to_rising: process not sensitive");
}

void Simulator::set_wake_signals(ProcessId p,
                                 const std::vector<SignalId>& sigs) {
  require(p != kExternalProcess && p < processes_.size(),
          "set_wake_signals: unknown process");
  for (SignalId s : sigs) {
    require(s < signals_.size(), "set_wake_signals: unknown signal");
    std::vector<ProcessId>& watch = signals_[s].wake_watch;
    if (std::find(watch.begin(), watch.end(), p) == watch.end()) {
      watch.push_back(p);
    }
  }
}

void Simulator::gate_current_process() {
  if (current_process_ == kExternalProcess || probing_) return;
  gated_[current_process_] = 1;
}

void Simulator::wake_process(ProcessId p) {
  require(p < processes_.size(), "wake_process: unknown process");
  gated_[p] = 0;
}

bool Simulator::process_gated(ProcessId p) const {
  require(p < processes_.size(), "process_gated: unknown process");
  return gated_[p] != 0;
}

const std::string& Simulator::signal_name(SignalId s) const {
  require(s < signals_.size(), "signal_name: unknown signal");
  return signals_[s].name;
}

std::size_t Simulator::width(SignalId s) const {
  require(s < signals_.size(), "width: unknown signal");
  return signals_[s].width;
}

void Simulator::harvest_read(SignalId s) const {
  // Lint-only dataflow harvest; processes and their read sets are small,
  // so the dedup scan stays cheap — and the tracking flag is off outside
  // analysis runs.
  auto& readers = const_cast<SignalState&>(signals_[s]).readers;
  if (std::find(readers.begin(), readers.end(), current_process_) ==
      readers.end()) {
    readers.push_back(current_process_);
  }
  if (probing_ && std::find(probe_reads_.begin(), probe_reads_.end(), s) ==
                      probe_reads_.end()) {
    probe_reads_.push_back(s);
  }
}

const std::vector<ProcessId>& Simulator::readers_of(SignalId s) const {
  require(s < signals_.size(), "readers_of: unknown signal");
  return signals_[s].readers;
}

const std::string& Simulator::process_name(ProcessId p) const {
  require(p < processes_.size(), "process_name: unknown process");
  return processes_[p].name;
}

const std::vector<ProcessId>& Simulator::sensitive_processes(
    SignalId s) const {
  require(s < signals_.size(), "sensitive_processes: unknown signal");
  return signals_[s].sensitive;
}

const std::vector<std::uint8_t>& Simulator::sensitive_rising(
    SignalId s) const {
  require(s < signals_.size(), "sensitive_rising: unknown signal");
  return signals_[s].sensitive_rising;
}

std::vector<ProcessId> Simulator::drivers_of(SignalId s) const {
  require(s < signals_.size(), "drivers_of: unknown signal");
  std::vector<ProcessId> out;
  out.reserve(signals_[s].drivers.size());
  for (const DriverSlot& d : signals_[s].drivers) out.push_back(d.pid);
  return out;
}

const LogicVector* Simulator::driver_value(SignalId s, ProcessId pid) const {
  require(s < signals_.size(), "driver_value: unknown signal");
  for (const DriverSlot& d : signals_[s].drivers) {
    if (d.pid == pid) return &d.value;
  }
  return nullptr;
}

void Simulator::declare_port_binding(SignalId s, PortDir dir,
                                     std::size_t expected_width,
                                     std::string context) {
  require(s < signals_.size(), "declare_port_binding: unknown signal");
  bindings_.push_back({s, dir, expected_width, std::move(context)});
}

void Simulator::declare_guard(ProcessId pid, SignalId sig, bool active_high,
                              GuardKind kind, std::string label) {
  require(pid != kExternalProcess && pid < processes_.size(),
          "declare_guard: unknown process");
  require(sig < signals_.size(), "declare_guard: unknown signal");
  guard_decls_.push_back({pid, sig, active_high, kind, std::move(label)});
}

void Simulator::declare_fsm(SignalId state, SignalId next,
                            std::vector<LogicVector> states,
                            std::string context) {
  require(state < signals_.size() && next < signals_.size(),
          "declare_fsm: unknown signal");
  for (const LogicVector& v : states) {
    require(v.width() == signals_[state].width,
            "declare_fsm: state encoding width mismatch");
  }
  fsm_decls_.push_back({state, next, std::move(states), std::move(context)});
}

Simulator::ProbeResult Simulator::probe_process(ProcessId p) {
  require(p != kExternalProcess && p < processes_.size(),
          "probe_process: unknown process");
  ProbeResult out;
  probing_ = true;
  probe_unclean_ = false;
  probe_writes_.clear();
  probe_reads_.clear();
  const ProcessId prev_proc = current_process_;
  const bool prev_tracking = read_tracking_;
  current_process_ = p;
  read_tracking_ = true;  // the probe's read set is part of the result
  try {
    processes_[p].fn();
  } catch (...) {
    // A body that throws under a probed input valuation (e.g. to_uint on X
    // bits) may have skipped writes; the caller must degrade its outputs.
    probe_unclean_ = true;
  }
  read_tracking_ = prev_tracking;
  current_process_ = prev_proc;
  probing_ = false;
  out.writes = std::move(probe_writes_);
  out.reads = std::move(probe_reads_);
  out.clean = !probe_unclean_;
  probe_writes_.clear();
  probe_reads_.clear();
  return out;
}

void Simulator::set_value_for_analysis(SignalId s, const LogicVector& v) {
  require(s < signals_.size(), "set_value_for_analysis: unknown signal");
  if (v.width() != signals_[s].width) {
    throw LogicError("set_value_for_analysis: width mismatch on signal '" +
                     signals_[s].name + "'");
  }
  signals_[s].effective = v;
}

Simulator::TimeBucket& Simulator::bucket_for(SimTime when) {
  // pending_ is sorted latest-first; walk from the earliest end to the
  // bucket for `when` or to the slot a new one goes in.
  std::size_t pos = pending_.size();
  for (; pos > 0; --pos) {
    TimeBucket& b = buckets_[pending_[pos - 1]];
    if (b.t == when) return b;
    if (b.t > when) break;
  }
  std::uint32_t id;
  if (!free_buckets_.empty()) {
    id = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(buckets_.size());
    buckets_.emplace_back();
  }
  buckets_[id].t = when;
  pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  return buckets_[id];
}

void Simulator::schedule_write(SignalId s, LogicVector v, SimTime delay) {
  require(s < signals_.size(), "schedule_write: unknown signal");
  if (v.width() != signals_[s].width) {
    throw LogicError("schedule_write: width mismatch on signal '" +
                     signals_[s].name + "'");
  }
  require(delay >= SimTime::zero(), "schedule_write: negative delay");
  if (probing_) {
    // Analysis sandbox: capture the write instead of staging it.  The
    // transport delay is irrelevant to the value abstraction.
    probe_writes_.push_back({s, std::move(v)});
    return;
  }
  if (delay != SimTime::zero()) {
    bucket_for(now_ + delay).txns.emplace_back(s, current_process_,
                                               std::move(v));
  } else if (defer_zero_delay()) {
    next_delta_.emplace_back(s, current_process_, std::move(v));
  } else {
    delta_requested_ = true;
    stage(s, current_process_, std::move(v), delta_serial_ + 1);
  }
}

void Simulator::schedule_write_slow(SignalId s, Logic v, SimTime delay) {
  // Off the inline path: a delay, a probe, a deferred delta, a width
  // mismatch, or the writer's first write, which creates its driver slot.
  schedule_write(s, scalar(v), delay);
}

void Simulator::schedule_write_uint_slow(SignalId s, std::uint64_t v,
                                         SimTime delay) {
  require(s < signals_.size(), "schedule_write_uint: unknown signal");
  require(signals_[s].width <= 64,
          "schedule_write_uint: signal wider than 64 bits");
  schedule_write(s, LogicVector::from_uint(v, signals_[s].width), delay);
}

void Simulator::schedule_release_slow(SignalId s, SimTime delay) {
  schedule_write(s, LogicVector(width(s), Logic::Z), delay);
}

bool Simulator::fell(SignalId s) const {
  if (!event(s)) return false;
  const SignalState& st = signals_[s];
  return !to_bool(st.effective.bit(0), true) && to_bool(st.previous.bit(0));
}

void Simulator::schedule_callback(SimTime delay, SmallFn fn) {
  require(delay >= SimTime::zero(), "schedule_callback: negative delay");
  bucket_for(now_ + delay).callbacks.push_back(std::move(fn));
}

ClockId Simulator::add_clock(SignalId s, SimTime period, SimTime phase) {
  require(s < signals_.size(), "add_clock: unknown signal");
  require(signals_[s].width == 1, "add_clock: clock signal is not a scalar");
  require(period > SimTime::zero(), "add_clock: period must be positive");
  require(phase >= SimTime::zero(), "add_clock: negative phase");
  KernelClock c;
  c.sig = s;
  c.high_ps = period.ps() / 2;
  c.low_ps = period.ps() - c.high_ps;
  c.next = now_ + phase;
  clocks_.push_back(c);
  update_clock_next();
  return static_cast<ClockId>(clocks_.size() - 1);
}

void Simulator::stop_clock(ClockId c) {
  require(c < clocks_.size(), "stop_clock: unknown clock");
  clocks_[c].running = false;
  update_clock_next();
}

std::uint64_t Simulator::clock_rising_edges(ClockId c) const {
  require(c < clocks_.size(), "clock_rising_edges: unknown clock");
  return clocks_[c].rising_edges;
}

void Simulator::update_clock_next() {
  clock_next_ = SimTime::max();
  for (const KernelClock& c : clocks_) {
    if (c.running) clock_next_ = std::min(clock_next_, c.next);
  }
}

void Simulator::fire_clock_edges(SimTime t) {
  for (KernelClock& c : clocks_) {
    if (!c.running || c.next != t) continue;
    if (c.next_rising) {
      ++c.rising_edges;
      schedule_write(c.sig, Logic::L1);
      c.next = t + SimTime::from_ps(c.high_ps);
    } else {
      schedule_write(c.sig, Logic::L0);
      c.next = t + SimTime::from_ps(c.low_ps);
    }
    c.next_rising = !c.next_rising;
  }
  update_clock_next();
}

void Simulator::add_change_observer(ChangeObserver obs) {
  observers_.push_back(std::move(obs));
}

void Simulator::enqueue_runnable(ProcessId p) {
  if (runnable_stamp_[p] == delta_serial_) return;
  runnable_stamp_[p] = delta_serial_;
  runnable_.push_back(p);
}

void Simulator::stage(SignalId sig, ProcessId pid, LogicVector&& v,
                      std::uint64_t serial) {
  SignalState& st = signals_[sig];
  ++stats_.transactions;
  DriverSlot* d = find_driver(st, pid);
  if (d == nullptr) {
    st.drivers.push_back({pid, std::move(v)});
    // A first-time driver slot is a new dependency edge the level schedule
    // has not seen; re-levelize before the next time point.
    schedule_dirty_ = true;
  } else if (d->value != v) {
    d->value = std::move(v);
  } else {
    // Identical re-stage (modules re-assert unchanged outputs every clock,
    // VHDL style): no resolution input changed, so the resolved value can't
    // have either — skip dirtying the signal and the whole commit pass.
    // If another driver of this net did change, that driver's stage marked
    // it dirty and commit still sees every contribution.
    return;
  }
  mark_staged(sig, serial);
}

void Simulator::mark_staged(SignalId sig, std::uint64_t serial) {
  SignalState& st = signals_[sig];
  if (st.staged_serial != serial) {
    st.staged_serial = serial;
    dirty_signals_.push_back(sig);
  }
}

void Simulator::begin_delta(std::vector<Transaction>& batch) {
  ++delta_serial_;
  ++stats_.delta_cycles;
  delta_requested_ = false;
  runnable_.clear();
  for (Transaction& t : batch) {
    stage(t.sig, t.pid, std::move(t.value), delta_serial_);
  }
  batch.clear();
  // An observer's write belongs to the next delta; deferring it also keeps
  // dirty_signals_ untouched while it is walked.
  defer_writes_ = true;
  for (SignalId s : dirty_signals_) commit(s);
  defer_writes_ = false;
  dirty_signals_.clear();
}

void Simulator::commit(SignalId sig) {
  SignalState& st = signals_[sig];
  // Single-driver signals (the overwhelming majority) resolve to the sole
  // driver's value: compare in place, copy only on an actual event.  The
  // nine-valued multi-driver resolution runs only for genuinely resolved
  // (bus) nets, once per signal per delta no matter how many transactions
  // landed — and accumulates in place in a reused scratch vector.
  const LogicVector* next = &st.drivers.front().value;
  if (st.drivers.size() > 1) {
    resolve_scratch_ = st.drivers.front().value;
    for (std::size_t i = 1; i < st.drivers.size(); ++i) {
      resolve_scratch_.resolve_with(st.drivers[i].value);
    }
    next = &resolve_scratch_;
  }
  if (*next == st.effective) return;
  // Recycle previous's plane storage instead of discarding it: swap makes
  // the old effective the new previous, and the assignment below reuses the
  // displaced buffer when the widths (word counts) match — which they
  // always do after the first change.
  st.effective.swap(st.previous);
  st.effective = *next;
  st.changed_serial = delta_serial_;
  ++stats_.value_changes;
  bool rising_known = false, rising = false;
  for (std::size_t i = 0; i < st.sensitive.size(); ++i) {
    if (st.sensitive_rising[i] != 0) {
      if (!rising_known) {
        rising = (st.effective.bool_word(0) & ~st.previous.bool_word(0) &
                  1) != 0;
        rising_known = true;
      }
      if (!rising) continue;
    }
    enqueue_runnable(st.sensitive[i]);
  }
  for (ProcessId w : st.wake_watch) gated_[w] = 0;
  for (const auto& obs : observers_) obs(sig, st.effective, now_);
}

void Simulator::execute_runnable() {
  for (ProcessId p : runnable_) {
    if (gated_[p]) {
      ++stats_.gated_skips;
      continue;
    }
    current_process_ = p;
    ++stats_.process_activations;
    processes_[p].fn();
  }
  current_process_ = kExternalProcess;
}

void Simulator::run_delta_loop(std::vector<Transaction>& batch,
                               const std::vector<ProcessId>& preactivated) {
  bool first = true;
  while (!batch.empty() || !next_delta_.empty() || delta_requested_ ||
         (first && !preactivated.empty())) {
    if (batch.empty()) batch.swap(next_delta_);
    begin_delta(batch);
    if (first) {
      for (ProcessId p : preactivated) enqueue_runnable(p);
      first = false;
    }
    execute_runnable();
  }
  // Close the simulation cycle: 'event (and rose/fell) are only true while
  // the triggering delta executes, exactly as in VHDL.
  ++delta_serial_;
}

void Simulator::rebuild_schedule() {
  schedule_dirty_ = false;
  const LevelSchedule ls = levelize(*this);
  proc_kind_.assign(ls.kind.size(), 0);
  for (std::size_t i = 0; i < ls.kind.size(); ++i) {
    proc_kind_[i] = static_cast<std::uint8_t>(ls.kind[i]);
  }
  proc_rank_ = ls.rank;
  max_rank_ = ls.max_rank;
  rank_buckets_.assign(static_cast<std::size_t>(max_rank_) + 1, {});
  pending_member_.assign(processes_.size(), 0);
  if (telemetry::enabled()) {
    auto& hub = telemetry::Hub::instance();
    hub.counter("rtl.levelize.rebuilds").add(1);
    hub.gauge("rtl.levelize.max_rank").set(static_cast<double>(max_rank_));
    hub.gauge("rtl.levelize.comb_procs")
        .set(static_cast<double>(ls.combinational_count));
    hub.gauge("rtl.levelize.fallback_procs")
        .set(static_cast<double>(ls.fallback_count));
  }
}

void Simulator::run_time_point(std::vector<Transaction>& batch) {
  if (!levelize_enabled_) {
    run_delta_loop(batch, {});
    return;
  }
  if (schedule_dirty_) rebuild_schedule();

  // Wave 1 — the triggering delta.  Runs exactly like the first delta of
  // the generic loop: every woken process executes with full event()/rose()
  // visibility of the trigger (clock edges, external stimulus), whatever
  // its scheduling class.  This is the "sequential-logic synchronization"
  // half of the CCSS split.
  if (batch.empty()) batch.swap(next_delta_);
  if (batch.empty() && !delta_requested_) return;  // nothing was written
  begin_delta(batch);
  execute_runnable();

  // Settling waves — the "combinational-logic computing" half: drain the
  // produced transactions, then run woken acyclic combinational processes
  // in topological-rank order, each at most once, lowest rank first.  Any
  // surprise (a sequential or fallback-region process woken by settling, or
  // a wake at an already-passed rank — a dynamic back edge the schedule
  // missed) degrades the remainder of the time point to the delta loop,
  // which is bit-identical by construction.
  bool degrade = false;
  std::uint32_t next_rank = 0;
  std::size_t pending = 0;
  while (true) {
    if (delta_requested_ || !next_delta_.empty()) {
      batch.swap(next_delta_);
      begin_delta(batch);
      for (ProcessId p : runnable_) {
        if (proc_kind_[p] ==
            static_cast<std::uint8_t>(ProcKind::kCombinational)) {
          if (proc_rank_[p] < next_rank) degrade = true;
          if (!pending_member_[p]) {
            pending_member_[p] = 1;
            rank_buckets_[proc_rank_[p]].push_back(p);
            ++pending;
          }
        } else {
          degrade = true;
        }
      }
      if (degrade) break;
      runnable_.clear();
      continue;  // drain every transaction before running the next rank
    }
    if (pending == 0) break;
    while (rank_buckets_[next_rank].empty()) ++next_rank;
    std::vector<ProcessId>& bucket = rank_buckets_[next_rank];
    runnable_.clear();
    for (ProcessId p : bucket) {
      pending_member_[p] = 0;
      runnable_.push_back(p);
    }
    pending -= bucket.size();
    bucket.clear();
    ++next_rank;
    execute_runnable();
  }

  if (degrade) {
    ++stats_.fallback_points;
    // The schedule told us nothing useful about this wave; recompute it
    // before the next time point (a dynamic back edge means a stale rank).
    schedule_dirty_ = true;
    // Merge the still-pending ranked processes into the current delta's
    // runnable set (the generation stamp dedups against the processes the
    // triggering commit already enqueued) and finish the time point with
    // the generic loop.
    for (std::uint32_t r = 0; r <= max_rank_; ++r) {
      for (ProcessId p : rank_buckets_[r]) {
        if (pending_member_[p]) {
          pending_member_[p] = 0;
          enqueue_runnable(p);
        }
      }
      rank_buckets_[r].clear();
    }
    execute_runnable();
    run_delta_loop(batch, {});
    return;
  }
  ++stats_.levelized_points;
  // Close the event window exactly as the generic loop does.
  ++delta_serial_;
}

void Simulator::initialize_design() {
  initialized_ = true;
  if (!processes_.empty()) {
    std::vector<ProcessId> all;
    for (ProcessId p = 1; p < processes_.size(); ++p) all.push_back(p);
    batch_scratch_.clear();
    run_delta_loop(batch_scratch_, all);
  }
  if (g_elaboration_hook) g_elaboration_hook(*this);
}

SimTime Simulator::next_activity() const {
  if (delta_requested_ || !next_delta_.empty()) return now_;
  const SimTime bucket =
      pending_.empty() ? SimTime::max() : buckets_[pending_.back()].t;
  return std::min(bucket, clock_next_);
}

bool Simulator::quiescent() const {
  return next_activity() == SimTime::max();
}

bool Simulator::step_time() {
  initialize();
  const SimTime t = next_activity();
  if (t == SimTime::max()) return false;
  now_ = t;
  ++stats_.time_points;
  batch_scratch_.clear();
  cb_scratch_.clear();
  if (!pending_.empty() && buckets_[pending_.back()].t == t) {
    const std::uint32_t id = pending_.back();
    pending_.pop_back();
    TimeBucket& b = buckets_[id];
    batch_scratch_.swap(b.txns);
    cb_scratch_.swap(b.callbacks);
    free_buckets_.push_back(id);
  }
  // Clock edges, then callbacks: both issue zero-delay writes that land in
  // the first delta of this time point — or, when the bucket holds delayed
  // transactions, which take that delta, in the second.
  defer_writes_ = !batch_scratch_.empty();
  if (clock_next_ == t) fire_clock_edges(t);
  for (auto& fn : cb_scratch_) fn();
  defer_writes_ = false;
  run_time_point(batch_scratch_);
  return true;
}

void Simulator::run_until(SimTime limit) { advance(limit, true); }

void Simulator::run_before(SimTime limit) { advance(limit, false); }

void Simulator::advance(SimTime limit, bool inclusive) {
  initialize();
  // Shared semantics with dsim::Scheduler::run_until: execute every event
  // with time <= limit, then pin now() to limit.  A limit already in the
  // past is a no-op — simulated time never regresses, and callers (e.g.
  // window-grant loops re-issuing a stale horizon) may safely pass one.
  if (limit < now_) return;
  const auto due = [&](SimTime t) {
    return t != SimTime::max() && (inclusive ? t <= limit : t < limit);
  };
  if (telemetry::enabled()) {
    const std::uint64_t activations0 = stats_.process_activations;
    const std::uint64_t deltas0 = stats_.delta_cycles;
    telemetry::Span span("rtl.slice", telemetry_track_);
    span.arg("from_us", now_.seconds() * 1e6);
    span.arg("to_us", limit.seconds() * 1e6);
    while (due(next_activity())) step_time();
    span.arg("activations",
             static_cast<double>(stats_.process_activations - activations0));
    span.arg("delta_cycles",
             static_cast<double>(stats_.delta_cycles - deltas0));
  } else {
    while (due(next_activity())) step_time();
  }
  if (now_ < limit) now_ = limit;
}

}  // namespace castanet::rtl
