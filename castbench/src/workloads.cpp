#include "src/workloads.hpp"

#include <chrono>
#include <exception>
#include <memory>
#include <string>

#include "examples/rigs/accounting_rig.hpp"
#include "examples/rigs/switch_rig.hpp"
#include "src/alloc_count.hpp"
#include "src/castanet/transport.hpp"
#include "src/gcu_rig.hpp"
#include "src/probe.hpp"
#include "src/spans.hpp"
#include "src/traffic/processes.hpp"
#include "src/traffic_gen.hpp"

namespace castbench {

using namespace castanet;

namespace {

/// Drain margin after the last arrival, as in experiment E1.
const SimTime kDrain = SimTime::from_us(200);
/// Trace-ring capacity for traced reps; a rep that overflows it fails.
constexpr std::size_t kRingCapacity = std::size_t{1} << 23;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Cells offered per rep.
std::size_t default_cells(Workload w) {
  switch (w) {
    case Workload::kSwitchCbr: return 10'000;
    case Workload::kGcuHybrid: return 10'000;
    // The board's device model runs its own kernel and emits ~110 spans
    // per cell; 5,000 cells keep a traced rep near half a million spans.
    case Workload::kAccountingBoard: return 5'000;
  }
  return 0;
}

/// Per-backend metric suffixes, in the order the workloads attach them.
const std::vector<std::string>& backend_suffixes() {
  static const std::vector<std::string> names{"rtl", "ref", "board"};
  return names;
}

/// Wraps the CellSource handed to a GeneratorProcess so the time spent
/// producing cells shows as its own layer.
class ProbedSource final : public traffic::CellSource {
 public:
  explicit ProbedSource(std::unique_ptr<traffic::CellSource> inner)
      : CellSource(inner->vc(), inner->tag()), inner_(std::move(inner)) {}
  traffic::CellArrival next() override {
    return probe(kSpanNext, [&] { return inner_->next(); });
  }

 private:
  std::unique_ptr<traffic::CellSource> inner_;
};

/// What the counters and checks need to see of any rig.
struct RigView {
  netsim::Simulation* net = nullptr;
  rtl::Simulator* hdl = nullptr;
  rtl::ClockGen* clock = nullptr;
  cosim::VerificationSession* session = nullptr;
  const cosim::BoardBackend* board = nullptr;
};

/// One built workload instance: the rig, its generators and its checks.
class Instance {
 public:
  virtual ~Instance() = default;
  virtual RigView view() = 0;
  /// Checks every output after the run; appends failed checks.
  virtual void check(std::vector<std::string>& failures) = 0;

  SimTime limit;
  std::uint64_t offered = 0;
  std::vector<traffic::GeneratorProcess*> generators;

 protected:
  /// One generator per trace, connected to gateway stream i.
  void drive(netsim::Simulation& net, netsim::Node& env,
             cosim::VerificationSession& session,
             const std::vector<traffic::CellTrace>& traces,
             const std::string& prefix) {
    for (std::size_t i = 0; i < traces.size(); ++i) {
      auto& gen = env.add_process<traffic::GeneratorProcess>(
          traces.size() == 1 ? prefix : prefix + std::to_string(i),
          std::make_unique<ProbedSource>(
              std::make_unique<traffic::TraceSource>(traces[i])),
          traces[i].size());
      net.connect(gen, 0, session.gateway(), static_cast<unsigned>(i));
      generators.push_back(&gen);
    }
    offered = total_cells(traces);
    limit = rigs::SwitchRig::horizon(traces) + kDrain;
  }
};

void expect(std::vector<std::string>& failures, bool ok,
            const std::string& what) {
  if (!ok) failures.push_back(what);
}

/// Checks shared by every workload: a clean comparator, no causality error
/// on any backend, and every cell delivered by the primary.
void check_session(cosim::VerificationSession& session,
                   std::uint64_t expected_primary_responses,
                   std::uint64_t expected_matches,
                   std::vector<std::string>& failures) {
  const cosim::SessionComparator& cmp = session.comparator();
  expect(failures, cmp.clean(), "comparator: " + cmp.report());
  expect(failures, cmp.responses_matched() == expected_matches,
         "comparator matched " + std::to_string(cmp.responses_matched()) +
             " of " + std::to_string(expected_matches));
  const cosim::VerificationSession::Stats st = session.stats();
  for (const auto& b : st.backends) {
    expect(failures, b.causality_errors == 0,
           "backend " + b.name + ": " + std::to_string(b.causality_errors) +
               " causality errors");
  }
  expect(failures, st.backends.at(0).responses == expected_primary_responses,
         "primary delivered " + std::to_string(st.backends.at(0).responses) +
             " of " + std::to_string(expected_primary_responses));
}

// --- switch_cbr: E1 configuration B on the switch rig ----------------------
// Runnable by name and reproduced by the paper cross-check, but not among
// BENCHMARK.json's workloads: its host-time spread between runs exceeds the
// bound (castbench/layers.json, "switch_cbr").

class SwitchInstance final : public Instance {
 public:
  SwitchInstance(const std::vector<traffic::CellTrace>& traces)
      : rig(std::make_unique<rigs::SwitchRig>()) {
    rigs::SwitchRig& r = *rig;
    // The rig's own input mapping and monitors, re-registered behind
    // probes (re-registration replaces the callback, keeps the delta).
    for (std::size_t pt = 0; pt < rigs::SwitchRig::kPorts; ++pt) {
      const auto type = static_cast<cosim::MessageType>(pt);
      r.rtl.entity().register_input(
          type, 53, [&r, pt](const cosim::TimedMessage& m) {
            probe(kSpanMapIn, [&] { r.ports.drivers[pt]->enqueue(*m.cell); });
          });
      r.ports.monitors[pt]->set_callback([&r, type](const atm::Cell& c) {
        probe(kSpanMonitor,
              [&] { r.rtl.entity().send_cell_response(type, c); });
      });
      r.refb.register_input(type, 1, [&r, pt](const cosim::TimedMessage& m) {
        probe(kSpanRef, [&] {
          if (const auto routed = r.ref.route(pt, *m.cell)) {
            r.refb.respond(routed->out_port, m.timestamp, routed->cell);
          }
        });
      });
    }
    drive(r.net, r.env, r.session, traces, "gen");
  }

  RigView view() override {
    return {&rig->net, &rig->hdl, &rig->clock, &rig->session, nullptr};
  }

  void check(std::vector<std::string>& failures) override {
    check_session(rig->session, offered, offered, failures);
  }

  std::unique_ptr<rigs::SwitchRig> rig;
};

// --- gcu_hybrid: E1 configuration C on VerificationSession -----------------

class GcuInstance final : public Instance {
 public:
  GcuInstance(const std::vector<traffic::CellTrace>& traces)
      : rig(std::make_unique<GcuRig>()) {
    drive(rig->net, rig->env, rig->session, traces, "gen");
  }

  RigView view() override {
    return {&rig->net, &rig->hdl, &rig->clock, &rig->session, nullptr};
  }

  void check(std::vector<std::string>& failures) override {
    check_session(rig->session, offered, offered, failures);
    expect(failures, rig->delivered() == offered,
           "GCU granted " + std::to_string(rig->delivered()) + " of " +
               std::to_string(offered));
    expect(failures, rig->grant_mismatches() == 0,
           std::to_string(rig->grant_mismatches()) +
               " granted cells not forwarded as SwitchRef routed them");
  }

  std::unique_ptr<GcuRig> rig;
};

// --- accounting_board: the Fig. 5 three-backend rig over kSocket -----------

class AccountingInstance final : public Instance {
 public:
  explicit AccountingInstance(const traffic::CellTrace& trace) {
    rigs::AccountingRig::Params p;
    p.session.transport = cosim::TransportKind::kSocket;
    rig = std::make_unique<rigs::AccountingRig>(p);
    rigs::AccountingRig& r = *rig;
    r.rtl.entity().register_input(0, 53, [&r](const cosim::TimedMessage& m) {
      probe(kSpanMapIn, [&] { r.driver.enqueue(*m.cell); });
    });
    r.refb.register_input(0, 1, [&r](const cosim::TimedMessage& m) {
      probe(kSpanRef, [&] { r.ref.observe(*m.cell); });
    });
    // The primary's register readback arrives after the horizon, through
    // the response handler.
    r.session->set_response_handler(
        [this](const cosim::TimedMessage& m) { primary_words_ = m.words; });
    for (const auto& a : trace.arrivals()) clp1_ += a.cell.header.clp ? 1 : 0;
    drive(r.net, r.env, *r.session, {trace}, "gen");
  }

  RigView view() override {
    return {&rig->net, &rig->hdl, &rig->clock, rig->session.get(),
            rig->brd.get()};
  }

  void check(std::vector<std::string>& failures) override {
    // One word response per backend; the two checking backends each match
    // the primary's.
    check_session(*rig->session, 1, 2, failures);
    const std::vector<std::uint64_t> want{offered, clp1_, offered - clp1_};
    expect(failures, primary_words_ == want,
           "RTL accounting unit read back other count/CLP1/charge words "
           "than the trace implies");
    expect(failures,
           rig->ref.count(0) == offered && rig->ref.clp1_count(0) == clp1_ &&
               rig->ref.charge(0) == offered - clp1_,
           "reference accounting model disagrees with the trace");
  }

  std::unique_ptr<rigs::AccountingRig> rig;

 private:
  std::uint64_t clp1_ = 0;
  std::vector<std::uint64_t> primary_words_;
};

std::unique_ptr<Instance> build(const RepSpec& spec) {
  const std::size_t cells = default_cells(spec.workload);
  switch (spec.workload) {
    case Workload::kSwitchCbr:
    case Workload::kGcuHybrid: {
      const std::vector<traffic::CellTrace> traces =
          spec.traffic == TrafficKind::kE1 ? e1_traffic(cells)
                                           : switch_traffic(spec.seed, cells);
      if (spec.workload == Workload::kSwitchCbr)
        return std::make_unique<SwitchInstance>(traces);
      return std::make_unique<GcuInstance>(traces);
    }
    case Workload::kAccountingBoard:
      return std::make_unique<AccountingInstance>(
          accounting_traffic(spec.seed, cells));
  }
  return nullptr;
}

const char* backend_suffix(const std::string& backend_name) {
  if (backend_name == "rtl") return "rtl";
  if (backend_name == "reference") return "ref";
  if (backend_name == "board") return "board";
  return nullptr;
}

std::map<std::string, double> work_counters(Instance& inst) {
  const RigView v = inst.view();
  std::map<std::string, double> c;
  const auto cells = static_cast<double>(inst.offered);
  const auto per_cell = [cells](double x) { return cells > 0 ? x / cells : 0; };

  std::uint64_t traffic_cells = 0;
  for (const auto* g : inst.generators) traffic_cells += g->cells_sent();
  c["traffic.cells"] = static_cast<double>(traffic_cells);

  const Scheduler& sched = v.net->scheduler();
  c["dsim.events"] = static_cast<double>(sched.events_executed());
  c["dsim.events_per_cell"] = per_cell(c["dsim.events"]);
  c["dsim.wheel.resizes"] = static_cast<double>(sched.wheel_stats().resizes);
  c["dsim.wheel.overflow_hits"] =
      static_cast<double>(sched.wheel_stats().overflow_hits);

  const cosim::VerificationSession::Stats st = v.session->stats();
  for (const std::string& b : backend_suffixes()) c["sync.windows." + b] = 0;
  double windows = 0, stalls = 0, causality = 0;
  for (const auto& b : st.backends) {
    if (const char* sfx = backend_suffix(b.name))
      c[std::string("sync.windows.") + sfx] = static_cast<double>(b.windows);
    windows += static_cast<double>(b.windows);
    stalls += static_cast<double>(b.lookahead_stalls);
    causality += static_cast<double>(b.causality_errors);
  }
  c["sync.windows_per_cell"] = per_cell(windows);
  c["sync.lookahead_stalls"] = stalls;
  c["sync.causality_errors"] = causality;
  c["session.net_events"] = static_cast<double>(st.net_events);
  c["session.messages_to_hdl"] = static_cast<double>(st.messages_to_hdl);
  c["session.responses"] = static_cast<double>(st.responses);

  cosim::MessageTransport& wire = v.session->gateway_transport();
  c["wire.messages"] = static_cast<double>(wire.messages_sent());
  const auto* sock = dynamic_cast<const cosim::SocketMessageTransport*>(&wire);
  c["wire.bytes_sent"] = sock ? static_cast<double>(sock->bytes_sent()) : 0.0;
  c["wire.bytes_per_cell"] = per_cell(c["wire.bytes_sent"]);

  const cosim::SessionComparator& cmp = v.session->comparator();
  c["cmp.compared"] = static_cast<double>(cmp.responses_compared());
  c["cmp.matched"] = static_cast<double>(cmp.responses_matched());
  c["cmp.divergences"] = static_cast<double>(cmp.divergences().size());

  const rtl::KernelStats& k = v.hdl->stats();
  const auto clk = static_cast<double>(v.clock->rising_edges());
  c["rtl.clk_cycles"] = clk;
  c["rtl.activations"] = static_cast<double>(k.process_activations);
  c["rtl.transactions"] = static_cast<double>(k.transactions);
  c["rtl.value_changes"] = static_cast<double>(k.value_changes);
  c["rtl.delta_cycles"] = static_cast<double>(k.delta_cycles);
  c["rtl.time_points"] = static_cast<double>(k.time_points);
  c["rtl.gated_skips"] = static_cast<double>(k.gated_skips);
  c["rtl.fallback_points"] = static_cast<double>(k.fallback_points);
  c["rtl.activations_per_clk"] =
      clk > 0 ? static_cast<double>(k.process_activations) / clk : 0;
  const double gated = static_cast<double>(k.gated_skips);
  const double woken = gated + static_cast<double>(k.process_activations);
  c["rtl.gated_skip_ratio"] = woken > 0 ? gated / woken : 0;

  c["board.test_cycles"] =
      v.board ? static_cast<double>(v.board->totals().test_cycles) : 0.0;
  c["board.hw_cycles"] =
      v.board ? static_cast<double>(v.board->totals().totals.cycles) : 0.0;
  return c;
}

std::string layer_of(const SpanRec& s) {
  if (s.name == kSpanRun) return "trace.unattributed_s";
  if (s.name == kSpanNext) return "traffic.next_s";
  if (s.name == kSpanMapIn) return "castanet.map_in_s";
  if (s.name == kSpanMonitor) return "castanet.monitor_s";
  if (s.name == kSpanRef) return "hw.ref_s";
  // Only the RTL backend's kernel: the board's device model runs its own
  // kernel, whose slices belong to the board's grant.
  if (s.name == "rtl.slice" && s.track == "backend:rtl") return "rtl.slice_s";
  if (s.name == "grant") {
    const std::string prefix = "backend:";
    if (s.track.rfind(prefix, 0) == 0) {
      if (const char* sfx = backend_suffix(s.track.substr(prefix.size())))
        return std::string("castanet.grant_self_s.") + sfx;
    }
  }
  return "";
}

/// Splits the traced run_until across the layers.  Every span's self time
/// lands in exactly one layer, so the layers sum to the run's host time.
std::map<std::string, double> layer_split(std::vector<std::string>& failures) {
  telemetry::Hub& hub = telemetry::Hub::instance();
  std::map<std::string, double> out;
  for (const char* name :
       {"traffic.next_s", "castanet.map_in_s",
        "castanet.monitor_s", "castanet.compare_s", "rtl.slice_s", "hw.ref_s",
        "trace.unattributed_s"}) {
    out[name] = 0.0;
  }
  for (const std::string& b : backend_suffixes())
    out["castanet.grant_self_s." + b] = 0.0;
  expect(failures, hub.trace_events_dropped() == 0,
         "trace ring overflowed; the layer split would be incomplete");
  const auto spans = parse_chrome_trace(hub.chrome_trace_json());
  for (const auto& [layer, s] : layer_seconds(spans, &layer_of)) {
    out[layer] += s;
  }
  // The comparator is timed (session.compare_ns), not spanned; it runs
  // between the grant spans, inside the unattributed remainder.
  const double compare_s = hub.timing("session.compare_ns").sum() * 1e-9;
  out["castanet.compare_s"] = compare_s;
  out["trace.unattributed_s"] -= compare_s;
  return out;
}

}  // namespace

std::optional<Workload> workload_from_name(const std::string& name) {
  for (Workload w : {Workload::kSwitchCbr, Workload::kGcuHybrid,
                     Workload::kAccountingBoard}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSwitchCbr: return "switch_cbr";
    case Workload::kGcuHybrid: return "gcu_hybrid";
    case Workload::kAccountingBoard: return "accounting_board";
  }
  return "?";
}

RepResult run_rep(const RepSpec& spec) {
  RepResult r;
  telemetry::Hub& hub = telemetry::Hub::instance();
  try {
    const alloc::Totals a0 = alloc::totals();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Instance> inst = build(spec);
    r.setup_s = seconds_since(t0);
    const alloc::Totals a1 = alloc::totals();
    r.cells_offered = inst->offered;
    cosim::VerificationSession& session = *inst->view().session;

    if (spec.traced) hub.enable(kRingCapacity);
    const Clock::time_point t1 = Clock::now();
    probe(kSpanRun, [&] { session.run_until(inst->limit); });
    r.run_s = seconds_since(t1);
    const alloc::Totals a2 = alloc::totals();
    if (spec.traced) {
      r.layer_s = layer_split(r.failures);
      hub.reset();
    }

    session.comparator().finish();
    inst->check(r.failures);
    r.counters = work_counters(*inst);
    const double run_allocs = static_cast<double>(a2.count - a1.count);
    r.allocs["alloc.setup_count"] = static_cast<double>(a1.count - a0.count);
    r.allocs["alloc.run_count"] = run_allocs;
    r.allocs["alloc.run_bytes"] = static_cast<double>(a2.bytes - a1.bytes);
    r.allocs["alloc.per_clk"] = run_allocs / r.counters["rtl.clk_cycles"];
  } catch (const std::exception& e) {
    hub.reset();
    r.failures.push_back(std::string("exception: ") + e.what());
  }
  r.cells_verified = r.failures.empty() ? r.cells_offered : 0;
  return r;
}

}  // namespace castbench
