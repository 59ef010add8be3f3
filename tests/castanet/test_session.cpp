#include "src/castanet/session.hpp"

#include <gtest/gtest.h>

#include "src/castanet/backend.hpp"
#include "src/castanet/board_driver.hpp"
#include "src/castanet/regression.hpp"
#include "src/core/error.hpp"
#include "src/hw/cell_bits.hpp"
#include "src/hw/cell_rx.hpp"
#include "src/traffic/processes.hpp"

namespace castanet::cosim {
namespace {

constexpr SimTime kClkPeriod = SimTime::from_ns(50);

atm::Cell mk(std::uint16_t vci, std::uint8_t fill = 0) {
  atm::Cell c;
  c.header.vpi = 1;
  c.header.vci = vci;
  c.payload.fill(fill);
  return c;
}

// ---------------------------------------------------------------------------
// SessionComparator units.

TEST(SessionComparator, IdenticalStreamsClean) {
  SessionComparator cmp;
  cmp.attach(2);
  for (int i = 0; i < 8; ++i) {
    const auto m = make_cell_message(0, SimTime::from_us(i),
                                     mk(1, static_cast<std::uint8_t>(i)));
    cmp.note_response(0, m);
    cmp.note_response(1, m);
  }
  cmp.finish();
  EXPECT_TRUE(cmp.clean());
  EXPECT_EQ(cmp.responses_compared(), 8u);
  EXPECT_EQ(cmp.responses_matched(), 8u);
}

TEST(SessionComparator, FirstDivergenceCarriesBothTimes) {
  SessionComparator cmp;
  cmp.attach(2);
  for (int i = 0; i < 5; ++i) {
    cmp.note_response(0, make_cell_message(3, SimTime::from_us(10 + i),
                                           mk(1, static_cast<std::uint8_t>(i))));
  }
  // Backend 1 agrees on slots 0-1, diverges at slot 2, then keeps
  // disagreeing — only the FIRST divergence must be recorded.
  for (int i = 0; i < 5; ++i) {
    const std::uint8_t fill = i >= 2 ? 0xEE : static_cast<std::uint8_t>(i);
    cmp.note_response(1, make_cell_message(3, SimTime::from_us(20 + i),
                                           mk(1, fill)));
  }
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  const auto d = cmp.first_divergence(3);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->backend, 1u);
  EXPECT_EQ(d->stream, 3u);
  EXPECT_EQ(d->index, 2u);
  EXPECT_EQ(d->primary_time, SimTime::from_us(12));
  EXPECT_EQ(d->backend_time, SimTime::from_us(22));
  EXPECT_NE(d->detail.find("payload"), std::string::npos);
}

TEST(SessionComparator, LateJoiningBackendSeesEarlyPrimarySlots) {
  SessionComparator cmp;
  cmp.attach(3);
  // Primary and backend 1 exchange 6 responses before backend 2's first
  // (e.g. a counter readback emitted only at finish) — the early primary
  // slots must still be intact for backend 2 to match against.
  for (int i = 0; i < 6; ++i) {
    const auto m = make_cell_message(0, SimTime::from_us(i),
                                     mk(1, static_cast<std::uint8_t>(i)));
    cmp.note_response(0, m);
    cmp.note_response(1, m);
  }
  for (int i = 0; i < 6; ++i) {
    cmp.note_response(2, make_cell_message(0, SimTime::from_us(50 + i),
                                           mk(1, static_cast<std::uint8_t>(i))));
  }
  cmp.finish();
  EXPECT_TRUE(cmp.clean()) << cmp.report();
  EXPECT_EQ(cmp.responses_matched(), 12u);
}

TEST(SessionComparator, ResponseCountShortfallCaughtAtFinish) {
  SessionComparator cmp;
  cmp.attach(2);
  cmp.note_response(0, make_cell_message(0, SimTime::from_us(1), mk(1, 1)));
  cmp.note_response(0, make_cell_message(0, SimTime::from_us(2), mk(1, 2)));
  cmp.note_response(1, make_cell_message(0, SimTime::from_us(3), mk(1, 1)));
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_EQ(cmp.divergences()[0].index, 1u);
  // The missing slot's primary time stamp points at what to debug.
  EXPECT_EQ(cmp.divergences()[0].primary_time, SimTime::from_us(2));
}

TEST(SessionComparator, ExtraResponsesCaughtAtFinish) {
  SessionComparator cmp;
  cmp.attach(2);
  cmp.note_response(0, make_cell_message(0, SimTime::from_us(1), mk(1, 1)));
  cmp.note_response(1, make_cell_message(0, SimTime::from_us(2), mk(1, 1)));
  cmp.note_response(1, make_cell_message(0, SimTime::from_us(3), mk(1, 9)));
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_EQ(cmp.divergences()[0].backend_time, SimTime::from_us(3));
}

TEST(SessionComparator, WordResponsesComparedElementwise) {
  SessionComparator cmp;
  cmp.attach(2);
  cmp.note_response(0, make_word_message(7, SimTime::from_us(1), {120, 0, 120}));
  cmp.note_response(1, make_word_message(7, SimTime::from_us(1), {120, 0, 60}));
  cmp.finish();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_NE(cmp.divergences()[0].detail.find("word 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serial sessions: one testbench, RTL + reference backends.

/// Fig. 5's reuse rig: traffic generator -> gateway -> session, fanned to
/// (a) the RTL cell receiver behind the co-simulation entity and (b) an
/// echo reference model.  `corrupt_from`: the reference starts flipping
/// payload octet 0 at that cell index (divergence-injection for tests).
struct SessionRig {
  netsim::Simulation net;
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClkPeriod};
  hw::CellPort lane = hw::make_cell_port(hdl, "lane");
  hw::CellPortDriver driver{hdl, "drv", clk, lane};
  hw::CellReceiver rx{hdl, "rx", clk, rst, lane};

  netsim::Node& env = net.add_node("env");
  RtlBackend rtl;
  ReferenceBackend refb;
  VerificationSession session;
  traffic::SinkProcess* sink = nullptr;
  std::uint64_t ref_seen = 0;

  SessionRig(VerificationSession::Params sp, ConservativeSync::Params sync,
             std::uint64_t cells, SimTime period,
             std::uint64_t corrupt_from = ~std::uint64_t{0})
      : rtl("rtl", hdl, sync),
        refb("reference", sync),
        session(net, env, 1, sp) {
    session.attach(rtl);
    session.attach(refb);
    auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                    period);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen", std::move(src), cells);
    sink = &env.add_process<traffic::SinkProcess>("sink");
    net.connect(gen, 0, session.gateway(), 0);
    net.connect(session.gateway(), 0, *sink, 0);

    rtl.register_input(0, 53, [this](const TimedMessage& m) {
      ASSERT_TRUE(m.cell.has_value());
      driver.enqueue(*m.cell);
    });
    hdl.add_process("respond", {rx.cell_valid.id()}, [this] {
      if (rx.cell_valid.rose()) {
        rtl.send_cell_response(
            0, hw::bits_to_cell(rx.cell_out.read(), false));
      }
    });
    refb.register_input(0, 1, [this, corrupt_from](const TimedMessage& m) {
      atm::Cell c = *m.cell;
      if (ref_seen++ >= corrupt_from) c.payload[0] ^= 0xFF;
      refb.respond(0, m.timestamp, c);
    });
  }
};

ConservativeSync::Params sync_params(
    SyncPolicy policy = SyncPolicy::kGlobalOrder) {
  ConservativeSync::Params p;
  p.policy = policy;
  p.clock_period = kClkPeriod;
  return p;
}

TEST(VerificationSession, HonestRigHasZeroDivergences) {
  SessionRig rig({}, sync_params(), 20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(400));
  rig.session.comparator().finish();
  // The primary's responses still close the Fig. 2 loop into the network.
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  EXPECT_TRUE(rig.session.comparator().clean())
      << rig.session.comparator().report();
  EXPECT_EQ(rig.session.comparator().responses_matched(), 20u);
  const auto stats = rig.session.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  for (const auto& b : stats.backends) {
    EXPECT_EQ(b.causality_errors, 0u) << b.name;
    EXPECT_GT(b.windows, 0u) << b.name;
    EXPECT_EQ(b.responses, 20u) << b.name;
  }
  EXPECT_EQ(rig.refb.messages_applied(), 20u);
}

TEST(VerificationSession, RepeatedRunsAccumulate) {
  // A second run_until continues from the first call's final state.
  SessionRig rig({}, sync_params(), 20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(60));
  EXPECT_EQ(rig.session.stats().backends[0].causality_errors, 0u);
  rig.session.run_until(SimTime::from_us(400));
  rig.session.comparator().finish();
  EXPECT_EQ(rig.rx.cells_accepted(), 20u);
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  EXPECT_TRUE(rig.session.comparator().clean())
      << rig.session.comparator().report();
  for (const auto& b : rig.session.stats().backends) {
    EXPECT_EQ(b.causality_errors, 0u) << b.name;
  }
}

TEST(VerificationSession, CorruptedReferenceFlaggedWithStreamAndTime) {
  SessionRig rig({}, sync_params(), 10, SimTime::from_us(5),
                 /*corrupt_from=*/3);
  rig.session.run_until(SimTime::from_us(250));
  rig.session.comparator().finish();
  SessionComparator& cmp = rig.session.comparator();
  EXPECT_FALSE(cmp.clean());
  // One root cause, one report: the lane freezes after the first hit.
  ASSERT_EQ(cmp.divergences().size(), 1u);
  const auto d = cmp.first_divergence(0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->backend, 1u);
  EXPECT_EQ(d->stream, 0u);
  EXPECT_EQ(d->index, 3u);
  // The time stamps bracket where to debug: the reference reacted at the
  // stimulus time, the RTL a processing delay later.
  EXPECT_GT(d->backend_time, SimTime::zero());
  EXPECT_GT(d->primary_time, d->backend_time);
  EXPECT_NE(d->detail.find("payload"), std::string::npos);
}

TEST(VerificationSession, ThreeBackendFanOutIsolatesTheLiar) {
  // Pure-model session: three reference backends (echo primary, honest
  // echo, corrupted echo).  Only the corrupted backend may be flagged.
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  ReferenceBackend b("honest", sync_params());
  ReferenceBackend c("corrupt", sync_params());
  for (ReferenceBackend* r : {&a, &b, &c}) {
    const bool corrupt = r == &c;
    r->register_input(0, 1, [r, corrupt](const TimedMessage& m) {
      atm::Cell cell = *m.cell;
      if (corrupt) cell.header.clp = !cell.header.clp;
      r->respond(0, m.timestamp, cell);
    });
  }
  VerificationSession session(net, env, 1, {});
  session.attach(a);
  session.attach(b);
  session.attach(c);
  session.set_response_handler([](const TimedMessage&) {});
  auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                  SimTime::from_us(5));
  auto& gen = env.add_process<traffic::GeneratorProcess>("gen",
                                                         std::move(src), 12);
  net.connect(gen, 0, session.gateway(), 0);
  session.run_until(SimTime::from_us(200));
  session.comparator().finish();
  SessionComparator& cmp = session.comparator();
  ASSERT_EQ(cmp.divergences().size(), 1u);
  EXPECT_EQ(cmp.divergences()[0].backend, 2u);
  EXPECT_EQ(cmp.divergences()[0].index, 0u);
  const auto stats = session.stats();
  ASSERT_EQ(stats.backends.size(), 3u);
  for (const auto& bs : stats.backends) EXPECT_EQ(bs.causality_errors, 0u);
}

TEST(VerificationSession, FinishHookResponsesReachComparator) {
  // Counter-readback shape: every backend responds only from its finish
  // hook, after the horizon — two reference backends, the RTL path and the
  // board path (whose hook runs after the last batch reached its device).
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  ReferenceBackend b("other", sync_params());
  std::uint64_t count_a = 0, count_b = 0, count_rtl = 0;
  a.register_input(0, 1, [&](const TimedMessage&) { ++count_a; });
  b.register_input(0, 1, [&](const TimedMessage&) { ++count_b; });
  a.set_finish_hook([&](SimTime at) { a.respond_words(0, at, {count_a}); });
  b.set_finish_hook([&](SimTime at) {
    b.respond_words(0, at, {count_b + 1});  // off-by-one "bug"
  });

  rtl::Simulator hdl;
  RtlBackend rtl("rtl", hdl, sync_params());
  rtl.register_input(0, 1, [&](const TimedMessage&) { ++count_rtl; });
  rtl.set_finish_hook(
      [&](SimTime) { rtl.send_word_response(0, {count_rtl}); });

  board::HardwareTestBoard board;
  board.configure(make_cell_stream_config());
  AccountingBoardDut dut = build_accounting_dut(8);
  dut.unit->set_tariff(0, hw::Tariff{1, 0});
  dut.unit->bind_connection({1, 100}, 0, 0);
  dut.adapter->reset();
  BoardBackend::Params bp;
  bp.sync = sync_params();
  BoardBackend brd("board", board, *dut.adapter, bp);
  brd.register_cell_input(0, 1);
  brd.set_finish_hook([&](SimTime at) {
    brd.respond_words(0, at, {dut.unit->count(0)});
  });

  VerificationSession session(net, env, 1, {});
  session.attach(a);
  session.attach(b);
  session.attach(rtl);
  session.attach(brd);
  session.set_response_handler([](const TimedMessage&) {});
  auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                  SimTime::from_us(5));
  auto& gen = env.add_process<traffic::GeneratorProcess>("gen",
                                                         std::move(src), 5);
  net.connect(gen, 0, session.gateway(), 0);
  session.run_until(SimTime::from_us(100));
  session.comparator().finish();
  EXPECT_EQ(count_a, 5u);
  EXPECT_EQ(count_rtl, 5u);
  EXPECT_EQ(dut.unit->count(0), 5u);  // the partial batch ran before the hook
  for (const auto& bs : session.stats().backends)
    EXPECT_EQ(bs.responses, 1u) << bs.name;
  EXPECT_EQ(session.comparator().responses_matched(), 2u);
  ASSERT_EQ(session.comparator().divergences().size(), 1u);
  EXPECT_EQ(session.comparator().divergences()[0].backend, 1u);
  EXPECT_NE(session.comparator().divergences()[0].detail.find("word 0"),
            std::string::npos);
}

TEST(VerificationSession, AttachAfterRunRejected) {
  netsim::Simulation net;
  netsim::Node& env = net.add_node("env");
  ReferenceBackend a("primary", sync_params());
  a.register_input(0, 1, [](const TimedMessage&) {});
  VerificationSession session(net, env, 1, {});
  session.attach(a);
  session.run_until(SimTime::from_us(10));
  ReferenceBackend late("late", sync_params());
  EXPECT_THROW(session.attach(late), Error);
}

// ---------------------------------------------------------------------------
// RtlBackend on its own (Fig. 2's co-simulation entity in the HDL
// simulator), driven with push + catch_up instead of a session.

struct RtlBackendRig {
  rtl::Simulator hdl;
  RtlBackend rtl{"rtl", hdl, sync_params()};

  /// Grants every window the pushed stream allows.
  void catch_up() { rtl.catch_up(SimTime::from_ms(1)); }
  std::vector<TimedMessage> drain() {
    std::vector<TimedMessage> out;
    rtl.drain_responses(out);
    return out;
  }
};

TEST(RtlBackend, AppliesMessagesAtTheirTimeStamps) {
  RtlBackendRig rig;
  std::vector<std::pair<SimTime, std::uint64_t>> applied;
  rig.rtl.register_input(0, 1, [&](const TimedMessage& m) {
    applied.emplace_back(rig.hdl.now(), m.words[0]);
  });
  rig.rtl.push(make_word_message(0, SimTime::from_us(3), {30}));
  rig.rtl.push(make_word_message(0, SimTime::from_us(7), {70}));
  rig.rtl.push(make_time_update(SimTime::from_us(20)));
  rig.catch_up();
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_EQ(applied[0], std::make_pair(SimTime::from_us(3), std::uint64_t{30}));
  EXPECT_EQ(applied[1], std::make_pair(SimTime::from_us(7), std::uint64_t{70}));
  EXPECT_EQ(rig.hdl.now(), SimTime::from_us(20) - SimTime::from_ps(1));
}

TEST(RtlBackend, ResponsesCarryHdlTime) {
  RtlBackendRig rig;
  rig.rtl.register_input(0, 1, [&](const TimedMessage&) {
    rig.rtl.send_word_response(5, {99});
  });
  rig.rtl.push(make_word_message(0, SimTime::from_us(2), {1}));
  rig.rtl.push(make_time_update(SimTime::from_us(10)));
  rig.catch_up();
  const std::vector<TimedMessage> out = rig.drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, 5u);
  EXPECT_EQ(out[0].timestamp, SimTime::from_us(2));  // applied at its stamp
  EXPECT_EQ(out[0].words[0], 99u);
  EXPECT_TRUE(rig.drain().empty());  // drained responses are gone
}

TEST(RtlBackend, CellResponsesPreserved) {
  RtlBackendRig rig;
  atm::Cell c;
  c.header.vci = 11;
  rig.rtl.send_cell_response(3, c);
  const std::vector<TimedMessage> out = rig.drain();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_TRUE(out[0].cell.has_value());
  EXPECT_EQ(out[0].cell->header.vci, 11);
}

TEST(RtlBackend, UnregisteredTypeFaults) {
  RtlBackendRig rig;
  rig.rtl.register_input(0, 1, [](const TimedMessage&) {});
  EXPECT_THROW(rig.rtl.push(make_word_message(9, SimTime::from_us(1), {1})),
               ProtocolError);
}

TEST(RtlBackend, CatchUpBelowNowIsALookaheadStall) {
  RtlBackendRig rig;
  rig.rtl.register_input(0, 1, [](const TimedMessage&) {});
  rig.rtl.push(make_time_update(SimTime::from_us(5)));
  rig.rtl.catch_up(SimTime::from_us(4));
  EXPECT_EQ(rig.hdl.now(), SimTime::from_us(4));
  const std::uint64_t stalls = rig.rtl.sync().lookahead_stalls();
  rig.rtl.catch_up(SimTime::from_us(1));  // behind: nothing granted
  EXPECT_EQ(rig.hdl.now(), SimTime::from_us(4));
  EXPECT_EQ(rig.rtl.sync().lookahead_stalls(), stalls + 1);
}

TEST(RtlBackend, WindowTracksOriginatorClock) {
  RtlBackendRig rig;
  rig.rtl.register_input(0, 1, [](const TimedMessage&) {});
  EXPECT_EQ(rig.rtl.window(), SimTime::zero());
  rig.rtl.push(make_time_update(SimTime::from_us(4)));
  EXPECT_EQ(rig.rtl.window(), SimTime::from_us(4));
}

TEST(RtlBackend, ManyTypesInterleaved) {
  RtlBackendRig rig;
  std::vector<int> order;
  for (MessageType t = 0; t < 4; ++t) {
    rig.rtl.register_input(t, 1, [&order, t](const TimedMessage&) {
      order.push_back(static_cast<int>(t));
    });
  }
  // Interleave across types in increasing time.
  for (int i = 0; i < 12; ++i) {
    rig.rtl.push(make_word_message(
        static_cast<MessageType>(i % 4),
        SimTime::from_us(static_cast<std::int64_t>(i + 1)), {0}));
  }
  rig.rtl.push(make_time_update(SimTime::from_us(100)));
  rig.catch_up();
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i)
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i % 4);
}

// ---------------------------------------------------------------------------
// Two-party sessions: the Fig. 2 loop with one RTL backend.

/// Traffic generator (network domain) -> gateway -> session -> co-simulation
/// entity -> serial cell lane -> RTL cell receiver (the DUT) -> responses ->
/// gateway -> sink.
struct RtlRig {
  netsim::Simulation net;
  rtl::Simulator hdl;
  rtl::Signal clk{&hdl, hdl.create_signal("clk", 1, rtl::Logic::L0)};
  rtl::Signal rst{&hdl, hdl.create_signal("rst", 1, rtl::Logic::L0)};
  rtl::ClockGen clock{hdl, clk, kClkPeriod};
  hw::CellPort lane = hw::make_cell_port(hdl, "lane");
  hw::CellPortDriver driver{hdl, "drv", clk, lane};
  hw::CellReceiver rx{hdl, "rx", clk, rst, lane};

  netsim::Node& env = net.add_node("env");
  RtlBackend rtl;
  VerificationSession session;
  traffic::SinkProcess* sink = nullptr;

  RtlRig(SyncPolicy policy, std::uint64_t cells, SimTime period,
         VerificationSession::Params sp = {})
      : rtl("rtl", hdl, sync_params(policy)), session(net, env, 1, sp) {
    session.attach(rtl);
    auto src = std::make_unique<traffic::CbrSource>(atm::VcId{1, 100}, 1,
                                                    period);
    auto& gen = env.add_process<traffic::GeneratorProcess>(
        "gen", std::move(src), cells);
    sink = &env.add_process<traffic::SinkProcess>("sink");
    net.connect(gen, 0, session.gateway(), 0);
    net.connect(session.gateway(), 0, *sink, 0);

    rtl.register_input(0, 53, [this](const TimedMessage& m) {
      ASSERT_TRUE(m.cell.has_value());
      driver.enqueue(*m.cell);
    });
    // DUT responses: every received cell back to the abstract level.
    hdl.add_process("respond", {rx.cell_valid.id()}, [this] {
      if (rx.cell_valid.rose()) {
        rtl.send_cell_response(
            0, hw::bits_to_cell(rx.cell_out.read(), false));
      }
    });
  }

  VerificationSession::BackendStats rtl_stats() const {
    return session.stats().backends[0];
  }
};

TEST(RtlSession, AllCellsRoundTripThroughRtlDut) {
  RtlRig rig(SyncPolicy::kGlobalOrder, 20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(400));
  EXPECT_EQ(rig.rx.cells_accepted(), 20u);
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  // Content preserved end to end.
  for (std::size_t i = 0; i < rig.sink->log().size(); ++i) {
    EXPECT_EQ(traffic::cell_sequence(rig.sink->log()[i].cell), i);
  }
}

TEST(RtlSession, HdlTimeAlwaysLagsNetworkTime) {
  RtlRig rig(SyncPolicy::kGlobalOrder, 10, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(200));
  const auto stats = rig.rtl_stats();
  EXPECT_EQ(stats.causality_errors, 0u);
  EXPECT_GT(stats.max_lag_seconds, 0.0);
  EXPECT_GT(stats.windows, 0u);
}

TEST(RtlSession, MessageCountsMatchTraffic) {
  RtlRig rig(SyncPolicy::kGlobalOrder, 15, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(300));
  EXPECT_EQ(rig.session.stats().messages_to_hdl, 15u);
  EXPECT_EQ(rig.rtl_stats().responses, 15u);
  EXPECT_EQ(rig.session.gateway().forwarded(), 15u);
  EXPECT_EQ(rig.session.gateway().responses_emitted(), 15u);
}

TEST(RtlSession, TimeWindowPolicyAlsoDelivers) {
  // CBR spacing (5 us) exceeds delta (53 cycles = 2.65 us), satisfying the
  // paper's spacing assumption for the time-window rule.
  RtlRig rig(SyncPolicy::kTimeWindow, 20, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(400));
  EXPECT_EQ(rig.sink->cells_received(), 20u);
  EXPECT_EQ(rig.rtl_stats().causality_errors, 0u);
}

TEST(RtlSession, LockstepPolicyDeliversSlowly) {
  RtlRig rig(SyncPolicy::kLockstep, 5, SimTime::from_us(5));
  rig.session.run_until(SimTime::from_us(100));
  EXPECT_EQ(rig.sink->cells_received(), 5u);
  // Lockstep grants one clock per window: far more windows than the
  // message-driven policies need.
  EXPECT_GT(rig.rtl_stats().windows, 100u);
}

TEST(RtlSession, ResponseLatencyDelaysReinjection) {
  VerificationSession::Params sp;
  sp.response_latency = SimTime::from_us(50);
  RtlRig rig(SyncPolicy::kGlobalOrder, 3, SimTime::from_us(5), sp);
  rig.session.run_until(SimTime::from_us(300));
  ASSERT_EQ(rig.sink->log().size(), 3u);
  // The response is computed after ~53 HDL cycles and re-enters the network
  // model no earlier than the configured 50 us latency after that.
  EXPECT_GE(rig.sink->log()[0].time, SimTime::from_us(50));
}

TEST(RtlSession, CustomResponseHandlerOverridesDefault) {
  RtlRig rig(SyncPolicy::kGlobalOrder, 4, SimTime::from_us(5));
  std::vector<TimedMessage> captured;
  rig.session.set_response_handler(
      [&](const TimedMessage& m) { captured.push_back(m); });
  rig.session.run_until(SimTime::from_us(200));
  EXPECT_EQ(captured.size(), 4u);
  EXPECT_EQ(rig.sink->cells_received(), 0u);  // default path bypassed
  for (const auto& m : captured) {
    EXPECT_TRUE(m.cell.has_value());
  }
}

TEST(RtlSession, IpcOverheadAccountedOnGatewayChannel) {
  VerificationSession::Params sp;
  sp.ipc_overhead_per_message = SimTime::from_us(1);
  RtlRig rig(SyncPolicy::kGlobalOrder, 10, SimTime::from_us(5), sp);
  rig.session.run_until(SimTime::from_us(200));
  EXPECT_EQ(rig.session.gateway_transport().transport_overhead(),
            SimTime::from_us(10));
}

// ---------------------------------------------------------------------------
// Cross-binding regression (the session idea at regression granularity).

TEST(RegressionCrossRun, AgreementAndDisagreementPerBinding) {
  RegressionSuite suite;
  RegressionCase rc;
  rc.name = "echo";
  rc.stimulus.append({SimTime::zero(), mk(1, 0xAB)});
  suite.add_case(std::move(rc));

  const auto echo = [](const RegressionCase& c) {
    CaseResult r;
    for (const auto& a : c.stimulus.arrivals()) r.output.push_back(a.cell);
    r.counters["count"] = c.stimulus.size();
    return r;
  };
  const auto miscounting = [&](const RegressionCase& c) {
    CaseResult r = echo(c);
    r.counters["count"] += 1;
    return r;
  };
  const auto reports = suite.cross_run({{"rtl", echo},
                                        {"reference", echo},
                                        {"board", miscounting}});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].name, "echo:reference");
  EXPECT_TRUE(reports[0].passed);
  EXPECT_EQ(reports[1].name, "echo:board");
  EXPECT_FALSE(reports[1].passed);
  EXPECT_FALSE(RegressionSuite::all_passed(reports));
}

}  // namespace
}  // namespace castanet::cosim
