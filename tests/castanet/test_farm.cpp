// Session farm: fork_map pool mechanics, serial-vs-farm byte identity, and
// the robustness contract — a worker killed mid-run fails only its shard,
// the farm neither hangs nor corrupts sibling results.
#include "src/castanet/farm.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim::farm {
namespace {

// Deterministic-in-the-spec fake session: digest depends only on the
// identity fields, so serial and farm runs must agree byte for byte.
SessionResult fake_run(const SessionSpec& spec) {
  SessionResult r;
  r.ok = true;
  r.responses = spec.seed * 3;
  r.divergences = spec.seed % 2;
  wire::Writer w;
  w.str(spec.scenario);
  w.u64(spec.seed);
  w.str(to_string(spec.transport));
  r.digest = wire::fnv1a(reinterpret_cast<const char*>(w.data().data()),
                         w.data().size());
  // Surfaces the (retagged) trace path so tests can observe collision
  // avoidance without touching the filesystem.
  r.detail = spec.params.string_or("trace_out", "");
  return r;
}

std::vector<SessionSpec> make_specs(std::size_t n) {
  std::vector<SessionSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    SessionSpec s;
    s.id = "fake-" + std::to_string(i);
    s.scenario = "fake";
    s.seed = i + 1;
    s.transport =
        (i % 2 == 0) ? TransportKind::kInProcess : TransportKind::kSocket;
    s.params = json::Value{json::Object{}};
    specs.push_back(std::move(s));
  }
  return specs;
}

void expect_identical(const SessionResult& a, const SessionResult& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.responses, b.responses);
  EXPECT_EQ(a.divergences, b.divergences);
  EXPECT_EQ(a.digest, b.digest);
  // wall_seconds deliberately excluded: timing is not identity.
}

TEST(ForkMap, RunsEveryItemExactlyOnce) {
  std::vector<std::uint64_t> squares(16, 0);
  std::vector<std::size_t> failed;
  const PoolStats stats = fork_map(
      squares.size(), 4,
      [](std::size_t item, int worker) {
        EXPECT_GE(worker, 0);
        wire::Writer w;
        w.u64(static_cast<std::uint64_t>(item * item));
        return w.data();
      },
      [&](std::size_t item, const std::vector<std::uint8_t>& bytes) {
        squares[item] = wire::Reader(bytes).u64();
      },
      [&](std::size_t item, const std::string&) { failed.push_back(item); });
  EXPECT_TRUE(failed.empty());
  EXPECT_EQ(stats.workers_spawned, 4);
  EXPECT_EQ(stats.workers_failed, 0);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ForkMap, MoreWorkersThanItemsIsFine) {
  int results = 0;
  fork_map(
      2, 8, [](std::size_t item, int) { return std::vector<std::uint8_t>{static_cast<std::uint8_t>(item)}; },
      [&](std::size_t, const std::vector<std::uint8_t>&) { ++results; },
      [](std::size_t, const std::string&) { FAIL(); });
  EXPECT_EQ(results, 2);
}

TEST(Farm, SerialVsFarmByteIdentical) {
  const auto specs = make_specs(9);  // > 2x jobs so workers get several each
  const FarmReport serial = run_serial(specs, fake_run);
  const FarmReport farmed = run_farm(specs, fake_run, FarmParams{4});

  EXPECT_EQ(serial.jobs, 0);
  EXPECT_EQ(farmed.jobs, 4);
  EXPECT_EQ(farmed.workers_spawned, 4);
  EXPECT_EQ(farmed.workers_failed, 0);
  EXPECT_TRUE(serial.all_ok());
  EXPECT_TRUE(farmed.all_ok());
  ASSERT_EQ(serial.results.size(), specs.size());
  ASSERT_EQ(farmed.results.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical(farmed.results[i], serial.results[i]);
  }
}

TEST(Farm, KilledWorkerFailsOnlyItsShard) {
  const pid_t parent = ::getpid();
  const auto specs = make_specs(6);
  // Seed 3's worker process dies abruptly mid-session (only in a farm
  // child — the getpid() guard keeps run_serial alive).
  const SessionRunner killer = [parent](const SessionSpec& spec) {
    if (spec.seed == 3 && ::getpid() != parent) std::_Exit(3);
    return fake_run(spec);
  };
  const FarmReport report = run_farm(specs, killer, FarmParams{3});

  ASSERT_EQ(report.results.size(), specs.size());
  EXPECT_FALSE(report.all_ok());
  EXPECT_EQ(report.workers_failed, 1);
  const FarmReport serial = run_serial(specs, fake_run);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionResult& r = report.results[i];
    if (specs[i].seed == 3) {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("died"), std::string::npos) << r.error;
    } else {
      // Sibling shards are untouched by the crash.
      expect_identical(r, serial.results[i]);
    }
  }
}

TEST(Farm, AllWorkersDeadFailsRemainingWithoutHanging) {
  const pid_t parent = ::getpid();
  const auto specs = make_specs(4);
  const SessionRunner killer = [parent](const SessionSpec& spec) {
    if (::getpid() != parent) std::_Exit(3);
    return fake_run(spec);
  };
  const FarmReport report = run_farm(specs, killer, FarmParams{1});
  EXPECT_EQ(report.workers_failed, 1);
  ASSERT_EQ(report.results.size(), specs.size());
  EXPECT_NE(report.results[0].error.find("died"), std::string::npos);
  for (std::size_t i = 1; i < specs.size(); ++i) {
    EXPECT_FALSE(report.results[i].ok);
    EXPECT_NE(report.results[i].error.find("no surviving"), std::string::npos)
        << report.results[i].error;
  }
}

TEST(Farm, ThrowingRunnerIsAFailedResultNotADeadWorker) {
  const auto specs = make_specs(5);
  const SessionRunner thrower = [](const SessionSpec& spec) {
    if (spec.seed == 2) throw IoError("scenario exploded");
    return fake_run(spec);
  };
  const FarmReport report = run_farm(specs, thrower, FarmParams{2});
  EXPECT_EQ(report.workers_failed, 0);  // worker survived the exception
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SessionResult& r = report.results[i];
    if (specs[i].seed == 2) {
      EXPECT_FALSE(r.ok);
      EXPECT_NE(r.error.find("scenario exploded"), std::string::npos)
          << r.error;
    } else {
      EXPECT_TRUE(r.ok) << r.error;
    }
  }
  // Serial runs map the same exception the same way.
  const FarmReport serial = run_serial(specs, thrower);
  EXPECT_FALSE(serial.results[1].ok);
  EXPECT_NE(serial.results[1].error.find("scenario exploded"),
            std::string::npos);
}

TEST(Farm, EmptyReportIsNotOk) {
  FarmReport empty;
  EXPECT_FALSE(empty.all_ok());
}

// ---------------------------------------------------------------------------
// Trace-path collision avoidance.

TEST(TaggedPath, SuffixesBeforeTheExtension) {
  EXPECT_EQ(tagged_path("t.jsonl", -1, "acct-0-s1"), "t.acct-0-s1.jsonl");
  EXPECT_EQ(tagged_path("t.jsonl", 3, "acct-0-s1"), "t.acct-0-s1.w3.jsonl");
  EXPECT_EQ(tagged_path("out/trace.jsonl", 0, "x"), "out/trace.x.w0.jsonl");
}

TEST(TaggedPath, NoExtensionAndUnsafeIds) {
  EXPECT_EQ(tagged_path("trace", 1, "a b/c"), "trace.a_b_c.w1");
  // A dot in a directory name is not an extension.
  EXPECT_EQ(tagged_path("out.d/trace", -1, "id"), "out.d/trace.id");
}

TEST(Farm, TraceOutRetaggedPerSessionAndWorker) {
  auto specs = make_specs(4);
  for (auto& s : specs) s.params.set("trace_out", "shared/trace.jsonl");

  const FarmReport serial = run_serial(specs, fake_run);
  std::set<std::string> serial_paths;
  for (const SessionResult& r : serial.results) {
    EXPECT_NE(r.detail.find("." + r.id + "."), std::string::npos) << r.detail;
    EXPECT_EQ(r.detail.find(".w"), std::string::npos) << r.detail;
    serial_paths.insert(r.detail);
  }
  EXPECT_EQ(serial_paths.size(), specs.size());  // no collisions

  const FarmReport farmed = run_farm(specs, fake_run, FarmParams{2});
  std::set<std::string> farm_paths;
  for (const SessionResult& r : farmed.results) {
    EXPECT_NE(r.detail.find("." + r.id + ".w"), std::string::npos) << r.detail;
    farm_paths.insert(r.detail);
  }
  EXPECT_EQ(farm_paths.size(), specs.size());
}

// ---------------------------------------------------------------------------
// Telemetry over the farm seam: per-session snapshots ship to the parent,
// merge deterministically, and worker heartbeats arrive while items are in
// flight.

// Deterministic per-spec snapshot: a counter scaled by the seed plus a
// histogram whose samples depend only on the seed.
SessionResult metric_run(const SessionSpec& spec) {
  SessionResult r = fake_run(spec);
  worker_heartbeat(static_cast<double>(spec.seed));
  telemetry::MetricRow counter;
  counter.name = "fake.cells";
  counter.kind = telemetry::MetricRow::Kind::kCounter;
  counter.count = spec.seed * 10;
  telemetry::MetricRow hist;
  hist.name = "fake.lag";
  hist.kind = telemetry::MetricRow::Kind::kHistogram;
  for (std::uint64_t i = 0; i <= spec.seed; ++i) {
    hist.hist.record(1e-6 * static_cast<double>(1 + i + spec.seed));
  }
  hist.count = hist.hist.count();
  hist.sum = hist.hist.sum();
  hist.min = hist.hist.min();
  hist.max = hist.hist.max();
  r.metrics.rows.push_back(std::move(counter));
  r.metrics.rows.push_back(std::move(hist));
  r.has_metrics = true;
  return r;
}

TEST(FarmTelemetry, SnapshotsShipAndMergeIdenticallyToSerial) {
  const auto specs = make_specs(8);
  const FarmReport serial = run_serial(specs, metric_run);
  const FarmReport farmed = run_farm(specs, metric_run, FarmParams{3});

  EXPECT_EQ(serial.sessions_with_metrics, 8);
  EXPECT_EQ(farmed.sessions_with_metrics, 8);
  // Per-session snapshots survive the socketpair seam bit-exactly...
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(farmed.results[i].has_metrics);
    const auto* fh = farmed.results[i].metrics.find("fake.lag");
    const auto* sh = serial.results[i].metrics.find("fake.lag");
    ASSERT_NE(fh, nullptr);
    ASSERT_NE(sh, nullptr);
    EXPECT_TRUE(fh->hist.identical(sh->hist));
  }
  // ...and the farm-wide merge is identical to the serial merge: counters
  // summed, histogram buckets combined exactly.
  const auto* fc = farmed.metrics.find("fake.cells");
  const auto* sc = serial.metrics.find("fake.cells");
  ASSERT_NE(fc, nullptr);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(fc->count, sc->count);
  std::uint64_t expected = 0;
  for (const auto& s : specs) expected += s.seed * 10;
  EXPECT_EQ(fc->count, expected);
  const auto* fl = farmed.metrics.find("fake.lag");
  const auto* sl = serial.metrics.find("fake.lag");
  ASSERT_NE(fl, nullptr);
  ASSERT_NE(sl, nullptr);
  EXPECT_TRUE(fl->hist.identical(sl->hist));
}

TEST(FarmTelemetry, ResultFrameCarriesTheSnapshotExactly) {
  const SessionResult r = metric_run(make_specs(3)[2]);
  const SessionResult back = decode_result(encode_result(r));
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.digest, r.digest);
  ASSERT_TRUE(back.has_metrics);
  EXPECT_EQ(back.metrics.to_json().dump(), r.metrics.to_json().dump());
  EXPECT_TRUE(back.metrics.find("fake.lag")->hist.identical(
      r.metrics.find("fake.lag")->hist));
}

TEST(FarmTelemetry, CorruptMetricsInAResultFrameIsAProtocolError) {
  SessionResult r;
  r.id = "s";
  r.ok = true;
  const std::vector<std::uint8_t> plain = encode_result(r);
  ASSERT_EQ(plain.back(), 0);  // the has_metrics flag closes the frame
  for (const char* bad :
       {"", "not json", "{\"metrics\": [", "[]",
        R"({"metrics": [{"name": "a", "kind": "flux"}]})",
        R"({"metrics": [{"name": "h", "kind": "histogram", "count": 1,
                         "buckets": [[3]]}]})"}) {
    std::vector<std::uint8_t> frame = plain;
    frame.back() = 1;
    wire::Writer w;
    w.str(bad);
    frame.insert(frame.end(), w.data().begin(), w.data().end());
    EXPECT_THROW(decode_result(frame), ProtocolError) << bad;
  }
  // A cut metrics field and trailing bytes are refused the same way.
  std::vector<std::uint8_t> cut = encode_result(metric_run(make_specs(1)[0]));
  cut.resize(cut.size() - 3);
  EXPECT_THROW(decode_result(cut), ProtocolError);
  std::vector<std::uint8_t> longer = plain;
  longer.push_back(0);
  EXPECT_THROW(decode_result(longer), ProtocolError);
}

TEST(FarmTelemetry, HeartbeatsReachTheParentWhileItemsRun) {
  const auto specs = make_specs(5);
  const FarmReport report = run_farm(specs, metric_run, FarmParams{2});
  // One worker_heartbeat per session, forwarded as kBeat frames.
  EXPECT_EQ(report.heartbeats, specs.size());
  EXPECT_TRUE(report.all_ok());
}

TEST(FarmTelemetry, HeartbeatOutsideAWorkerIsANoop) {
  // In-process (serial) runs have no pipe to the parent; the call must be
  // safe and report false.
  EXPECT_FALSE(worker_heartbeat(1.0));
}

TEST(ForkMap, BeatFramesCarryItemWorkerAndValue) {
  std::vector<std::pair<std::size_t, double>> beats;
  fork_map(
      4, 2,
      [](std::size_t item, int) {
        worker_heartbeat(static_cast<double>(item) * 2.5);
        wire::Writer w;
        w.u64(item);
        return w.data();
      },
      [](std::size_t, const std::vector<std::uint8_t>&) {},
      [](std::size_t, const std::string&) { FAIL(); },
      [&](std::size_t item, int worker, double value) {
        EXPECT_GE(worker, 0);
        beats.emplace_back(item, value);
      });
  ASSERT_EQ(beats.size(), 4u);
  for (const auto& [item, value] : beats) {
    EXPECT_EQ(value, static_cast<double>(item) * 2.5);
  }
}

// ---------------------------------------------------------------------------
// Experiment loading.

TEST(Experiment, MatrixExpandsCartesianOverDefaults) {
  const auto specs = load_experiment(json::parse(R"({
    "name": "m",
    "scenario": "accounting",
    "defaults": { "cells": 24, "horizon_us": 100 },
    "matrix": { "seed": [1, 2], "transport": ["in-process", "socket"] }
  })"));
  ASSERT_EQ(specs.size(), 4u);
  // First axis varies slowest (insertion order of the matrix object).
  EXPECT_EQ(specs[0].seed, 1u);
  EXPECT_EQ(specs[0].transport, TransportKind::kInProcess);
  EXPECT_EQ(specs[1].seed, 1u);
  EXPECT_EQ(specs[1].transport, TransportKind::kSocket);
  EXPECT_EQ(specs[3].seed, 2u);
  EXPECT_EQ(specs[3].transport, TransportKind::kSocket);
  std::set<std::string> ids;
  for (const auto& s : specs) {
    EXPECT_EQ(s.scenario, "accounting");
    EXPECT_EQ(s.params.int_or("cells", 0), 24);  // defaults merged in
    ids.insert(s.id);
  }
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_EQ(specs[1].id, "accounting-1-s1-sock");
}

TEST(Experiment, ExplicitSessionsAppendAndOverrideDefaults) {
  const auto specs = load_experiment(json::parse(R"({
    "scenario": "accounting",
    "defaults": { "cells": 24 },
    "matrix": { "seed": [1] },
    "sessions": [ { "scenario": "switch", "seed": 7, "cells": 8,
                    "id": "special" } ]
  })"));
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[1].id, "special");
  EXPECT_EQ(specs[1].scenario, "switch");
  EXPECT_EQ(specs[1].seed, 7u);
  EXPECT_EQ(specs[1].params.int_or("cells", 0), 8);  // session wins
}

TEST(Experiment, DefaultsOnlyDocumentIsOneSession) {
  const auto specs = load_experiment(json::parse(R"({
    "scenario": "board",
    "defaults": { "cells": 16 }
  })"));
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].scenario, "board");
  EXPECT_EQ(specs[0].params.int_or("cells", 0), 16);
}

TEST(Experiment, MalformedDocumentsThrow) {
  EXPECT_THROW(load_experiment(json::parse("[1]")), ConfigError);
  // No scenario anywhere.
  EXPECT_THROW(load_experiment(json::parse(R"({"matrix": {"seed": [1]}})")),
               ConfigError);
  // Matrix axes must be arrays.
  EXPECT_THROW(load_experiment(json::parse(
                   R"({"scenario": "a", "matrix": {"seed": 1}})")),
               ConfigError);
  // Unknown transport spelling fails at spec construction.
  EXPECT_THROW(load_experiment(json::parse(
                   R"({"scenario": "a", "matrix": {"transport": ["osi"]}})")),
               ConfigError);
}

}  // namespace
}  // namespace castanet::cosim::farm
