// Telemetry hub: metric handle semantics, span timers, trace-ring overflow
// and Chrome trace_event JSON well-formedness.
#include "src/core/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/json.hpp"

namespace castanet::telemetry {
namespace {

/// Every test owns the process-wide hub for its duration.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { Hub::instance().reset(); }
  void TearDown() override { Hub::instance().reset(); }
};

TEST_F(TelemetryTest, DisabledByDefault) {
  EXPECT_FALSE(enabled());
  Hub::instance().enable();
  EXPECT_TRUE(enabled());
  Hub::instance().disable();
  EXPECT_FALSE(enabled());
}

TEST_F(TelemetryTest, CounterAccumulates) {
  Hub::instance().enable();
  Counter& c = Hub::instance().counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup by name returns the same handle.
  EXPECT_EQ(&Hub::instance().counter("test.counter"), &c);
}

TEST_F(TelemetryTest, GaugeTracksLastAndMax) {
  Hub::instance().enable();
  Gauge& g = Hub::instance().gauge("test.gauge");
  EXPECT_FALSE(g.set_ever());
  EXPECT_TRUE(std::isnan(g.max()));
  g.set(3.0);
  g.set(7.0);
  g.set(5.0);
  EXPECT_TRUE(g.set_ever());
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
}

TEST_F(TelemetryTest, GaugeMaxHandlesNegativeFirstSample) {
  Hub::instance().enable();
  Gauge& g = Hub::instance().gauge("test.neg");
  g.set(-4.0);
  // A count-gated max must not report the zero-initialized atomic.
  EXPECT_DOUBLE_EQ(g.max(), -4.0);
}

TEST_F(TelemetryTest, TimingAggregates) {
  Hub::instance().enable();
  Timing& t = Hub::instance().timing("test.timing");
  EXPECT_EQ(t.count(), 0u);
  EXPECT_TRUE(std::isnan(t.min()));
  EXPECT_TRUE(std::isnan(t.max()));
  EXPECT_TRUE(std::isnan(t.mean()));
  t.record(2.0);
  t.record(6.0);
  t.record(4.0);
  EXPECT_EQ(t.count(), 3u);
  EXPECT_DOUBLE_EQ(t.sum(), 12.0);
  EXPECT_DOUBLE_EQ(t.min(), 2.0);
  EXPECT_DOUBLE_EQ(t.max(), 6.0);
  EXPECT_DOUBLE_EQ(t.mean(), 4.0);
}

TEST_F(TelemetryTest, SpanRecordsCompleteEvent) {
  Hub::instance().enable();
  {
    Span s("unit.span", kMainTrack);
    s.arg("x", 1.5);
  }
  EXPECT_EQ(Hub::instance().trace_events_recorded(), 1u);
  const std::string json = Hub::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"unit.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"x\": 1.5"), std::string::npos);
}

TEST_F(TelemetryTest, InstantRecordsPointEvent) {
  Hub::instance().enable();
  instant("unit.mark", kMainTrack, {{"k", 2.0}});
  const std::string json = Hub::instance().chrome_trace_json();
  EXPECT_NE(json.find("\"unit.mark\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
}

TEST_F(TelemetryTest, RecordIsNoOpWhileDisabled) {
  // Spans/instants are only constructed behind enabled() checks in product
  // code, but Hub::record itself must also be safe to call when disabled.
  TraceEvent e;
  e.name = "ignored";
  Hub::instance().record(e);
  EXPECT_EQ(Hub::instance().trace_events_recorded(), 0u);
}

TEST_F(TelemetryTest, RingDropsOldestOnOverflow) {
  constexpr std::size_t kCap = 8;
  Hub::instance().enable(kCap);
  Hub::instance().track("row");  // exercise a non-main track too
  for (int i = 0; i < 20; ++i) {
    TraceEvent e;
    e.name = (i < 12) ? "old" : "new";
    e.phase = TraceEvent::Phase::kInstant;
    e.ts_us = static_cast<double>(i);
    Hub::instance().record(e);
  }
  // The ring holds the newest kCap events; the 12 oldest were dropped.
  EXPECT_EQ(Hub::instance().trace_events_recorded(), kCap);
  EXPECT_EQ(Hub::instance().trace_events_dropped(), 12u);
  // Only events 12..19 survive, all named "new".
  const std::string json = Hub::instance().chrome_trace_json();
  EXPECT_EQ(json.find("\"old\""), std::string::npos);
  EXPECT_NE(json.find("\"new\""), std::string::npos);
  const MetricsSnapshot snap = Hub::instance().snapshot();
  EXPECT_EQ(snap.trace_events, kCap);
  EXPECT_EQ(snap.trace_dropped, 12u);
}

TEST_F(TelemetryTest, StreamTraceToDiskInsteadOfDropping) {
  // With an attached stream, a full ring flushes to disk instead of
  // dropping its oldest events; stop_trace_stream finalizes the file into
  // valid Chrome trace JSON covering EVERY recorded event.
  constexpr std::size_t kCap = 8;
  const std::string path = ::testing::TempDir() + "castanet_stream_test.json";
  Hub::instance().enable(kCap);
  ASSERT_TRUE(Hub::instance().stream_trace_to(path));
  for (int i = 0; i < 30; ++i) {
    TraceEvent e;
    e.name = "ev";
    e.phase = TraceEvent::Phase::kInstant;
    e.ts_us = static_cast<double>(i);
    Hub::instance().record(e);
  }
  EXPECT_TRUE(Hub::instance().stop_trace_stream());
  EXPECT_EQ(Hub::instance().trace_events_streamed(), 30u);
  EXPECT_EQ(Hub::instance().trace_events_dropped(), 0u);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
  // All 30 instants made it to disk (they exceed the ring capacity).
  std::size_t count = 0;
  for (std::size_t pos = 0; (pos = body.find("\"ev\"", pos)) !=
                            std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 30u);
  // A second stop without a stream reports failure.
  EXPECT_FALSE(Hub::instance().stop_trace_stream());
}

TEST_F(TelemetryTest, ResetFinalizesAnActiveStream) {
  const std::string path = ::testing::TempDir() + "castanet_stream_reset.json";
  Hub::instance().enable(4);
  ASSERT_TRUE(Hub::instance().stream_trace_to(path));
  instant("mark", kMainTrack);
  Hub::instance().reset();  // must close and finalize, not leak the FILE
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string body;
  char buf[1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) body.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(body.find("\"mark\""), std::string::npos);
  EXPECT_NE(body.find("\"displayTimeUnit\""), std::string::npos);
}

TEST_F(TelemetryTest, TracksAreStableByName) {
  Hub::instance().enable();
  const TrackId a = Hub::instance().track("backend:rtl");
  const TrackId b = Hub::instance().track("backend:ref");
  EXPECT_NE(a, kMainTrack);
  EXPECT_NE(a, b);
  EXPECT_EQ(Hub::instance().track("backend:rtl"), a);
  const std::string json = Hub::instance().chrome_trace_json();
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("backend:rtl"), std::string::npos);
}

TEST_F(TelemetryTest, PublishedRowsAppearInSnapshot) {
  Hub::instance().enable();
  Hub::instance().publish_count("pub.count", 7);
  Hub::instance().publish_value("pub.value", 2.5);
  SampleStat s;
  s.record(1.0);
  s.record(3.0);
  Hub::instance().publish_stat("pub.stat", s);
  TimeAverageStat ta;
  ta.set(0.0, 4.0);
  Hub::instance().publish_time_avg("pub.avg", ta, 2.0);
  const MetricsSnapshot snap = Hub::instance().snapshot();
  ASSERT_EQ(snap.rows.size(), 4u);
  // Rows are sorted by name.
  EXPECT_EQ(snap.rows[0].name, "pub.avg");
  EXPECT_EQ(snap.rows[1].name, "pub.count");
  EXPECT_EQ(snap.rows[2].name, "pub.stat");
  EXPECT_EQ(snap.rows[3].name, "pub.value");
  EXPECT_EQ(snap.rows[1].count, 7u);
  EXPECT_EQ(snap.rows[2].count, 2u);
  EXPECT_DOUBLE_EQ(snap.rows[2].min, 1.0);
  EXPECT_DOUBLE_EQ(snap.rows[2].max, 3.0);
}

TEST_F(TelemetryTest, EmptyStatRendersAsEmptyNotZero) {
  Hub::instance().enable();
  SampleStat empty;
  Hub::instance().publish_stat("empty.stat", empty);
  const MetricsSnapshot snap = Hub::instance().snapshot();
  ASSERT_EQ(snap.rows.size(), 1u);
  EXPECT_TRUE(snap.rows[0].empty());
  const json::Value doc = snap.to_json();
  const json::Value& row = doc.find("metrics")->as_array()[0];
  EXPECT_TRUE(row.bool_or("empty", false));
  EXPECT_EQ(row.find("sum"), nullptr);
  // The table renders "-" cells, never a fake 0 sample.
  EXPECT_NE(snap.to_table().find('-'), std::string::npos);
}

TEST_F(TelemetryTest, ResetDiscardsEverything) {
  Hub::instance().enable();
  Hub::instance().counter("c").add(5);
  instant("gone", kMainTrack);
  Hub::instance().reset();
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Hub::instance().trace_events_recorded(), 0u);
  Hub::instance().enable();
  EXPECT_TRUE(Hub::instance().snapshot().rows.empty());
  // Re-fetching the name creates a fresh zeroed handle.
  EXPECT_EQ(Hub::instance().counter("c").value(), 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON well-formedness: a minimal JSON scanner checks balanced
// structure, since the CI smoke test (python3 json.load) may be unavailable
// in every build environment.

bool json_well_formed(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return stack.empty() && !in_string;
}

TEST_F(TelemetryTest, ChromeTraceJsonIsWellFormed) {
  Hub::instance().enable();
  const TrackId t = Hub::instance().track("backend:\"quoted\\name\"");
  {
    Span s("outer", t);
    s.arg("nested", 1.0);
    instant("inner", t);
  }
  const std::string json = Hub::instance().chrome_trace_json();
  EXPECT_TRUE(json_well_formed(json));
  // Top level is an object holding the traceEvents array.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // The track name round-trips escaped, never raw.
  EXPECT_NE(json.find("\\\"quoted\\\\name\\\""), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonIsWellFormed) {
  Hub::instance().enable();
  Hub::instance().counter("a\"b").add(1);
  Hub::instance().timing("t").record(1.0);
  const std::string text = Hub::instance().snapshot().to_json().dump(2);
  const json::Value doc = json::parse(text);
  const json::Array& rows = doc.find("metrics")->as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].string_or("name", ""), "a\"b");
  EXPECT_EQ(rows[1].string_or("kind", ""), "timing");
}

TEST_F(TelemetryTest, ChromeTraceKeepsControlCharactersInNames) {
  Hub::instance().enable();
  Hub::instance().track("row\x01\n");
  const json::Value doc = json::parse(Hub::instance().chrome_trace_json());
  bool found = false;
  for (const json::Value& e : doc.find("traceEvents")->as_array()) {
    if (e.string_or("name", "") != "thread_name") continue;
    found = found || e.find("args")->string_or("name", "") == "row\x01\n";
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace castanet::telemetry
