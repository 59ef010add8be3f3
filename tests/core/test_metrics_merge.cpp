// Cross-shard metric combination (PR 8): SampleStat's parallel-Welford
// merge, per-kind MetricRow merging, snapshot merge_from, and the JSON
// round-trip the metrics-schema gate relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/core/error.hpp"
#include "src/core/json.hpp"
#include "src/core/stats.hpp"
#include "src/core/telemetry.hpp"

namespace castanet {
namespace {

using telemetry::MetricRow;
using telemetry::MetricsSnapshot;
using Kind = MetricRow::Kind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// SampleStat::merge

TEST(SampleStatMerge, EmptyPlusEmptyStaysEmpty) {
  SampleStat a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_TRUE(std::isnan(a.min()));
  EXPECT_TRUE(std::isnan(a.max()));
}

TEST(SampleStatMerge, EmptyPlusNonEmptyAdoptsExactly) {
  SampleStat a, b;
  b.record(3.0);
  b.record(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), 4.0);
  EXPECT_EQ(a.min(), 3.0);
  EXPECT_EQ(a.max(), 5.0);
  EXPECT_EQ(a.sum(), 8.0);

  // The mirror: non-empty ⊕ empty is a no-op, extrema untouched.
  b.merge(SampleStat{});
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.min(), 3.0);
  EXPECT_EQ(b.max(), 5.0);
}

TEST(SampleStatMerge, MatchesSingleStreamStatistics) {
  SampleStat whole, lo, hi;
  const std::vector<double> xs{1.0, 4.0, 9.0, 16.0, 25.0, 36.0, 49.0};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    whole.record(xs[i]);
    (i < 3 ? lo : hi).record(xs[i]);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_EQ(lo.min(), whole.min());
  EXPECT_EQ(lo.max(), whole.max());
  EXPECT_EQ(lo.sum(), whole.sum());
  EXPECT_NEAR(lo.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(lo.variance(), whole.variance(), 1e-9);
}

TEST(SampleStatMerge, ThreeWayAssociative) {
  SampleStat a, b, c;
  a.record(1.0);
  a.record(2.0);
  b.record(10.0);
  c.record(-5.0);
  c.record(0.5);

  SampleStat ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);

  SampleStat bc = b;
  bc.merge(c);
  SampleStat a_bc = a;
  a_bc.merge(bc);

  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_EQ(ab_c.min(), a_bc.min());
  EXPECT_EQ(ab_c.max(), a_bc.max());
  EXPECT_NEAR(ab_c.mean(), a_bc.mean(), 1e-12);
  EXPECT_NEAR(ab_c.variance(), a_bc.variance(), 1e-9);
}

// ---------------------------------------------------------------------------
// merge_metric_row

MetricRow make_row(const std::string& name, Kind kind, std::uint64_t count,
                   double sum, double min, double max, double last) {
  MetricRow r;
  r.name = name;
  r.kind = kind;
  r.count = count;
  r.sum = sum;
  r.min = min;
  r.max = max;
  r.last = last;
  return r;
}

TEST(MergeMetricRow, CountersSum) {
  MetricRow a = make_row("c", Kind::kCounter, 7, 0, kNaN, kNaN, kNaN);
  const MetricRow b = make_row("c", Kind::kCounter, 5, 0, kNaN, kNaN, kNaN);
  merge_metric_row(a, b);
  EXPECT_EQ(a.count, 12u);
}

TEST(MergeMetricRow, TimingsMergeExactly) {
  MetricRow a = make_row("t", Kind::kTiming, 3, 30.0, 5.0, 15.0, 15.0);
  const MetricRow b = make_row("t", Kind::kTiming, 2, 8.0, 1.0, 7.0, 7.0);
  merge_metric_row(a, b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_EQ(a.sum, 38.0);
  EXPECT_EQ(a.min, 1.0);
  EXPECT_EQ(a.max, 15.0);
}

TEST(MergeMetricRow, EmptySideNeverPoisonsExtrema) {
  // The empty shard exports NaN min/max; merging it must not turn the
  // populated side's extrema into NaN (or fake zeros).
  MetricRow a = make_row("t", Kind::kTiming, 2, 6.0, 2.0, 4.0, 4.0);
  const MetricRow empty = make_row("t", Kind::kTiming, 0, 0.0, kNaN, kNaN, kNaN);
  merge_metric_row(a, empty);
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.min, 2.0);
  EXPECT_EQ(a.max, 4.0);

  MetricRow e = make_row("t", Kind::kTiming, 0, 0.0, kNaN, kNaN, kNaN);
  merge_metric_row(e, a);
  EXPECT_EQ(e.count, 2u);
  EXPECT_EQ(e.min, 2.0);
  EXPECT_EQ(e.max, 4.0);

  MetricRow e2 = make_row("t", Kind::kTiming, 0, 0.0, kNaN, kNaN, kNaN);
  merge_metric_row(e2, empty);
  EXPECT_EQ(e2.count, 0u);
  EXPECT_TRUE(std::isnan(e2.min));
  EXPECT_TRUE(std::isnan(e2.max));
}

TEST(MergeMetricRow, HistogramsMergeBucketwise) {
  MetricRow a;
  a.name = "h";
  a.kind = Kind::kHistogram;
  a.hist.record(1.0);
  a.hist.record(2.5);
  a.count = a.hist.count();
  MetricRow b = a;
  b.hist.record(100.0);
  b.count = b.hist.count();

  Log2Histogram expect = a.hist;
  expect.merge(b.hist);
  merge_metric_row(a, b);
  EXPECT_TRUE(a.hist.identical(expect));
  EXPECT_EQ(a.count, 5u);
}

TEST(MergeMetricRow, KindMismatchThrows) {
  MetricRow a = make_row("x", Kind::kCounter, 1, 0, kNaN, kNaN, kNaN);
  const MetricRow b = make_row("x", Kind::kTiming, 1, 1.0, 1.0, 1.0, 1.0);
  EXPECT_THROW(merge_metric_row(a, b), LogicError);
}

TEST(MetricKindNames, RoundTrip) {
  for (const Kind k : {Kind::kCounter, Kind::kGauge, Kind::kTiming,
                       Kind::kTimeAverage, Kind::kHistogram}) {
    Kind back = Kind::kCounter;
    ASSERT_TRUE(metric_kind_from_name(metric_kind_name(k), &back))
        << metric_kind_name(k);
    EXPECT_EQ(back, k);
  }
  Kind out;
  EXPECT_FALSE(metric_kind_from_name("histogramme", &out));
}

// ---------------------------------------------------------------------------
// MetricsSnapshot merge + JSON round-trip

MetricsSnapshot make_snapshot(std::uint64_t counter_val, double timing_base) {
  MetricsSnapshot s;
  s.rows.push_back(
      make_row("a.count", Kind::kCounter, counter_val, 0, kNaN, kNaN, kNaN));
  MetricRow h;
  h.name = "b.hist";
  h.kind = Kind::kHistogram;
  h.hist.record(timing_base);
  h.hist.record(timing_base * 2);
  h.count = h.hist.count();
  h.sum = h.hist.sum();
  h.min = h.hist.min();
  h.max = h.hist.max();
  h.last = kNaN;
  s.rows.push_back(std::move(h));
  s.rows.push_back(make_row("c.timing", Kind::kTiming, 1, timing_base,
                            timing_base, timing_base, timing_base));
  s.trace_events = 10;
  return s;
}

TEST(MetricsSnapshot, MergeFromSumsAndUnions) {
  MetricsSnapshot a = make_snapshot(3, 1.0);
  MetricsSnapshot b = make_snapshot(4, 8.0);
  // A row only shard b has: it must appear in the merge untouched.  Rows
  // are kept sorted by name ("a.count" < "aa.only_b" < "b.hist").
  b.rows.insert(b.rows.begin() + 1,
                make_row("aa.only_b", Kind::kCounter, 9, 0, kNaN, kNaN, kNaN));
  a.merge_from(b);
  ASSERT_EQ(a.rows.size(), 4u);
  EXPECT_EQ(a.find("a.count")->count, 7u);
  EXPECT_EQ(a.find("aa.only_b")->count, 9u);
  EXPECT_EQ(a.find("b.hist")->count, 4u);
  EXPECT_EQ(a.find("c.timing")->sum, 9.0);
  EXPECT_EQ(a.trace_events, 20u);
  // Rows stay sorted by name (merge_from's invariant).
  for (std::size_t i = 1; i < a.rows.size(); ++i) {
    EXPECT_LT(a.rows[i - 1].name, a.rows[i].name);
  }
}

TEST(MetricsSnapshot, MergedShardsIdenticalToSingleProcess) {
  // Counters and histograms are exact under merge: shard-and-merge must be
  // indistinguishable from recording everything in one process.
  MetricsSnapshot whole = make_snapshot(7, 1.0);
  {
    MetricRow& h = whole.rows[1];
    h.hist.record(8.0);
    h.hist.record(16.0);
    h.count = h.hist.count();
    h.sum = h.hist.sum();
    h.min = h.hist.min();
    h.max = h.hist.max();
  }
  MetricsSnapshot s1 = make_snapshot(3, 1.0);
  MetricsSnapshot s2 = make_snapshot(4, 8.0);
  s1.merge_from(s2);
  EXPECT_EQ(s1.find("a.count")->count, whole.find("a.count")->count);
  EXPECT_TRUE(s1.find("b.hist")->hist.identical(whole.find("b.hist")->hist));
}

TEST(MetricsSnapshot, JsonRoundTripIsStructurallyExact) {
  const MetricsSnapshot s = make_snapshot(5, 0.25);
  const MetricsSnapshot back = MetricsSnapshot::from_json(s.to_json());
  ASSERT_EQ(back.rows.size(), s.rows.size());
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, s.rows[i].name);
    EXPECT_EQ(back.rows[i].kind, s.rows[i].kind);
    EXPECT_EQ(back.rows[i].count, s.rows[i].count);
  }
  EXPECT_TRUE(back.find("b.hist")->hist.identical(s.find("b.hist")->hist));
  EXPECT_EQ(back.trace_events, s.trace_events);

  // And the text form parses back the same way.
  const MetricsSnapshot again =
      MetricsSnapshot::from_json(json::parse(s.to_json().dump(2)));
  EXPECT_EQ(again.rows.size(), s.rows.size());
  EXPECT_TRUE(again.find("b.hist")->hist.identical(s.find("b.hist")->hist));
}

/// Writes `s` as text and reads it back: the one path every snapshot file
/// and farm result frame takes.
MetricsSnapshot through_text(const MetricsSnapshot& s) {
  return MetricsSnapshot::from_json(json::parse(s.to_json().dump()));
}

TEST(MetricsSnapshot, TextRoundTripKeepsEveryNameByteAndEveryDoubleBit) {
  MetricsSnapshot s;
  MetricRow gauge;
  gauge.name = std::string("q\"uote\\back\x01slash.ctl\x1f");
  gauge.kind = Kind::kGauge;
  gauge.count = 3;
  gauge.sum = kNaN;
  gauge.min = kNaN;
  gauge.max = 2.0 / 3.0;
  gauge.last = 1.0 / 3.0;
  s.rows.push_back(gauge);
  const MetricsSnapshot back = through_text(s);
  ASSERT_EQ(back.rows.size(), 1u);
  EXPECT_EQ(back.rows[0].name, gauge.name);
  EXPECT_EQ(back.rows[0].name.size(), gauge.name.size());
  EXPECT_EQ(back.rows[0].last, 1.0 / 3.0);
  EXPECT_EQ(back.rows[0].max, 2.0 / 3.0);
  EXPECT_TRUE(std::isnan(back.rows[0].sum));
  EXPECT_EQ(back.rows[0].count, 3u);
}

TEST(MetricsSnapshot, TextRoundTripsCounterHistogramAndTimingExactly) {
  MetricsSnapshot s;
  MetricRow counter;
  counter.name = "events";
  counter.kind = Kind::kCounter;
  counter.count = 1234;
  counter.sum = 1234.0;
  counter.min = counter.max = counter.last = kNaN;
  s.rows.push_back(counter);

  MetricRow hist;
  hist.name = "lag";
  hist.kind = Kind::kHistogram;
  for (const double v : {0.0, 1e-6, 2e-6, 0.5}) hist.hist.record(v);
  hist.count = hist.hist.count();
  hist.sum = hist.hist.sum();
  hist.min = hist.hist.min();
  hist.max = hist.hist.max();
  hist.last = kNaN;
  s.rows.push_back(hist);

  MetricRow timing;
  timing.name = "span_ns";
  timing.kind = Kind::kTiming;
  timing.count = 3;
  timing.sum = 42.0;
  timing.min = 4.0;
  timing.max = 30.0;
  timing.last = 8.0;
  s.rows.push_back(timing);

  s.trace_events = 99;
  s.trace_dropped = 1;

  const MetricsSnapshot back = through_text(s);
  ASSERT_EQ(back.rows.size(), s.rows.size());
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    EXPECT_EQ(back.rows[i].name, s.rows[i].name);
    EXPECT_EQ(back.rows[i].kind, s.rows[i].kind);
    EXPECT_EQ(back.rows[i].count, s.rows[i].count);
    EXPECT_EQ(back.rows[i].sum, s.rows[i].sum);
  }
  // NaN survives as NaN (not 0) and histogram buckets are bit-exact.
  EXPECT_TRUE(std::isnan(back.rows[0].min));
  EXPECT_TRUE(back.rows[1].hist.identical(s.rows[1].hist));
  EXPECT_EQ(back.rows[1].sum, s.rows[1].sum);
  EXPECT_EQ(back.rows[2].min, 4.0);
  EXPECT_EQ(back.rows[2].last, 8.0);
  EXPECT_EQ(back.trace_events, 99u);
  EXPECT_EQ(back.trace_dropped, 1u);
  // Writing the read-back snapshot reproduces the text exactly.
  EXPECT_EQ(back.to_json().dump(), s.to_json().dump());
  EXPECT_TRUE(through_text(MetricsSnapshot{}).rows.empty());
}

TEST(MetricsSnapshot, FromJsonRejectsNonSnapshots) {
  EXPECT_THROW(MetricsSnapshot::from_json(json::parse("[]")), LogicError);
  EXPECT_THROW(MetricsSnapshot::from_json(json::parse(R"({"x": 1})")),
               LogicError);
  EXPECT_THROW(MetricsSnapshot::from_json(json::parse(
                   R"({"metrics": [{"name": "a", "kind": "flux"}]})")),
               LogicError);
}

}  // namespace
}  // namespace castanet
