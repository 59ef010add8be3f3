// Wire serialization of telemetry snapshots (PR 8): the frame a farm worker
// ships its final Hub state through.  Round-trip exactness, canonical NaN
// (re-encoding a decoded frame is byte-identical, so frame digests are
// meaningful), and rejection of malformed frames.
#include "src/castanet/wire.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/core/error.hpp"
#include "src/core/telemetry.hpp"

namespace castanet::cosim::wire {
namespace {

using telemetry::MetricRow;
using telemetry::MetricsSnapshot;
using Kind = MetricRow::Kind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot s;
  MetricRow counter;
  counter.name = "events";
  counter.kind = Kind::kCounter;
  counter.count = 1234;
  counter.sum = 0.0;
  counter.min = counter.max = counter.last = kNaN;
  s.rows.push_back(counter);

  MetricRow hist;
  hist.name = "lag";
  hist.kind = Kind::kHistogram;
  hist.hist.record(0.0);
  hist.hist.record(1e-6);
  hist.hist.record(2e-6);
  hist.hist.record(0.5);
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
  return s;
}

TEST(SnapshotWire, RoundTripsExactly) {
  const MetricsSnapshot s = sample_snapshot();
  const MetricsSnapshot back = decode_snapshot(encode_snapshot(s));
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
  EXPECT_EQ(back.rows[2].min, 4.0);
  EXPECT_EQ(back.trace_events, 99u);
  EXPECT_EQ(back.trace_dropped, 1u);
}

TEST(SnapshotWire, EmptySnapshotRoundTrips) {
  const MetricsSnapshot back = decode_snapshot(encode_snapshot({}));
  EXPECT_TRUE(back.rows.empty());
  EXPECT_EQ(back.trace_events, 0u);
}

TEST(SnapshotWire, ReencodingADecodedFrameIsByteIdentical) {
  // Digest-meaningful frames: decode -> encode must reproduce the original
  // bytes, which requires every NaN to encode as THE canonical quiet NaN.
  const std::vector<std::uint8_t> frame = encode_snapshot(sample_snapshot());
  const std::vector<std::uint8_t> again =
      encode_snapshot(decode_snapshot(frame));
  EXPECT_EQ(again, frame);
}

TEST(SnapshotWire, WriterCanonicalizesEveryNaN) {
  Writer a, b;
  a.f64(std::numeric_limits<double>::quiet_NaN());
  b.f64(-std::numeric_limits<double>::signaling_NaN());
  EXPECT_EQ(a.data(), b.data());
  Reader r(a.data());
  EXPECT_TRUE(std::isnan(r.f64()));
}

TEST(SnapshotWire, RejectsBadVersionAndBadKind) {
  std::vector<std::uint8_t> frame = encode_snapshot(sample_snapshot());
  std::vector<std::uint8_t> bad_version = frame;
  bad_version[0] = 0xee;
  EXPECT_THROW(decode_snapshot(bad_version), ProtocolError);

  // Truncated frame: drop the trailing trace totals.
  std::vector<std::uint8_t> truncated(frame.begin(), frame.end() - 8);
  EXPECT_THROW(decode_snapshot(truncated), ProtocolError);
}

TEST(SnapshotWire, CountsBeyondFrameRejectedBeforeAllocating) {
  // Row and bucket counts are checked against the bytes left before any
  // reserve: a corrupt count ends in ProtocolError, not bad_alloc or a
  // multi-GiB reservation.
  MetricsSnapshot snap;
  MetricRow hist;
  hist.name = "h";
  hist.kind = Kind::kHistogram;
  hist.hist.record(1e-6);
  hist.hist.record(0.5);
  hist.count = hist.hist.count();
  hist.sum = hist.hist.sum();
  hist.min = hist.hist.min();
  hist.max = hist.hist.max();
  hist.last = kNaN;
  snap.rows.push_back(hist);
  const std::vector<std::uint8_t> frame = encode_snapshot(snap);
  ASSERT_EQ(decode_snapshot(frame).rows.size(), 1u);
  // version u8, then the row count; the bucket count follows the row's
  // name (u32 length + 1 byte), kind, count, four f64s and zero count.
  const std::size_t row_count_at = 1;
  const std::size_t bucket_count_at = 1 + 4 + (4 + 1) + 1 + 8 + 4 * 8 + 8;
  for (const std::size_t at : {row_count_at, bucket_count_at}) {
    for (const std::uint32_t count : {0xFFFFFFFFu, 0x10000000u, 3u}) {
      std::vector<std::uint8_t> bad = frame;
      for (int i = 0; i < 4; ++i) {
        bad[at + i] = static_cast<std::uint8_t>(count >> (8 * i));
      }
      EXPECT_THROW(decode_snapshot(bad), ProtocolError)
          << "offset=" << at << " count=" << count;
    }
  }
}

}  // namespace
}  // namespace castanet::cosim::wire
