#include "src/dsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/core/error.hpp"
#include "src/core/json.hpp"

namespace castanet {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ns(30), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_ns(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_ns(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), SimTime::from_ns(30));
}

TEST(Scheduler, EqualTimeFifoWithinPriority) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ns(5);
  s.schedule_at(t, [&] { order.push_back(1); });
  s.schedule_at(t, [&] { order.push_back(2); });
  s.schedule_at(t, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, PriorityBreaksTies) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ns(5);
  s.schedule_at(t, [&] { order.push_back(1); }, /*priority=*/5);
  s.schedule_at(t, [&] { order.push_back(2); }, /*priority=*/-1);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(SimTime::from_ns(10), [] {});
  s.run();
  EXPECT_THROW(s.schedule_at(SimTime::from_ns(5), [] {}), ProtocolError);
}

TEST(Scheduler, SchedulingAtCurrentTimeAllowed) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ns(10), [&] {
    s.schedule_at(s.now(), [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int fired = 0;
  const EventHandle h =
      s.schedule_at(SimTime::from_ns(10), [&] { ++fired; });
  EXPECT_TRUE(s.cancel(h));
  EXPECT_FALSE(s.cancel(h));  // second cancel is a no-op
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelAfterExecutionReturnsFalse) {
  Scheduler s;
  const EventHandle h = s.schedule_at(SimTime::from_ns(1), [] {});
  s.run();
  EXPECT_FALSE(s.cancel(h));
}

TEST(Scheduler, RunUntilStopsAtLimitInclusive) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ns(10), [&] { ++fired; });
  s.schedule_at(SimTime::from_ns(20), [&] { ++fired; });
  s.schedule_at(SimTime::from_ns(30), [&] { ++fired; });
  EXPECT_EQ(s.run_until(SimTime::from_ns(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.now(), SimTime::from_ns(20));
  EXPECT_FALSE(s.empty());
}

TEST(Scheduler, RunUntilAdvancesTimeEvenWithoutEvents) {
  Scheduler s;
  s.run_until(SimTime::from_us(5));
  EXPECT_EQ(s.now(), SimTime::from_us(5));
}

TEST(Scheduler, RunUntilStaleLimitIsNoOp) {
  Scheduler s;
  int fired = 0;
  s.schedule_at(SimTime::from_ns(20), [&] { ++fired; });
  s.run_until(SimTime::from_ns(10));
  // A limit in the past executes nothing and never moves time backwards.
  EXPECT_EQ(s.run_until(SimTime::from_ns(5)), 0u);
  EXPECT_EQ(s.now(), SimTime::from_ns(10));
  EXPECT_EQ(fired, 0);
  // Forward progress still works afterwards.
  EXPECT_EQ(s.run_until(SimTime::from_ns(20)), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler s;
  SimTime seen;
  s.schedule_at(SimTime::from_ns(10), [&] {
    s.schedule_in(SimTime::from_ns(7), [&] { seen = s.now(); });
  });
  s.run();
  EXPECT_EQ(seen, SimTime::from_ns(17));
}

TEST(Scheduler, NextEventTimeAndEmpty) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_event_time(), SimTime::max());
  const EventHandle h = s.schedule_at(SimTime::from_ns(8), [] {});
  EXPECT_EQ(s.next_event_time(), SimTime::from_ns(8));
  s.cancel(h);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.next_event_time(), SimTime::max());
}

TEST(Scheduler, AdvanceToRespectsPendingEvents) {
  Scheduler s;
  s.schedule_at(SimTime::from_ns(10), [] {});
  s.advance_to(SimTime::from_ns(10));
  EXPECT_EQ(s.now(), SimTime::from_ns(10));
  EXPECT_THROW(s.advance_to(SimTime::from_ns(5)), LogicError);
  EXPECT_THROW(s.advance_to(SimTime::from_ns(20)), LogicError);
}

TEST(Scheduler, CountersTrackActivity) {
  Scheduler s;
  for (int i = 1; i <= 5; ++i) {
    s.schedule_at(SimTime::from_ns(i), [] {});
  }
  const EventHandle h = s.schedule_at(SimTime::from_ns(9), [] {});
  s.cancel(h);
  s.run();
  EXPECT_EQ(s.events_scheduled(), 6u);
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Scheduler, RunWithMaxEventsStops) {
  Scheduler s;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(SimTime::from_ns(i), [&] { ++fired; });
  }
  EXPECT_EQ(s.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Scheduler, CascadingEventsAtSameTime) {
  // An event scheduling another event at the same time must execute it in
  // the same run, after all earlier-scheduled same-time events.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_ns(1), [&] {
    order.push_back(1);
    s.schedule_at(SimTime::from_ns(1), [&] { order.push_back(3); });
  });
  s.schedule_at(SimTime::from_ns(1), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, CancelOnRecycledSlotLeavesNewOccupantAlone) {
  // A handle outlives its event: after the event runs (or is cancelled) the
  // slab slot goes back on the free list and a later schedule may recycle
  // it.  The stale handle's seq no longer matches the slot's, so cancel()
  // must return false and must NOT cancel the new occupant.
  Scheduler s;
  int first = 0;
  int second = 0;
  const EventHandle stale =
      s.schedule_at(SimTime::from_ns(1), [&] { ++first; });
  s.run();  // slot released, seq cleared
  EXPECT_EQ(first, 1);
  const EventHandle fresh =
      s.schedule_at(SimTime::from_ns(2), [&] { ++second; });
  ASSERT_EQ(stale.slot, fresh.slot);  // the slot really was recycled
  ASSERT_NE(stale.seq, fresh.seq);
  EXPECT_FALSE(s.cancel(stale));
  s.run();
  EXPECT_EQ(second, 1);  // new occupant untouched
  // Same protection when the first event was cancelled rather than run.
  const EventHandle c = s.schedule_at(SimTime::from_ns(10), [&] { ++first; });
  EXPECT_TRUE(s.cancel(c));
  const EventHandle r = s.schedule_at(SimTime::from_ns(10), [&] { ++second; });
  ASSERT_EQ(c.slot, r.slot);
  EXPECT_FALSE(s.cancel(c));
  s.run();
  EXPECT_EQ(second, 2);
}

TEST(Scheduler, FarFutureEventsCrossTheOverflowStructures) {
  // Events far beyond the day-wheel horizon park on the overflow wheel or
  // far list and still execute in exact time order once now() approaches.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_us(100'000'000), [&] { order.push_back(3); });
  s.schedule_at(SimTime::from_us(50'000'000), [&] { order.push_back(2); });
  s.schedule_at(SimTime::from_ns(10), [&] { order.push_back(1); });
  s.schedule_at(SimTime::from_us(200'000'000), [&] { order.push_back(4); });
  EXPECT_GT(s.wheel_stats().overflow_hits + s.wheel_stats().far_hits, 0u);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), SimTime::from_us(200'000'000));
}

TEST(Scheduler, NearEventScheduledAfterFarOnesStillRunsFirst) {
  // Regression for overflow-migration ordering: a near event inserted after
  // far-future ones must not be overtaken by an already-parked event.
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(SimTime::from_us(1'000'000), [&] { order.push_back(2); });
  s.schedule_at(SimTime::from_ns(5), [&] {
    order.push_back(1);
    s.schedule_at(s.now() + SimTime::from_ns(1), [&] { order.push_back(11); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2}));
}

TEST(Scheduler, WheelGrowsAndShrinksWithLiveEvents) {
  Scheduler s;
  const std::size_t initial = s.bucket_count();
  std::vector<EventHandle> hs;
  for (int i = 0; i < 4000; ++i) {
    hs.push_back(s.schedule_at(SimTime::from_ns(1000 + i), [] {}));
  }
  EXPECT_GE(s.bucket_count(), 2000u);  // grew with the live count
  EXPECT_GT(s.wheel_stats().resizes, 0u);
  for (const EventHandle& h : hs) EXPECT_TRUE(s.cancel(h));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.bucket_count(), initial);  // shrank back down
  EXPECT_EQ(s.wheel_stats().cancelled_in_place, 4000u);
  // Handles stayed valid across every resize: each cancel hit its event.
  EXPECT_EQ(s.events_scheduled(), 4000u);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, WheelStatsTrackActivity) {
  Scheduler s;
  const SimTime t = SimTime::from_ns(7);
  for (int i = 0; i < 3; ++i) {
    s.schedule_at(t, [] {});
  }
  EXPECT_EQ(s.wheel_stats().bucket_high_water, 3u);  // same-time same bucket
  // Just beyond the day-wheel window (16 buckets x ~2.1us): parks on the
  // overflow wheel, then migrates in as earlier pops walk now() forward.
  s.schedule_at(SimTime::from_us(40), [] {});
  EXPECT_GT(s.wheel_stats().overflow_hits, 0u);
  s.schedule_at(SimTime::from_us(10), [] {});
  s.run();
  EXPECT_GT(s.wheel_stats().cascaded_events, 0u);  // overflow event migrated
}

TEST(Scheduler, PublishTelemetrySnapshotRoundTrips) {
  telemetry::Hub::instance().reset();
  telemetry::Hub::instance().enable();
  Scheduler s;
  const EventHandle h = s.schedule_at(SimTime::from_ns(5), [] {});
  s.cancel(h);
  s.schedule_at(SimTime::from_us(900'000'000), [] {});
  s.schedule_at(SimTime::from_ns(1), [] {});
  s.run();
  s.publish_telemetry();
  const telemetry::MetricsSnapshot snap = telemetry::Hub::instance().snapshot();
  // Schema gate: every dsim.wheel.* row survives the JSON round trip with
  // kind and value intact.
  const telemetry::MetricsSnapshot back =
      telemetry::MetricsSnapshot::from_json(json::parse(snap.to_json().dump()));
  const auto find = [](const telemetry::MetricsSnapshot& m,
                       const std::string& name)
      -> const telemetry::MetricRow* {
    for (const telemetry::MetricRow& r : m.rows) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  for (const char* name :
       {"dsim.wheel.resizes", "dsim.wheel.overflow_hits",
        "dsim.wheel.far_hits", "dsim.wheel.cascaded_events",
        "dsim.wheel.cancelled_in_place"}) {
    const telemetry::MetricRow* row = find(back, name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_EQ(row->kind, telemetry::MetricRow::Kind::kCounter) << name;
  }
  const telemetry::MetricRow* cancelled =
      find(back, "dsim.wheel.cancelled_in_place");
  EXPECT_EQ(cancelled->count, 1u);
  for (const char* name : {"dsim.wheel.buckets", "dsim.wheel.width_ps",
                           "dsim.wheel.bucket_high_water"}) {
    const telemetry::MetricRow* row = find(back, name);
    ASSERT_NE(row, nullptr) << name;
    EXPECT_EQ(row->kind, telemetry::MetricRow::Kind::kGauge) << name;
  }
  EXPECT_EQ(find(back, "dsim.wheel.buckets")->last,
            static_cast<double>(s.bucket_count()));
  telemetry::Hub::instance().disable();
  telemetry::Hub::instance().reset();
}

TEST(Scheduler, StressManyEventsStayOrdered) {
  Scheduler s;
  SimTime last = SimTime::zero();
  bool monotone = true;
  // Pseudo-random times, fixed pattern.
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    s.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(x % 100000)),
                  [&] {
                    if (s.now() < last) monotone = false;
                    last = s.now();
                  });
  }
  s.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(s.events_executed(), 5000u);
}

}  // namespace
}  // namespace castanet
