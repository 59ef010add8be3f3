// Randomized differential test: the calendar-queue Scheduler must execute
// events in an order bit-for-bit identical to the retained reference
// implementation (HeapScheduler), across random (time, priority) mixes,
// equal-time ties, cancellation storms, advance_to, and events that
// re-schedule from inside a running event.  The heap defines the contract —
// strict (when, priority, insertion-seq) order — so any divergence is a
// wheel bug by definition.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/core/rng.hpp"
#include "src/dsim/scheduler.hpp"
#include "tests/support/heap_scheduler.hpp"

namespace castanet {
namespace {

/// Drives the same operation stream into both schedulers and checks that
/// every observable agrees: execution order, now(), next_event_time(),
/// cancel() return values, and the E7 counters.
class DiffHarness {
 public:
  void schedule(SimTime when, int priority, int id) {
    // Events divisible by 5 re-schedule a follow-up from inside their own
    // execution — the same derivation on both sides, so the streams stay
    // identical as long as execution order does.
    wheel_handles_.push_back(wheel_.schedule_at(
        when,
        [this, id] {
          wheel_log_.push_back(id);
          if (id % 5 == 0 && id < 1'000'000) {
            wheel_.schedule_at(wheel_.now() + SimTime::from_ns(1 + id % 7),
                               [this, id] { wheel_log_.push_back(id + 1'000'000); },
                               id % 3);
          }
        },
        priority));
    heap_handles_.push_back(heap_.schedule_at(
        when,
        [this, id] {
          heap_log_.push_back(id);
          if (id % 5 == 0 && id < 1'000'000) {
            heap_.schedule_at(heap_.now() + SimTime::from_ns(1 + id % 7),
                              [this, id] { heap_log_.push_back(id + 1'000'000); },
                              id % 3);
          }
        },
        priority));
  }

  void cancel(std::size_t index) {
    ASSERT_LT(index, wheel_handles_.size());
    const bool w = wheel_.cancel(wheel_handles_[index]);
    const bool h = heap_.cancel(heap_handles_[index]);
    EXPECT_EQ(w, h) << "cancel disagreement at handle " << index;
  }

  void step_both() {
    const bool w = wheel_.step();
    const bool h = heap_.step();
    ASSERT_EQ(w, h);
    check();
  }

  void run_until_both(SimTime limit) {
    const std::uint64_t w = wheel_.run_until(limit);
    const std::uint64_t h = heap_.run_until(limit);
    ASSERT_EQ(w, h);
    check();
  }

  void advance_both(SimTime delta) {
    const SimTime next_w = wheel_.next_event_time();
    ASSERT_EQ(next_w, heap_.next_event_time());
    SimTime t = wheel_.now() + delta;
    if (next_w < t) t = next_w;
    wheel_.advance_to(t);
    heap_.advance_to(t);
    ASSERT_EQ(wheel_.now(), heap_.now());
  }

  void drain() {
    const std::uint64_t w = wheel_.run();
    const std::uint64_t h = heap_.run();
    ASSERT_EQ(w, h);
    check();
    ASSERT_TRUE(wheel_.empty());
    ASSERT_TRUE(heap_.empty());
    ASSERT_EQ(wheel_.events_executed(), heap_.events_executed());
    ASSERT_EQ(wheel_.events_scheduled(), heap_.events_scheduled());
  }

  void check() {
    ASSERT_EQ(wheel_log_.size(), heap_log_.size());
    ASSERT_EQ(wheel_log_, heap_log_) << "execution order diverged";
    ASSERT_EQ(wheel_.now(), heap_.now());
    ASSERT_EQ(wheel_.next_event_time(), heap_.next_event_time());
  }

  Scheduler wheel_;
  HeapScheduler heap_;
  std::vector<EventHandle> wheel_handles_;
  std::vector<EventHandle> heap_handles_;
  std::vector<int> wheel_log_;
  std::vector<int> heap_log_;
};

/// One randomized episode: `spread_ps` controls how far into the future
/// events land, which steers traffic between the day wheel (small spread),
/// the overflow wheel, and the far list (large spread).
void run_episode(std::uint64_t seed, std::int64_t spread_ps, int ops) {
  Rng rng(seed);
  DiffHarness hx;
  int next_id = 1;
  SimTime last_when = SimTime::zero();
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t dice = rng.uniform_int(0, 99);
    if (dice < 55) {
      // Schedule; one in four reuses the previous time stamp to force
      // equal-time (priority, seq) tie-breaking.
      SimTime when =
          hx.wheel_.now() +
          SimTime::from_ps(static_cast<std::int64_t>(
              rng.uniform_int(0, static_cast<std::uint64_t>(spread_ps))));
      if (rng.bernoulli(0.25) && last_when >= hx.wheel_.now()) {
        when = last_when;
      }
      last_when = when;
      const int priority = static_cast<int>(rng.uniform_int(0, 4)) - 2;
      hx.schedule(when, priority, next_id++);
    } else if (dice < 75) {
      if (!hx.wheel_handles_.size()) continue;
      // Cancellation storm: several cancels in a row, including handles
      // that already ran (both sides must agree the cancel fails).
      const int burst = static_cast<int>(rng.uniform_int(1, 8));
      for (int b = 0; b < burst; ++b) {
        hx.cancel(static_cast<std::size_t>(
            rng.uniform_int(0, hx.wheel_handles_.size() - 1)));
      }
    } else if (dice < 90) {
      hx.step_both();
    } else if (dice < 96) {
      hx.run_until_both(hx.wheel_.now() +
                        SimTime::from_ps(static_cast<std::int64_t>(rng.uniform_int(
                            0, static_cast<std::uint64_t>(spread_ps)))));
    } else {
      hx.advance_both(SimTime::from_ps(static_cast<std::int64_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(spread_ps) / 2 + 1))));
    }
    if (testing::Test::HasFatalFailure()) return;
  }
  hx.drain();
}

TEST(SchedulerDiff, DenseSameBucketTraffic) {
  // Small spread: everything lands within a few day-wheel buckets; heavy
  // equal-time and same-bucket collisions.
  for (const std::uint64_t seed : {1u, 2u, 42u}) {
    run_episode(seed, 5'000, 1500);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDiff, CellRateTraffic) {
  // Spread around the ATM cell slot (~2.7us at 155 Mb/s): the regime the
  // initial bucket width targets.
  for (const std::uint64_t seed : {3u, 7u, 12345u}) {
    run_episode(seed, 3'000'000, 1500);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDiff, WideSpreadHitsOverflowAndFar) {
  // Large spread: most events park beyond the day-wheel horizon and must
  // migrate back in (or pop straight from overflow) in exact order.
  for (const std::uint64_t seed : {5u, 99u, 2026u}) {
    run_episode(seed, 400'000'000'000, 800);
    if (testing::Test::HasFatalFailure()) return;
  }
}

TEST(SchedulerDiff, MixedRegimesWithResizePressure) {
  // Alternate dense bursts with wide parks so the wheel grows, shrinks, and
  // re-derives its bucket width mid-stream.
  Rng rng(77);
  DiffHarness hx;
  int next_id = 1;
  for (int round = 0; round < 6; ++round) {
    const std::int64_t spread = (round % 2 == 0) ? 2'000 : 50'000'000'000;
    for (int i = 0; i < 400; ++i) {
      const SimTime when =
          hx.wheel_.now() +
          SimTime::from_ps(static_cast<std::int64_t>(
              rng.uniform_int(1, static_cast<std::uint64_t>(spread))));
      hx.schedule(when, static_cast<int>(rng.uniform_int(0, 2)), next_id++);
    }
    // Cancel a third of everything outstanding, then pop half the backlog.
    for (int i = 0; i < 130; ++i) {
      hx.cancel(static_cast<std::size_t>(
          rng.uniform_int(0, hx.wheel_handles_.size() - 1)));
      if (testing::Test::HasFatalFailure()) return;
    }
    for (int i = 0; i < 200; ++i) {
      hx.step_both();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  hx.drain();
}

}  // namespace
}  // namespace castanet
