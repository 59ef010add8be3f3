// Experiment E9 — event-list scalability (PR 10).
//
// The paper's co-verification loop leans on the network simulator's event
// list for every cell hop, timer, and synchronization message; §2 attributes
// the event-driven kernel's cost to exactly this machinery.  E9 measures the
// data structure directly: schedule/pop and cancel/re-schedule churn at a
// pinned backlog of 1k .. 1M pending events, calendar queue (dsim::Scheduler)
// vs the retained binary-heap reference (HeapScheduler, kept with the test
// support code) in the same run.  The heap's per-op cost grows ~log N with the backlog; the calendar
// queue should stay flat — the smoke gate asserts wheel throughput at the
// largest backlog stays within 2x of the smallest.
//
// Workloads:
//   hold   — timer-farm shape: P events spread over a horizon; each pop
//            re-arms one event at the back of the horizon (constant backlog,
//            overflow-wheel cascading exercised continuously).
//   cancel — signaling shape: cancel a random pending event and re-schedule
//            it (the O(1)-cancel path the heap only handles lazily).
//
// Env knobs: CASTANET_E9_MAX_PENDING (default 1000000) caps the backlog
// ladder; CASTANET_E9_OPS (default 200000) sets ops per measurement.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_util.hpp"
#include "src/core/rng.hpp"
#include "src/dsim/scheduler.hpp"
#include "tests/support/heap_scheduler.hpp"

using namespace castanet;
using bench::WallTimer;

namespace {

constexpr std::int64_t kSpacingPs = 1000;  // one event per ns of backlog

std::uint64_t env_or(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
}

/// Pin `pending` events on the scheduler, spaced kSpacingPs apart.
template <typename S>
void populate(S& s, std::uint64_t pending, std::vector<EventHandle>* handles) {
  for (std::uint64_t i = 0; i < pending; ++i) {
    EventHandle h = s.schedule_at(
        s.now() + SimTime::from_ps(static_cast<std::int64_t>(i + 1) *
                                   kSpacingPs),
        [] {});
    if (handles != nullptr) handles->push_back(h);
  }
}

/// Publishes wheel telemetry when the hub is on (--metrics); HeapScheduler
/// has no wheel, so its overload is a no-op.
inline void publish_wheel(const Scheduler& s) { s.publish_telemetry(); }
inline void publish_wheel(const HeapScheduler&) {}

/// Timer-farm churn: pop the earliest event, re-arm one at the horizon.
template <typename S>
double run_hold(std::uint64_t pending, std::uint64_t ops) {
  S s;
  populate(s, pending, nullptr);
  const SimTime horizon =
      SimTime::from_ps(static_cast<std::int64_t>(pending) * kSpacingPs);
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    s.schedule_at(s.now() + horizon, [] {});
    s.step();
  }
  const double wall = timer.seconds();
  publish_wheel(s);
  return wall;
}

/// Cancellation churn: cancel a pseudo-random pending event, re-schedule it.
template <typename S>
double run_cancel(std::uint64_t pending, std::uint64_t ops) {
  S s;
  std::vector<EventHandle> handles;
  handles.reserve(pending);
  populate(s, pending, &handles);
  const SimTime horizon =
      SimTime::from_ps(static_cast<std::int64_t>(pending) * kSpacingPs);
  Rng rng(7);
  WallTimer timer;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::size_t victim =
        static_cast<std::size_t>(rng.uniform_int(0, pending - 1));
    s.cancel(handles[victim]);
    handles[victim] = s.schedule_at(
        s.now() + SimTime::from_ps(static_cast<std::int64_t>(
                      rng.uniform_int(1, static_cast<std::uint64_t>(
                                             horizon.ps())))),
        [] {});
  }
  const double wall = timer.seconds();
  publish_wheel(s);
  return wall;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "e9_sched_scale");
  bench::TelemetryCli telemetry(argc, argv);
  const std::uint64_t max_pending = env_or("CASTANET_E9_MAX_PENDING", 1'000'000);
  const std::uint64_t ops = env_or("CASTANET_E9_OPS", 200'000);

  std::printf("E9: event-list scalability — calendar queue vs binary heap\n");
  std::printf("churn of %llu ops at a pinned backlog of pending events\n",
              static_cast<unsigned long long>(ops));
  bench::rule('=');
  std::printf("%-10s %12s %16s %16s %9s\n", "workload", "pending",
              "wheel ev/s", "heap ev/s", "wheel/heap");
  bench::rule();

  for (const std::uint64_t pending : {1'000ull, 10'000ull, 100'000ull,
                                      1'000'000ull}) {
    if (pending > max_pending) continue;
    for (const bool cancel_mix : {false, true}) {
      const double wheel_s =
          cancel_mix ? run_cancel<Scheduler>(pending, ops)
                     : run_hold<Scheduler>(pending, ops);
      const double heap_s =
          cancel_mix ? run_cancel<HeapScheduler>(pending, ops)
                     : run_hold<HeapScheduler>(pending, ops);
      const double wheel_eps = static_cast<double>(ops) / wheel_s;
      const double heap_eps = static_cast<double>(ops) / heap_s;
      const char* workload = cancel_mix ? "cancel" : "hold";
      char config[64];
      std::snprintf(config, sizeof(config), "%s_p%llu", workload,
                    static_cast<unsigned long long>(pending));
      report.begin_row(config);
      report.metric("pending", pending);
      report.metric("ops", ops);
      report.metric("wheel_wall_seconds", wheel_s);
      report.metric("heap_wall_seconds", heap_s);
      report.metric("wheel_events_per_sec", wheel_eps);
      report.metric("heap_events_per_sec", heap_eps);
      report.metric("wheel_vs_heap", wheel_eps / heap_eps);
      std::printf("%-10s %12llu %16.0f %16.0f %8.2fx\n", workload,
                  static_cast<unsigned long long>(pending), wheel_eps,
                  heap_eps, wheel_eps / heap_eps);
    }
  }
  bench::rule();
  std::printf("flat wheel rows (vs log-N heap decay) are the win; the smoke\n"
              "gate checks hold_p1000000 wheel throughput >= 0.5x hold_p1000\n");
  return 0;
}
