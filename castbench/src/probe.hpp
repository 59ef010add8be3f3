// The benchmark's own instrumentation: a telemetry span around each call
// the benchmark makes, or callback it registers, into one of the layers.
// While the hub is disabled a probe costs the one relaxed load of
// telemetry::enabled(), so traced and untraced runs do the same work.
#pragma once

#include <utility>

#include "src/core/telemetry.hpp"

namespace castbench {

// Span names; spans.cpp's consumers map them to layers.
inline constexpr const char* kSpanRun = "castbench.run_until";
inline constexpr const char* kSpanNext = "castbench.traffic_next";
inline constexpr const char* kSpanMapIn = "castbench.map_in";
inline constexpr const char* kSpanMonitor = "castbench.monitor";
inline constexpr const char* kSpanRef = "castbench.ref";

template <class F>
decltype(auto) probe(const char* name, F&& f) {
  if (!castanet::telemetry::enabled()) return std::forward<F>(f)();
  castanet::telemetry::Span span(name, castanet::telemetry::kMainTrack);
  return std::forward<F>(f)();
}

}  // namespace castbench
