// Span bookkeeping for the traced run: reads the complete ("X") events the
// telemetry hub renders as a Chrome trace, computes each span's self time
// (its duration minus the durations of its direct children) and folds the
// self times into named layers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace castbench {

struct SpanRec {
  std::string name;
  std::string track;  ///< timeline row name, e.g. "backend:rtl"
  double start_us = 0.0;
  double dur_us = 0.0;
  double end_us() const { return start_us + dur_us; }
};

/// The complete events of a Chrome trace_event document, with their
/// timeline-row names resolved from the thread_name metadata.
std::vector<SpanRec> parse_chrome_trace(const std::string& json_text);

/// Self time of every span, index-aligned with `spans`.  The spans must
/// come from one thread, so that they nest properly in time; a span is the
/// child of the innermost earlier span that contains it, allowing for the
/// rounding of recorded time stamps at a span's end.
std::vector<double> self_times(const std::vector<SpanRec>& spans);

/// Maps a span to the layer its self time is charged to; an empty string
/// folds the span into the span that encloses it.
using LayerOf = std::string (*)(const SpanRec&);

/// Sums self times per layer, in seconds.  Folded spans are dropped before
/// the self times are computed, so their time stays with their parent and
/// the layers still add up to the outermost spans' durations.
std::map<std::string, double> layer_seconds(const std::vector<SpanRec>& spans,
                                            LayerOf layer_of);

}  // namespace castbench
