#include "src/spans.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <string_view>

namespace castbench {

namespace {

/// How far a child's recorded end may overrun its parent's: the rounding
/// of recorded time stamps, in microseconds.
constexpr double kSlackUs = 0.01;

/// `"key": ` followed by `tail`.
std::string key_pattern(std::string_view key, std::string_view tail) {
  std::string pat(1, '"');
  pat.append(key).append("\": ").append(tail);
  return pat;
}

/// Reads the string value of `"key": "..."` in `line`; false when absent.
/// Names in the trace are instrumentation literals, so escapes are not
/// expected.
bool string_field(std::string_view line, std::string_view key,
                  std::string_view* out) {
  const std::string pat = key_pattern(key, "\"");
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return false;
  const std::size_t begin = at + pat.size();
  const std::size_t end = line.find('"', begin);
  if (end == std::string_view::npos) return false;
  *out = line.substr(begin, end - begin);
  return true;
}

bool number_field(std::string_view line, std::string_view key, double* out) {
  const std::string pat = key_pattern(key, "");
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return false;
  // The line is a view into a NUL-terminated document, so strtod stops at
  // the following ',' or '}' at the latest.
  char* end = nullptr;
  *out = std::strtod(line.data() + at + pat.size(), &end);
  return end != line.data() + at + pat.size();
}

}  // namespace

std::vector<SpanRec> parse_chrome_trace(const std::string& json_text) {
  // The hub renders one event object per line; scan the lines instead of
  // building a document tree, which for a million spans costs more than
  // the traced run itself.
  struct Raw {
    std::string_view name;
    long tid;
    double ts, dur;
  };
  std::vector<Raw> raw;
  std::vector<std::pair<long, std::string>> tracks;
  std::string_view doc(json_text);
  for (std::size_t pos = 0; pos < doc.size();) {
    std::size_t eol = doc.find('\n', pos);
    if (eol == std::string_view::npos) eol = doc.size();
    const std::string_view line = doc.substr(pos, eol - pos);
    pos = eol + 1;
    std::string_view ph, name;
    double tid = 0;
    if (!string_field(line, "ph", &ph) || !string_field(line, "name", &name))
      continue;
    number_field(line, "tid", &tid);
    if (ph == "M" && name == "thread_name") {
      const std::size_t args = line.find("\"args\"");
      std::string_view track;
      if (args != std::string_view::npos &&
          string_field(line.substr(args), "name", &track)) {
        tracks.emplace_back(static_cast<long>(tid), std::string(track));
      }
    } else if (ph == "X") {
      Raw r{name, static_cast<long>(tid), 0.0, 0.0};
      number_field(line, "ts", &r.ts);
      number_field(line, "dur", &r.dur);
      raw.push_back(r);
    }
  }
  std::vector<SpanRec> spans;
  spans.reserve(raw.size());
  for (const Raw& r : raw) {
    SpanRec s;
    s.name = std::string(r.name);
    for (const auto& [tid, track] : tracks) {
      if (tid == r.tid) s.track = track;
    }
    s.start_us = r.ts;
    s.dur_us = r.dur;
    spans.push_back(std::move(s));
  }
  return spans;
}

std::vector<double> self_times(const std::vector<SpanRec>& spans) {
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Parents before their children: earlier start first, and on equal
  // starts the longer (enclosing) span first.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (spans[a].start_us != spans[b].start_us)
                       return spans[a].start_us < spans[b].start_us;
                     return spans[a].dur_us > spans[b].dur_us;
                   });
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;
  std::vector<std::size_t> open;  // chain of enclosing spans, innermost last
  for (const std::size_t i : order) {
    const SpanRec& s = spans[i];
    while (!open.empty()) {
      const SpanRec& top = spans[open.back()];
      const bool ended_before = top.end_us() <= s.start_us;
      const bool overruns = s.end_us() > top.end_us() + kSlackUs;
      if (!ended_before && !overruns) break;
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= s.dur_us;
    open.push_back(i);
  }
  return self;
}

std::map<std::string, double> layer_seconds(const std::vector<SpanRec>& spans,
                                            LayerOf layer_of) {
  std::vector<SpanRec> kept;
  std::vector<std::string> layers;
  for (const SpanRec& s : spans) {
    std::string layer = layer_of(s);
    if (layer.empty()) continue;  // folded into the enclosing span
    kept.push_back(s);
    layers.push_back(std::move(layer));
  }
  const std::vector<double> self = self_times(kept);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < kept.size(); ++i)
    out[layers[i]] += self[i] * 1e-6;
  return out;
}

}  // namespace castbench
