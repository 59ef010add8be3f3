// The benchmark's own tests: the self-time arithmetic on a synthetic span
// set, the paper cross-check against experiment E1's counters, and the
// determinism the benchmark's gates rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "src/spans.hpp"
#include "src/workloads.hpp"

namespace castbench {
namespace {

// --- self time ---------------------------------------------------------------

SpanRec span(const char* name, double start, double dur) {
  SpanRec s;
  s.name = name;
  s.start_us = start;
  s.dur_us = dur;
  return s;
}

// root [0,100] holds A [10,40] and B [50,90]; A holds A1 [15,25]; B holds
// the back-to-back B1 [55,60] and B2 [60,70]; B2 holds an empty span.
std::vector<SpanRec> synthetic() {
  return {span("root", 0, 100), span("A", 10, 30),  span("A1", 15, 10),
          span("B", 50, 40),    span("B1", 55, 5),  span("B2", 60, 10),
          span("empty", 65, 0)};
}

TEST(SelfTime, SyntheticNestedSpans) {
  const std::vector<double> self = self_times(synthetic());
  const std::vector<double> want{30, 20, 10, 25, 5, 10, 0};
  ASSERT_EQ(self.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_DOUBLE_EQ(self[i], want[i]) << synthetic()[i].name;
}

TEST(SelfTime, IndependentOfInputOrder) {
  std::vector<SpanRec> spans = synthetic();
  const std::vector<double> ref = self_times(spans);
  std::vector<std::size_t> perm(spans.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::mt19937 gen(7);
  for (int round = 0; round < 20; ++round) {
    std::shuffle(perm.begin(), perm.end(), gen);
    std::vector<SpanRec> shuffled;
    for (const std::size_t i : perm) shuffled.push_back(spans[i]);
    const std::vector<double> self = self_times(shuffled);
    for (std::size_t k = 0; k < perm.size(); ++k)
      EXPECT_DOUBLE_EQ(self[k], ref[perm[k]]);
  }
}

TEST(SelfTime, SiblingsAndRoundingAreNotNested) {
  // A sibling that starts where the previous span ends, and a child whose
  // recorded end overshoots its parent by less than the slack.
  const std::vector<SpanRec> spans{span("P", 0, 10), span("C", 4, 6.005),
                                   span("S", 10, 5)};
  const std::vector<double> self = self_times(spans);
  EXPECT_NEAR(self[0], 10 - 6.005, 1e-9);
  EXPECT_DOUBLE_EQ(self[1], 6.005);
  EXPECT_DOUBLE_EQ(self[2], 5);
}

TEST(SelfTime, LayersSumToTheRoot) {
  // B1 and B2 are folded into B; the empty span into B2, hence into B.
  const auto layers = layer_seconds(synthetic(), [](const SpanRec& s) {
    if (s.name == "root") return std::string("rest");
    if (s.name[0] == 'A') return std::string("a");
    return std::string(s.name == "B" ? "b" : "");
  });
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_NEAR(layers.at("a"), 30e-6, 1e-15);
  EXPECT_NEAR(layers.at("b"), 40e-6, 1e-15);
  EXPECT_NEAR(layers.at("rest"), 30e-6, 1e-15);
}

TEST(SelfTime, ParsesChromeTraceTracks) {
  const std::string doc = R"({"traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "backend:rtl"}},
    {"name": "grant", "ph": "X", "pid": 1, "tid": 2, "ts": 1.5, "dur": 2.25},
    {"name": "divergence", "ph": "i", "pid": 1, "tid": 2, "ts": 3, "s": "t"}
  ]})";
  const std::vector<SpanRec> spans = parse_chrome_trace(doc);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "grant");
  EXPECT_EQ(spans[0].track, "backend:rtl");
  EXPECT_DOUBLE_EQ(spans[0].start_us, 1.5);
  EXPECT_DOUBLE_EQ(spans[0].dur_us, 2.25);
}

// --- paper cross-check -------------------------------------------------------

RepResult e1_rep(Workload w) {
  RepSpec spec;
  spec.workload = w;
  spec.traffic = TrafficKind::kE1;
  return run_rep(spec);
}

std::string joined(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += s + "; ";
  return out;
}

TEST(PaperCrossCheck, SwitchCbrReproducesE1ConfigB) {
  const RepResult r = e1_rep(Workload::kSwitchCbr);
  ASSERT_TRUE(r.failures.empty()) << joined(r.failures);
  EXPECT_EQ(r.counters.at("rtl.clk_cycles"), 163'984);
  EXPECT_EQ(r.counters.at("rtl.activations"), 2'450'089);
  EXPECT_EQ(r.cells_verified, 10'000u);
}

TEST(PaperCrossCheck, GcuHybridReproducesE1ConfigC) {
  const RepResult r = e1_rep(Workload::kGcuHybrid);
  ASSERT_TRUE(r.failures.empty()) << joined(r.failures);
  EXPECT_EQ(r.counters.at("rtl.clk_cycles"), 163'984);
  EXPECT_EQ(r.counters.at("rtl.activations"), 357'971);
  EXPECT_EQ(r.cells_verified, 10'000u);
}

// --- determinism and the held-out seed -----------------------------------------

constexpr Workload kAll[] = {Workload::kSwitchCbr, Workload::kGcuHybrid,
                             Workload::kAccountingBoard};

class PerWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(PerWorkload, SameSeedRepeatsCountersAndAllocations) {
  RepSpec spec;
  spec.workload = GetParam();
  spec.seed = 11;
  const RepResult a = run_rep(spec);
  const RepResult b = run_rep(spec);
  ASSERT_TRUE(a.failures.empty()) << joined(a.failures);
  ASSERT_TRUE(b.failures.empty()) << joined(b.failures);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.allocs, b.allocs);
  EXPECT_GT(a.allocs.at("alloc.run_count"), 0);
}

TEST_P(PerWorkload, TracingDoesNotChangeSimulatedWork) {
  RepSpec spec;
  spec.workload = GetParam();
  spec.seed = 12;
  const RepResult plain = run_rep(spec);
  spec.traced = true;
  const RepResult traced = run_rep(spec);
  ASSERT_TRUE(plain.failures.empty()) << joined(plain.failures);
  ASSERT_TRUE(traced.failures.empty()) << joined(traced.failures);
  EXPECT_EQ(plain.counters, traced.counters);
  // Every layer is reported, and the layers add up to the traced run.
  double sum = 0;
  for (const auto& [name, s] : traced.layer_s) sum += s;
  EXPECT_GT(traced.layer_s.at("rtl.slice_s"), 0);
  EXPECT_GT(traced.layer_s.at("castanet.grant_self_s.rtl"), 0);
  EXPECT_GT(traced.layer_s.at("castanet.compare_s"), 0);
  EXPECT_NEAR(sum, traced.run_s, 0.02 * traced.run_s);
}

TEST_P(PerWorkload, HeldOutSeedPassesEveryCheck) {
  RepSpec spec;
  spec.workload = GetParam();
  spec.seed = 8'675'309;
  const RepResult r = run_rep(spec);
  EXPECT_TRUE(r.failures.empty()) << joined(r.failures);
  EXPECT_EQ(r.cells_verified, r.cells_offered);
  EXPECT_EQ(r.counters.at("sync.causality_errors"), 0);
  EXPECT_EQ(r.counters.at("cmp.divergences"), 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload, ::testing::ValuesIn(kAll),
                         [](const auto& info) {
                           return std::string(workload_name(info.param));
                         });

}  // namespace
}  // namespace castbench
