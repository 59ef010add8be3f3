// castbench — the CASTANET benchmark program.
//
//   castbench --workload <switch_cbr|gcu_hybrid|accounting_board>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Repeats the workload (fresh traffic and rig each time, from the same
// seed) for at least --seconds of host time.  --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced repetitions
// and reports the per-layer split and the work counters.  Every repetition
// checks every output, and the work counters must repeat exactly across
// repetitions.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": <cells offered>, "failed": <cells not
//    verified>, "metrics": {"<name>": <value>, ...}}
// run.py adds each metric's unit from BENCHMARK.json.
//
// Throughput is that of the fastest repetition.  Other tenants of a shared
// host only ever slow a repetition down, by up to a half for seconds to
// minutes at a time, so the fastest repetition estimates the code's own
// speed; the median over all of them mostly measures the neighbours.  On a
// 4-core shared host, 30-second runs of switch_cbr spread 27% by median
// and 3-15% by fastest repetition.  Set-up time is the median over all
// repetitions.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/workloads.hpp"

using namespace castbench;

namespace {

struct Args {
  Workload workload = Workload::kSwitchCbr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "castbench: %s\nusage: castbench --workload <switch_cbr|"
               "gcu_hybrid|accounting_board> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const char* val = argv[++i];
    if (key == "--workload") {
      const auto w = workload_from_name(val);
      if (!w) usage("unknown workload");
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}


/// Peak resident set of this process in MiB (VmHWM).  getrusage's
/// ru_maxrss would also count the parent's pages at fork time.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void emit(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::map<std::string, double>& m) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : m) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": " + number(v);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  RepSpec spec;
  spec.workload = args.workload;
  spec.seed = args.seed;

  // Untraced reps always; with --trace 1 each is followed by a traced rep,
  // so machine drift affects both halves of trace.overhead alike.
  constexpr std::size_t kMinReps = 3;
  std::vector<RepResult> plain, traced;
  while (plain.size() < kMinReps || elapsed() < args.seconds) {
    spec.traced = false;
    plain.push_back(run_rep(spec));
    if (args.trace) {
      spec.traced = true;
      traced.push_back(run_rep(spec));
    }
  }

  std::uint64_t attempted = 0, verified = 0;
  std::vector<std::string> failures;
  for (const auto* reps : {&plain, &traced}) {
    for (const RepResult& r : *reps) {
      attempted += r.cells_offered;
      verified += r.cells_verified;
      for (const std::string& f : r.failures) failures.push_back(f);
    }
  }
  // Work counters repeat exactly for one seed, traced or not; allocation
  // counts repeat exactly across the untraced reps.  The reference is the
  // first untraced rep that passed its checks.
  const auto ok = std::find_if(plain.begin(), plain.end(), [](const auto& r) {
    return r.failures.empty();
  });
  const RepResult ref = ok != plain.end() ? *ok : RepResult{};
  const auto differs = [&](const std::vector<RepResult>& reps, auto field) {
    return std::any_of(reps.begin(), reps.end(), [&](const RepResult& r) {
      return r.failures.empty() && r.*field != ref.*field;
    });
  };
  if (differs(plain, &RepResult::counters) ||
      differs(traced, &RepResult::counters))
    failures.push_back("work counters differ between reps of one seed");
  if (differs(plain, &RepResult::allocs))
    failures.push_back("allocation counts differ between reps of one seed");
  const std::uint64_t failed = attempted - verified;
  const bool correct = failed == 0 && failures.empty();

  std::map<std::string, double> metrics;
  std::vector<double> plain_run_s;
  for (const RepResult& r : plain) plain_run_s.push_back(r.run_s);
  if (!args.trace) {
    // A failed rep verified nothing, so it contributes no throughput.
    double clk = 0.0, cps = 0.0;
    std::vector<double> setup;
    for (const RepResult& r : plain) {
      setup.push_back(r.setup_s);
      if (!r.failures.empty()) continue;
      clk = std::max(clk, r.counters.at("rtl.clk_cycles") / r.run_s);
      cps = std::max(cps, static_cast<double>(r.cells_verified) / r.run_s);
    }
    metrics["clk_per_s"] = clk;
    metrics["cells_per_s"] = cps;
    metrics["setup_s"] = median(setup);
    metrics["peak_rss_mib"] = peak_rss_mib();
  } else {
    metrics.insert(ref.counters.begin(), ref.counters.end());
    metrics.insert(ref.allocs.begin(), ref.allocs.end());
    std::map<std::string, std::vector<double>> layers;
    for (const RepResult& r : traced) {
      for (const auto& [name, s] : r.layer_s) layers[name].push_back(s);
    }
    for (const auto& [name, v] : layers) metrics[name] = median(v);
    // Each traced rep against the untraced rep just before it, so host
    // speed drifts cancel out of the ratio.
    std::vector<double> overhead;
    for (std::size_t i = 0; i < traced.size(); ++i)
      overhead.push_back(traced[i].run_s / plain[i].run_s - 1.0);
    metrics["trace.overhead"] = median(overhead);
  }

  std::printf("castbench %s: seed %llu, %zu untraced + %zu traced reps, "
              "%.2f s\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed), plain.size(),
              traced.size(), elapsed());
  std::printf("  run_until median %.4f s, cells offered %llu, fail_ratio %g "
              "ratio\n",
              median(plain_run_s), static_cast<unsigned long long>(attempted),
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0);
  for (const std::string& f : failures) std::printf("  FAILED: %s\n", f.c_str());
  for (const auto& [name, v] : metrics)
    std::printf("  %-34s %16.6g\n", name.c_str(), v);
  emit(correct, attempted, failed, metrics);
  return 0;
}
