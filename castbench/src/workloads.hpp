// The three co-verification workloads and one repetition ("rep") of each:
// record the traffic from the seed, build the rig, run the serial
// VerificationSession to the horizon, check every output, and read the
// deterministic work counters of every layer.  A traced rep additionally
// splits the host time of run_until across the layers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace castbench {

enum class Workload { kSwitchCbr, kGcuHybrid, kAccountingBoard };

std::optional<Workload> workload_from_name(const std::string& name);
const char* workload_name(Workload w);

enum class TrafficKind {
  kSeeded,  ///< the workload's traffic shape with seeded content
  kE1,      ///< experiment E1's traffic verbatim (switch workloads only)
};

struct RepSpec {
  Workload workload = Workload::kSwitchCbr;
  std::uint64_t seed = 1;
  TrafficKind traffic = TrafficKind::kSeeded;
  bool traced = false;
};

struct RepResult {
  double setup_s = 0.0;  ///< traffic recording + rig construction
  double run_s = 0.0;    ///< VerificationSession::run_until
  std::uint64_t cells_offered = 0;
  /// Cells delivered and matched by every backend; zero when any output
  /// check of the rep failed.
  std::uint64_t cells_verified = 0;
  std::vector<std::string> failures;  ///< failed output checks
  /// Deterministic work counters, by metric name.  Identical for the same
  /// seed, traced or not.
  std::map<std::string, double> counters;
  /// Allocation counters (alloc.*).  Deterministic for the same seed in
  /// untraced reps; the trace ring allocates, so traced reps differ.
  std::map<std::string, double> allocs;
  /// Traced reps only: self time per layer in seconds, by metric name.
  std::map<std::string, double> layer_s;
};

/// Runs one rep.  Exceptions from the rig count as a failed check.
RepResult run_rep(const RepSpec& spec);

}  // namespace castbench
