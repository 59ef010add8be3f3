// The benchmark's traffic generators.  Every workload records its stimulus
// up front, from the workload seed, and hands the rigs nothing but the
// recorded traces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/traffic/trace.hpp"

namespace castbench {

constexpr std::size_t kSwitchPorts = 4;

/// Experiment E1's traffic, cell for cell: per-port CBR at 3.2 us (83% of
/// a 2.65 us cell time, so lossless) on VC (1, 100 + port), port p
/// starting at p x 800 ns; `total_cells` split evenly over the four ports.
std::vector<castanet::traffic::CellTrace> e1_traffic(std::size_t total_cells);

/// E1's traffic shape with seeded content: the same per-port 3.2 us CBR
/// streams, but each port starts at a seeded phase in [0, 3.2 us) and
/// every cell carries a seeded CLP bit and seeded payload octets after the
/// source's sequence number and tag.
std::vector<castanet::traffic::CellTrace> switch_traffic(
    std::uint64_t seed, std::size_t total_cells);

/// The accounting rig's stimulus shape (back-to-back CBR on VC (1, 100) at
/// the board's 2.65 us cell time) with seeded CLP bits and payload octets.
castanet::traffic::CellTrace accounting_traffic(std::uint64_t seed,
                                                std::size_t cells);

/// Total number of cells in `traces`.
std::size_t total_cells(const std::vector<castanet::traffic::CellTrace>& t);

}  // namespace castbench
