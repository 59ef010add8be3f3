#include "src/traffic_gen.hpp"

#include "src/core/rng.hpp"
#include "src/traffic/sources.hpp"

namespace castbench {

using castanet::Rng;
using castanet::SimTime;
using castanet::traffic::CbrSource;
using castanet::traffic::CellTrace;

namespace {

const SimTime kE1Spacing = SimTime::from_ns(3200);
/// The sequence number (octets 0..3) and source tag (octet 4) stay intact.
constexpr std::size_t kFirstSeededOctet = 5;

CellTrace record_seeded(CbrSource& src, std::size_t cells, Rng& rng) {
  CellTrace trace;
  for (std::size_t i = 0; i < cells; ++i) {
    castanet::traffic::CellArrival a = src.next();
    a.cell.header.clp = rng.bernoulli(0.5);
    for (std::size_t k = kFirstSeededOctet; k < a.cell.payload.size(); ++k) {
      a.cell.payload[k] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    trace.append(a);
  }
  return trace;
}

}  // namespace

std::vector<CellTrace> e1_traffic(std::size_t total_cells) {
  std::vector<CellTrace> traces;
  const std::size_t per = total_cells / kSwitchPorts;
  for (std::size_t p = 0; p < kSwitchPorts; ++p) {
    CbrSource src({1, static_cast<std::uint16_t>(100 + p)},
                  static_cast<std::uint8_t>(p), kE1Spacing,
                  SimTime::from_ns(static_cast<std::int64_t>(p) * 800));
    traces.push_back(CellTrace::record(src, per));
  }
  return traces;
}

std::vector<CellTrace> switch_traffic(std::uint64_t seed,
                                      std::size_t total_cells) {
  Rng rng(seed);
  std::vector<CellTrace> traces;
  const std::size_t per = total_cells / kSwitchPorts;
  for (std::size_t p = 0; p < kSwitchPorts; ++p) {
    const auto phase_ns =
        static_cast<std::int64_t>(rng.uniform_int(0, 3199));
    CbrSource src({1, static_cast<std::uint16_t>(100 + p)},
                  static_cast<std::uint8_t>(p), kE1Spacing,
                  SimTime::from_ns(phase_ns));
    traces.push_back(record_seeded(src, per, rng));
  }
  return traces;
}

CellTrace accounting_traffic(std::uint64_t seed, std::size_t cells) {
  Rng rng(seed);
  CbrSource src({1, 100}, 1, SimTime::from_ns(50 * 53));
  return record_seeded(src, cells, rng);
}

std::size_t total_cells(const std::vector<CellTrace>& traces) {
  std::size_t n = 0;
  for (const CellTrace& t : traces) n += t.size();
  return n;
}

}  // namespace castbench
