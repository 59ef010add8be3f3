#include "src/castanet/regression.hpp"

#include <fstream>
#include <sstream>

#include "src/castanet/farm.hpp"
#include "src/castanet/wire.hpp"
#include "src/core/error.hpp"

namespace castanet::cosim {

void RegressionSuite::add_case(RegressionCase c) {
  require(!c.name.empty(), "RegressionSuite: case needs a name");
  for (char ch : c.name) {
    require(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                ch == '-',
            "RegressionSuite: case name must be [alnum_-]: '" + c.name + "'");
  }
  for (const auto& existing : cases_) {
    require(existing.name != c.name,
            "RegressionSuite: duplicate case '" + c.name + "'");
  }
  cases_.push_back(std::move(c));
}

namespace {

/// Judges `actual` against the cells `cmp` already expects, in order, and
/// against every expected counter by name (a counter `actual` lacks reads
/// as all-ones), then fills the verdict fields of `report`.
void judge(ResponseComparator& cmp,
           const std::map<std::string, std::uint64_t>& expected_counters,
           const CaseResult& actual, CaseReport& report) {
  for (const atm::Cell& cell : actual.output) cmp.actual(cell);
  std::uint64_t id = 0;
  for (const auto& [name, want] : expected_counters) {
    auto it = actual.counters.find(name);
    cmp.compare_value(id++, want,
                      it == actual.counters.end() ? ~std::uint64_t{0}
                                                  : it->second,
                      name);
  }
  cmp.finish();
  report.passed = cmp.clean();
  report.mismatches = cmp.mismatches().size();
  if (!report.passed) report.detail = cmp.report();
}

}  // namespace

std::vector<CaseReport> RegressionSuite::run(
    const DeviceBinding& device) const {
  std::vector<CaseReport> reports;
  for (const RegressionCase& c : cases_) {
    CaseReport report;
    report.name = c.name;
    CaseResult result;
    try {
      result = device(c);
    } catch (const Error& e) {
      report.passed = false;
      report.mismatches = 1;
      report.detail = std::string("device binding threw: ") + e.what();
      reports.push_back(std::move(report));
      continue;
    }
    ResponseComparator cmp;
    for (const auto& a : c.golden_output.arrivals()) cmp.expect(a.cell);
    judge(cmp, c.golden_counters, result, report);
    reports.push_back(std::move(report));
  }
  return reports;
}

namespace {

/// One case against every binding — the unit the farm shards.
std::vector<CaseReport> cross_run_case(
    const RegressionCase& c,
    const std::vector<RegressionSuite::NamedBinding>& bindings) {
  std::vector<CaseReport> reports;
  CaseResult primary;
  std::string primary_error;
  try {
    primary = bindings.front().run(c);
  } catch (const Error& e) {
    primary_error = std::string("primary binding '") + bindings.front().name +
                    "' threw: " + e.what();
  }
  for (std::size_t b = 1; b < bindings.size(); ++b) {
    CaseReport report;
    report.name = c.name + ":" + bindings[b].name;
    if (!primary_error.empty()) {
      report.mismatches = 1;
      report.detail = primary_error;
      reports.push_back(std::move(report));
      continue;
    }
    CaseResult result;
    try {
      result = bindings[b].run(c);
    } catch (const Error& e) {
      report.mismatches = 1;
      report.detail = std::string("device binding threw: ") + e.what();
      reports.push_back(std::move(report));
      continue;
    }
    ResponseComparator cmp;
    for (const atm::Cell& cell : primary.output) cmp.expect(cell);
    judge(cmp, primary.counters, result, report);
    reports.push_back(std::move(report));
  }
  return reports;
}

std::vector<std::uint8_t> encode_reports(
    const std::vector<CaseReport>& reports) {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(reports.size()));
  for (const CaseReport& r : reports) {
    w.str(r.name);
    w.u8(r.passed ? 1 : 0);
    w.u64(r.mismatches);
    w.str(r.detail);
  }
  return w.take();
}

std::vector<CaseReport> decode_reports(const std::vector<std::uint8_t>& bytes) {
  wire::Reader rd(bytes);
  std::vector<CaseReport> reports(rd.u32());
  for (CaseReport& r : reports) {
    r.name = rd.str();
    r.passed = rd.u8() != 0;
    r.mismatches = static_cast<std::size_t>(rd.u64());
    r.detail = rd.str();
  }
  return reports;
}

}  // namespace

std::vector<CaseReport> RegressionSuite::cross_run(
    const std::vector<NamedBinding>& bindings) const {
  require(bindings.size() >= 2,
          "RegressionSuite::cross_run: need a primary and at least one "
          "other binding");
  std::vector<CaseReport> reports;
  for (const RegressionCase& c : cases_) {
    std::vector<CaseReport> case_reports = cross_run_case(c, bindings);
    reports.insert(reports.end(),
                   std::make_move_iterator(case_reports.begin()),
                   std::make_move_iterator(case_reports.end()));
  }
  return reports;
}

std::vector<CaseReport> RegressionSuite::cross_run(
    const std::vector<NamedBinding>& bindings, int jobs) const {
  if (jobs <= 1 || cases_.size() <= 1) return cross_run(bindings);
  require(bindings.size() >= 2,
          "RegressionSuite::cross_run: need a primary and at least one "
          "other binding");
  std::vector<std::vector<CaseReport>> per_case(cases_.size());
  farm::fork_map(
      cases_.size(), jobs,
      [&](std::size_t item, int) {
        return encode_reports(cross_run_case(cases_[item], bindings));
      },
      [&](std::size_t item, const std::vector<std::uint8_t>& bytes) {
        per_case[item] = decode_reports(bytes);
      },
      [&](std::size_t item, const std::string& detail) {
        // Synthesize the same report shape the serial path would produce.
        for (std::size_t b = 1; b < bindings.size(); ++b) {
          CaseReport r;
          r.name = cases_[item].name + ":" + bindings[b].name;
          r.mismatches = 1;
          r.detail = detail;
          per_case[item].push_back(std::move(r));
        }
      });
  std::vector<CaseReport> reports;
  for (std::vector<CaseReport>& case_reports : per_case) {
    reports.insert(reports.end(),
                   std::make_move_iterator(case_reports.begin()),
                   std::make_move_iterator(case_reports.end()));
  }
  return reports;
}

bool RegressionSuite::all_passed(const std::vector<CaseReport>& reports) {
  for (const CaseReport& r : reports) {
    if (!r.passed) return false;
  }
  return true;
}

std::string RegressionSuite::summary(const std::vector<CaseReport>& reports) {
  std::ostringstream os;
  std::size_t passed = 0;
  for (const CaseReport& r : reports) passed += r.passed ? 1 : 0;
  os << passed << "/" << reports.size() << " regression cases passed\n";
  for (const CaseReport& r : reports) {
    os << "  [" << (r.passed ? "PASS" : "FAIL") << "] " << r.name;
    if (!r.passed) os << " (" << r.mismatches << " mismatches)";
    os << "\n";
    if (!r.passed && !r.detail.empty()) os << r.detail;
  }
  return os.str();
}

void RegressionSuite::save(const std::string& dir) const {
  std::ofstream manifest(dir + "/suite.manifest");
  if (!manifest) {
    throw IoError("RegressionSuite::save: cannot write manifest in '" + dir +
                  "'");
  }
  manifest << "castanet-regression v1\n";
  for (const RegressionCase& c : cases_) {
    manifest << "case " << c.name;
    for (const auto& [name, value] : c.golden_counters) {
      manifest << " " << name << "=" << value;
    }
    manifest << "\n";
    c.stimulus.save(dir + "/" + c.name + ".stim");
    c.golden_output.save(dir + "/" + c.name + ".gold");
  }
}

RegressionSuite RegressionSuite::load(const std::string& dir) {
  std::ifstream manifest(dir + "/suite.manifest");
  if (!manifest) {
    throw IoError("RegressionSuite::load: no manifest in '" + dir + "'");
  }
  std::string line;
  if (!std::getline(manifest, line) || line != "castanet-regression v1") {
    throw IoError("RegressionSuite::load: bad manifest header");
  }
  RegressionSuite suite;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string word, name;
    if (!(ls >> word >> name) || word != "case") {
      throw IoError("RegressionSuite::load: malformed manifest line: " +
                    line);
    }
    RegressionCase c;
    c.name = name;
    std::string kv;
    while (ls >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw IoError("RegressionSuite::load: malformed counter: " + kv);
      }
      c.golden_counters[kv.substr(0, eq)] =
          std::stoull(kv.substr(eq + 1));
    }
    c.stimulus = traffic::CellTrace::load(dir + "/" + name + ".stim");
    c.golden_output = traffic::CellTrace::load(dir + "/" + name + ".gold");
    suite.add_case(std::move(c));
  }
  return suite;
}

void RegressionSuite::record_goldens(const DeviceBinding& reference) {
  for (RegressionCase& c : cases_) {
    const CaseResult r = reference(c);
    traffic::CellTrace golden;
    for (const atm::Cell& cell : r.output) {
      golden.append({SimTime::zero(), cell});
    }
    c.golden_output = golden;
    c.golden_counters.clear();
    for (const auto& [name, value] : r.counters) {
      c.golden_counters[name] = value;
    }
  }
}

}  // namespace castanet::cosim
