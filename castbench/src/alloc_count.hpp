// Process-wide allocation counters fed by the counting global operator new
// in alloc_count.cpp.  Only the benchmark executables link that file, so
// the library itself is never built with a replaced allocator.
#pragma once

#include <cstdint>

namespace castbench::alloc {

struct Totals {
  std::uint64_t count = 0;  ///< operator new calls since program start
  std::uint64_t bytes = 0;  ///< bytes requested by those calls
};

Totals totals();

}  // namespace castbench::alloc
