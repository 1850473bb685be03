// Seeded benchmark inputs.
//
// Every workload is a fixed list of cases (protocol, n, t, crash budget);
// the seed only picks each case's concrete crash schedule, as a FaultSpec
// value, before anything is timed.  Two seeds give schedules of the same
// shape -- same cases, same budgets, same n and t -- so their timings are
// comparable, while any single run can be replayed from the printed specs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/fault_spec.h"

namespace perfbench {

// Which execution path a workload drives.
enum class Path { kSerial, kPool, kSocket };

struct Case {
  std::string label;      // unique within the workload, e.g. "D/t=4096"
  std::string protocol;   // registry name
  std::int64_t n = 0;
  int t = 0;
  int crash_budget = 0;   // what paper_bounds is asserted with
  dowork::harness::FaultSpec faults;
};

struct Workload {
  std::string name;
  Path path = Path::kSerial;
  int threads = 1;        // RoundPool parallelism on Path::kPool
  std::vector<Case> cases;
};

// The four workload names, in the order `--workload all` runs them.
const std::vector<std::string>& workload_names();

// Builds workload `name` for `seed`.  `tiny` shrinks every shape (t=16 for
// the simulator paths, t=4 with small n for the socket path) for smoke
// tests; the schedules keep their structure.  Throws std::invalid_argument
// for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny = false);

}  // namespace perfbench
