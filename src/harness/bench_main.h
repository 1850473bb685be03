// The `dowork_bench` CLI driver: parse flags, expand experiments to
// scenarios, fan out on the ParallelScenarioRunner, print paper-style
// tables, optionally write the deterministic JSON report.
#pragma once

#include <string>

#include "harness/scenario.h"

namespace dowork::harness {

struct BenchOptions {
  // Experiment names to run: one name, a comma-separated list, or "all".
  std::string experiment;
  int jobs = 0;           // 0 = hardware concurrency
  std::string json_path;  // empty = no JSON output
  std::string filter;     // substring over scenario ids; empty = keep all
  bool list_only = false;
  bool quiet = false;   // suppress tables (JSON/e2e timing only)
  bool timing = false;  // include the machine-dependent "timing" JSON key
  // --backend sim|live|socket: copied into every sync scenario's
  // Scenario::backend -- kSim (default), kThread (worker threads on a
  // supervised RoundPool) or kSocket (worker OS processes over localhost
  // sockets), the live ones under the deterministic barrier schedule.  The
  // deterministic report is byte-identical on every backend by the oracle
  // contract -- CI diffs the JSONs -- and --timing additionally carries
  // units_per_sec.
  substrate::Backend backend = substrate::Backend::kSim;
  // --transport uds|tcp: copied into Scenario::live.transport; tcp speaks
  // TCP over 127.0.0.1 instead of Unix-domain sockets.  tcp without
  // --backend socket is rejected (exit 2), to catch typos.
  substrate::Transport transport = substrate::Transport::kUds;
  // --sim-threads N: round-parallel evaluation inside each simulator run
  // (RoundPool).  Orthogonal to --jobs (scenarios x threads-within-a-run);
  // byte-identical reports at any value, by the ordered-commit contract.
  // N > 1 on a live backend is rejected (exit 2): its executor would
  // ignore N.
  int sim_threads = 1;
};

// Parses argv (flags: --experiment NAME[,NAME...], --jobs N, --json PATH,
// --filter SUBSTR, --backend sim|live|socket, --transport uds|tcp,
// --sim-threads N, --timing, --list, --quiet, --help).  Socket-substrate
// worker re-executions (substrate::maybe_socket_worker) are intercepted
// before flag parsing, so the binary serves as its own worker image.
// Returns the process exit code.
int bench_main(int argc, char** argv);

}  // namespace dowork::harness
