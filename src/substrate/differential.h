// The simulator as differential-testing oracle (the headline of ROADMAP
// item 4): run the identical (protocol, shape, FaultSpec, seed) case on
// both execution substrates and compare.
//
// Two modes, matching the two live schedules:
//
//   * Deterministic barrier schedule -- the live backend commits in
//     ascending process id, reproducing the simulator's serial
//     interleaving, so EVERY deterministic RunMetrics field must match the
//     sim run field for field (compare_metrics reports the first
//     divergence).  A mismatch is a bug in one of the substrates, never
//     acceptable noise.
//   * Free schedule -- commits land in completion order, the OS scheduler
//     is a real adversary, and metric equality is not expected; callers
//     assert only the paper bounds (src/harness/bounds.h) and the verifier.
//
// run_differential drives the deterministic mode end to end; the harness's
// `differential` experiment family and dowork_fuzz --differential are built
// on it.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "substrate/substrate.h"

namespace dowork::substrate {

// Field-for-field comparison of two runs' deterministic metrics.  Returns
// "" when equal, else a human-readable first-divergence description
// ("messages_total: sim=96 live=94").  Wall-clock and LiveStats fields are
// substrate-specific and never compared.
std::string compare_metrics(const RunMetrics& sim, const RunMetrics& live);

struct DiffResult {
  RunResult sim;        // the oracle leg
  LiveRunResult live;   // the live-substrate leg (thread or socket)
  std::string divergence;  // "" = metric-for-metric equal and both legs verified
  bool ok() const { return divergence.empty(); }
};

// Runs the case on the simulator, then on `backend` (kThread or kSocket)
// under the deterministic barrier schedule -- `live.schedule` is forced,
// since that is the mode with an equality oracle; its deadlines and
// transport apply -- and checks: sim leg verifies, live leg verifies,
// metrics equal.  Throws std::invalid_argument for Backend::kSim: a
// sim-vs-sim pair is a mis-set scenario, not a differential test.
//
// The injector factory is called once per leg and must produce independent
// injectors with identical deterministic behavior (every FaultSpec::make
// satisfies this -- specs are pure descriptions and adaptive strategies
// derive their choices from seed + observed state, which the deterministic
// schedule makes identical across legs).
using InjectorFactory = std::function<std::unique_ptr<FaultInjector>()>;

DiffResult run_differential(const ProtocolInfo& info, const DoAllConfig& cfg,
                            const InjectorFactory& make_injector, const RunOptions& run = {},
                            Backend backend = Backend::kThread, LiveOptions live = {});
DiffResult run_differential(const std::string& protocol, const DoAllConfig& cfg,
                            const InjectorFactory& make_injector, const RunOptions& run = {},
                            Backend backend = Backend::kThread, LiveOptions live = {});

}  // namespace dowork::substrate
