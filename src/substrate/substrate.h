// The execution-substrate seam (ROADMAP item 4): the same IProcess
// protocol objects, runnable on three backends.
//
//   * Backend::kSim    -- the deterministic synchronous Simulator
//                         (src/sim/), run_do_all.
//   * Backend::kThread -- the live backend (--backend live): the same
//                         Simulator with a supervised RoundPool
//                         (sim/round_pool.h) evaluating every step on a
//                         worker thread under a per-round watchdog that
//                         turns a hung step into a structured abort instead
//                         of a hung run.
//   * Backend::kSocket -- the SocketSubstrate
//                         (substrate/socket_substrate.h): one worker OS
//                         process per protocol process over localhost
//                         UDS/TCP, crash = SIGKILL at the kill point the
//                         plan chose (simulator.h's taxonomy), process-grade
//                         supervision (connect/accept/read deadlines,
//                         waitpid reaping).
//
// All backends drive the identical protocol code, fault injectors and
// verifier; under the deterministic schedule the live backends' metrics
// match the simulator's field for field, which is what makes the sim a
// differential-testing oracle (substrate/differential.h).
//
// Backend and LiveOptions are the whole backend choice: harness Scenarios
// carry them as typed fields, dowork_bench --backend/--transport sets them,
// and run_on below is the one place that dispatches on the Backend.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/runner.h"

namespace dowork::substrate {

enum class Backend : std::uint8_t { kSim, kThread, kSocket };

// Which localhost transport the socket backend speaks.  UDS is the default
// (lower per-frame latency, no port allocation); TCP exercises the same
// framing over a real INET stack (127.0.0.1, TCP_NODELAY).
enum class Transport : std::uint8_t { kUds, kTcp };

const char* to_string(Backend b);
const char* to_string(Transport t);

struct LiveOptions {
  // kDeterministic: the supervisor commits evaluated steps in ascending
  // process id, reproducing the simulator's serial interleaving exactly --
  // every metric and adversary decision matches the sim run for run.
  // kFree: steps commit in completion order, so the OS scheduler becomes a
  // real nondeterministic adversary; only the paper bounds and the
  // verifier's invariants are meaningful assertions there.
  enum class Schedule : std::uint8_t { kDeterministic, kFree };
  Schedule schedule = Schedule::kDeterministic;

  // Per-round deadline: if a stepped round's evaluations have not all come
  // back within this wall-clock budget, the watchdog cancels the run and
  // aborts it with a structured RunMetrics::aborted_reason.
  std::uint64_t watchdog_ms = 10'000;

  // Teardown grace: how long join-all waits for workers to exit after
  // cancellation before declaring them leaked (a worker ignoring the
  // cooperative cancel flag; see run_cancelled() in sim/round_pool.h).  The
  // socket backend uses the same budget for its waitpid reap before escalating to
  // SIGKILL (processes, unlike threads, can always be reaped -- the socket
  // backend never leaks).
  std::uint64_t join_grace_ms = 2'000;

  // Socket backend only: transport and the setup deadline covering worker
  // spawn + connect + hello (bounded retry with backoff inside it).
  Transport transport = Transport::kUds;
  std::uint64_t spawn_timeout_ms = 10'000;
};

// What the live backend measured beyond the shared RunMetrics: the first
// real-hardware throughput numbers (units/sec next to simulated-round
// metrics), the kill-point census, and the teardown outcome.
struct LiveStats {
  double wall_seconds = 0;
  double units_per_sec = 0;  // work_total / wall_seconds (0 when no work)
  // Crashes by kill point: the simulator's census (simulator.h).
  KillCensus kills;
  int threads = 0;      // workers spawned (threads or, on kSocket, processes)
  bool leaked = false;  // join-all gave up on a worker (its run is pinned)
};

struct LiveRunResult {
  RunResult run;
  LiveStats stats;
};

// Live counterpart of run_do_all (core/runner.h): the same simulator,
// protocol instantiation, fault injector and verifier, with a supervised
// RoundPool of min(t, hardware_concurrency) workers as the executor.
LiveRunResult run_live_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {},
                              const LiveOptions& live = {});
LiveRunResult run_live_do_all(const std::string& protocol, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {},
                              const LiveOptions& live = {});

// Runs the case on `backend`: run_do_all for kSim (LiveStats stay zero),
// run_live_do_all for kThread, run_socket_do_all (socket_substrate.h) for
// kSocket.  `live` is ignored on kSim.
LiveRunResult run_on(Backend backend, const ProtocolInfo& info, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts = {},
                     const LiveOptions& live = {});

}  // namespace dowork::substrate
