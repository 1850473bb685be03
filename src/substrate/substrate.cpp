#include "substrate/substrate.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "sim/round_pool.h"
#include "substrate/socket_substrate.h"

namespace dowork::substrate {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kThread: return "thread";
    case Backend::kSocket: return "socket";
  }
  return "?";
}

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kUds: return "uds";
    case Transport::kTcp: return "tcp";
  }
  return "?";
}

namespace {

using Clock = std::chrono::steady_clock;

// The run's storage, heap-held so it can be pinned (deliberately leaked)
// when a wedged worker survives shutdown: the zombie thread keeps reading
// the Simulator and the pool, which therefore must never be freed.
struct LiveRun {
  Simulator sim;
  RoundPool pool;

  LiveRun(std::vector<std::unique_ptr<IProcess>> procs, std::unique_ptr<FaultInjector> faults,
          Simulator::Options sim_opts, int workers, const RoundPool::Supervision& supervision)
      : sim(std::move(procs), std::move(faults), std::move(sim_opts)),
        pool(workers, supervision) {}
};

}  // namespace

LiveRunResult run_live_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                              const LiveOptions& live) {
  cfg.validate();
  RoundPool::Supervision supervision;
  supervision.deadline_ms = live.watchdog_ms;
  supervision.join_grace_ms = live.join_grace_ms;
  supervision.free_order = live.schedule == LiveOptions::Schedule::kFree;
  // One worker per core: more threads than cores only adds context switches
  // (hardware_concurrency() may report 0 when unknown).
  const int workers =
      std::min(cfg.t, std::max(1, static_cast<int>(std::thread::hardware_concurrency())));

  // The same construction as run_do_all's: Protocol D's run-shared round
  // fold is mutex-guarded and order-independent, so the pool's workers
  // share it exactly as --sim-threads shards do.
  auto hold = std::make_unique<LiveRun>(make_processes(info, cfg, opts.protocol_param),
                                        std::move(faults), simulator_options(info, cfg, opts),
                                        workers, supervision);
  hold->sim.set_step_executor(&hold->pool);

  LiveRunResult result;
  const auto start = Clock::now();
  try {
    result.run.metrics = hold->sim.run();
  } catch (...) {
    if (!hold->pool.shutdown()) hold.release();
    throw;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - start).count();

  result.stats.kills = hold->sim.kill_census();
  result.stats.threads = hold->pool.threads();
  result.stats.leaked = !hold->pool.shutdown();
  result.stats.wall_seconds = secs;
  if (secs > 0 && result.run.metrics.work_total > 0)
    result.stats.units_per_sec = static_cast<double>(result.run.metrics.work_total) / secs;
  if (result.stats.leaked) hold.release();  // pin the run for the zombie worker

  result.run.violation = verify_run(info, cfg, result.run.metrics);
  return result;
}

LiveRunResult run_live_do_all(const std::string& protocol, const DoAllConfig& cfg,
                              std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                              const LiveOptions& live) {
  return run_live_do_all(find_protocol(protocol), cfg, std::move(faults), opts, live);
}

LiveRunResult run_on(Backend backend, const ProtocolInfo& info, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts,
                     const LiveOptions& live) {
  switch (backend) {
    case Backend::kSim: return {run_do_all(info, cfg, std::move(faults), opts), {}};
    case Backend::kThread: return run_live_do_all(info, cfg, std::move(faults), opts, live);
    case Backend::kSocket: return run_socket_do_all(info, cfg, std::move(faults), opts, live);
  }
  throw std::invalid_argument("run_on: bad backend");
}

}  // namespace dowork::substrate
