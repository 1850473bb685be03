#include "core/runner.h"

#include "sim/round_pool.h"

namespace dowork {

Simulator::Options simulator_options(const ProtocolInfo& info, const DoAllConfig& cfg,
                                     const RunOptions& opts) {
  Simulator::Options sim_opts;
  sim_opts.strict_one_op = info.strict_one_op && opts.enforce_strict;
  sim_opts.max_stepped_rounds = opts.max_stepped_rounds;
  sim_opts.n_units = cfg.n;
  sim_opts.net = opts.net;
  return sim_opts;
}

RunResult run_do_all(const ProtocolInfo& info, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts) {
  cfg.validate();
  Simulator sim(make_processes(info, cfg, opts.protocol_param), std::move(faults),
                simulator_options(info, cfg, opts));
  // The pool must outlive sim.run(): the simulator holds a raw pointer for
  // the duration of the run.  sim_threads == 1 keeps the classic serial
  // eval+commit loop (no executor, no threads).
  std::unique_ptr<RoundPool> pool;
  if (opts.sim_threads > 1) {
    pool = std::make_unique<RoundPool>(opts.sim_threads);
    sim.set_step_executor(pool.get());
  }
  RunResult result;
  result.metrics = sim.run();
  result.violation = verify_run(info, cfg, result.metrics);
  return result;
}

RunResult run_do_all(const std::string& protocol, const DoAllConfig& cfg,
                     std::unique_ptr<FaultInjector> faults, const RunOptions& opts) {
  return run_do_all(find_protocol(protocol), cfg, std::move(faults), opts);
}

}  // namespace dowork
