// Round-parallel evaluation pool: shard one round's step list over a fixed
// worker pool, byte-identical to the serial simulator.
//
// Within a synchronous round every process's work is independent by
// construction -- all sends land next round, and the adversary's decision
// points sit at the commit boundary (StepEval's contract in simulator.h) --
// so the evaluation phase of step_round is embarrassingly parallel while
// the commit phase must stay serial.  RoundPool is the StepExecutor that
// exploits exactly that split:
//
//   1. SHARD    the step list (already in ascending process id order) into
//               up to `threads` contiguous id ranges of near-equal size;
//   2. EVALUATE each shard on its own thread, in ascending id order within
//               the shard, appending results to a shard-local buffer (the
//               calling thread participates, so `threads = 8` uses 8 cores
//               with 7 pooled workers);
//   3. BARRIER  until every shard is done (a shard failure aborts the round
//               before anything is handed back);
//   4. COMMIT   by concatenating the shard buffers in shard order, which is
//               ascending process id -- the simulator then commits them in
//               that order, reproducing the serial interleaving exactly.
//
// Why observable state cannot move a byte: an evaluation reads only the
// process's own state plus the round's already-delivered inbox (never this
// round's commits), and every commit -- ledger records, wake-queue updates,
// metric bumps, fault-injector decisions, RNG draws -- runs on the
// simulator's thread in ascending id order, exactly as the serial loop
// interleaved them.  The equivalence argument is the same one the live
// thread substrate's deterministic schedule relies on (DESIGN.md
// "Execution substrates"); RoundPool is its worker-pool sibling with no
// kill-point machinery, built for throughput inside one big run.
// tests/parallel_sim_test.cpp pins serial vs pooled equality
// metric-for-metric and report-byte-for-byte; dowork_fuzz --parallel-diff
// and the CI --sim-threads determinism diff keep it pinned.
//
// Run-shared protocol state is the one thing the pool cannot make
// data-independent by fiat: Protocol D's AgreeRoundFold serves requests
// from whichever thread evaluates the recipient, so it is mutex-guarded and
// order-independent (protocol_d.h) -- a pure summary either way, pinned
// equal to the naive merge by protocol_d_test.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace dowork {

class RoundPool final : public StepExecutor {
 public:
  // `threads` is the total evaluation parallelism (calling thread included):
  // threads - 1 pooled workers are spawned, so RoundPool(1) degenerates to
  // the inline path with no threads at all.  `min_steps_per_shard` bounds
  // the dispatch overhead: a round with fewer than 2x this many live steps
  // is evaluated inline (sequential protocols step 1-2 processes per round
  // and must not pay a barrier for it); tests lower it to 1 to force real
  // sharding at tiny t.
  explicit RoundPool(int threads, std::size_t min_steps_per_shard = 8);
  ~RoundPool() override;

  RoundPool(const RoundPool&) = delete;
  RoundPool& operator=(const RoundPool&) = delete;

  int threads() const { return static_cast<int>(workers_.size()) + 1; }

  // StepExecutor: evaluate the round's steps (sharded, concurrent), append
  // results to `out` in ascending process id order.  Rethrows the first
  // shard failure (in shard order) after the barrier, before appending
  // anything -- an aborted round commits nothing, per the contract in
  // simulator.h.
  void run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                 std::vector<Ready>& out) override;

  // The pool has no kill-point machinery: a retired process simply never
  // appears in a later step list.
  void on_retire(int, ProcState, KillPoint) override {}

 private:
  // One contiguous slice [begin, end) of the round's step list, evaluated
  // by exactly one thread per round.  Buffers are reused round over round.
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<Ready> out;
    std::exception_ptr error;
  };

  void worker_main();
  // Evaluates one shard in ascending id order; a throw from eval_step stops
  // the shard and is stashed in `error` for the post-barrier rethrow.
  void eval_shard(Shard& shard);
  // Claims shards off next_shard_ until none remain; called by workers and
  // the dispatching thread alike (monotone claiming order, so a thread that
  // serves several shards serves them in ascending id order).
  void drain_shards();

  const std::size_t min_steps_per_shard_;
  std::vector<std::thread> workers_;

  std::mutex m_;
  std::condition_variable work_cv_;  // workers wait here for a new round
  std::condition_variable done_cv_;  // the dispatcher waits here for the barrier
  std::uint64_t generation_ = 0;     // bumped once per dispatched round
  bool stop_ = false;
  StepEval* eval_ = nullptr;
  const std::vector<int>* steps_ = nullptr;
  std::vector<Shard> shards_;
  std::size_t active_shards_ = 0;  // shards of this round, fixed at dispatch
  std::size_t next_shard_ = 0;     // claim cursor (guarded by m_)
  std::size_t pending_ = 0;        // shards not yet evaluated (guarded by m_)
};

}  // namespace dowork
