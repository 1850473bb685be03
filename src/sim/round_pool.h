// Round-parallel evaluation pool: the one in-process concurrent executor.
// It shards one round's step list over a fixed worker pool and returns the
// results in commit order, byte-identical to the serial simulator.
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
// interleaved them (DESIGN.md "Execution substrates").
// tests/parallel_sim_test.cpp pins serial vs pooled equality
// metric-for-metric and report-byte-for-byte; dowork_fuzz --parallel-diff
// and the CI --sim-threads determinism diff keep it pinned.
//
// Supervised mode is the same pool under a watchdog: the live backend
// (`--backend live`, substrate::run_live_do_all).  Every step is its own
// shard, the dispatching thread evaluates nothing and instead waits for the
// barrier against the round's wall-clock deadline; a miss cancels the run
// (run_cancelled() below) and throws AbortRun naming the first stalled
// step, with nothing appended.  Under the free order, steps are handed back
// in the order they finished, so the OS scheduler becomes a real adversary.
//
// Run-shared protocol state is the one thing the pool cannot make
// data-independent by fiat: Protocol D's AgreeRoundFold serves requests
// from whichever thread evaluates the recipient, so it is mutex-guarded and
// order-independent (protocol_d.h) -- a pure summary either way, pinned
// equal to the naive merge by protocol_d_test.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/simulator.h"

namespace dowork {

// True when the calling thread is a RoundPool worker whose pool has been
// cancelled (a supervised round missed its deadline, or the pool is
// shutting down).  A std::thread cannot be killed from outside, so protocol
// code that could loop inside on_round should poll this and return; on any
// other thread it is always false.
bool run_cancelled();

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

  // Supervised mode: `threads` workers (at least one), each step its own
  // shard, every round under a wall-clock deadline.
  struct Supervision {
    std::uint64_t deadline_ms = 10'000;   // per stepped round
    std::uint64_t join_grace_ms = 2'000;  // shutdown()'s wait before detaching
    bool free_order = false;              // hand back in finish order
  };
  RoundPool(int threads, const Supervision& supervision);

  // Joins every worker (shutdown()).  A pool whose shutdown() reported a
  // leak must never be destroyed: its detached worker still reads it.
  ~RoundPool() override;

  RoundPool(const RoundPool&) = delete;
  RoundPool& operator=(const RoundPool&) = delete;

  // Threads that evaluate steps: workers plus, outside supervised mode, the
  // calling thread.
  int threads() const { return static_cast<int>(workers_.size()) + (supervised_ ? 0 : 1); }

  // StepExecutor: evaluate the round's steps (sharded, concurrent), append
  // results to `out` in ascending process id order (supervised free order:
  // finish order).  Rethrows the first shard failure (in shard order) after
  // the barrier, before appending anything -- an aborted round commits
  // nothing, per the contract in simulator.h.  Supervised, a missed
  // deadline throws AbortRun instead; a stalled worker may then still be
  // inside `eval` with `steps` claimed, so both must outlive shutdown().
  void run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                 std::vector<Ready>& out) override;

  // The pool has no kill-point machinery: a retired process simply never
  // appears in a later step list (the simulator counts kill points itself).
  void on_retire(int, ProcState, KillPoint) override {}

  // Cancels and stops the workers and joins them.  Supervised, a worker
  // still inside an evaluation after join_grace_ms is detached instead;
  // returns false in that case (the leak).  Idempotent.
  bool shutdown();

 private:
  // One contiguous slice [begin, end) of the round's step list, evaluated
  // by exactly one thread per round.  Buffers are reused round over round.
  struct Shard {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<Ready> out;
    std::exception_ptr error;
    bool done = false;  // evaluated (guarded by m_)
  };

  void start_workers(int count);
  void worker_main(std::size_t self);
  void run_supervised(StepEval& eval, const Round& round, const std::vector<int>& steps,
                      std::vector<Ready>& out);
  // Evaluates one shard in ascending id order; a throw from eval_step stops
  // the shard and is stashed in `error` for the post-barrier rethrow.
  void eval_shard(Shard& shard);
  // Claims shards off next_shard_ until none remain; called by workers and
  // the unsupervised dispatching thread alike (monotone claiming order, so
  // a thread that serves several shards serves them in ascending id order).
  void drain_shards();

  const std::size_t min_steps_per_shard_;
  const bool supervised_ = false;
  const Supervision supervision_{};
  std::vector<std::thread> workers_;
  // Set (under m_) by a watchdog abort or shutdown: no further claims, and
  // what run_cancelled() reads on the workers.
  std::atomic<bool> cancel_{false};

  std::mutex m_;
  std::condition_variable work_cv_;  // workers wait here for a new round
  std::condition_variable done_cv_;  // the dispatcher (and shutdown) waits here
  std::uint64_t generation_ = 0;     // bumped once per dispatched round
  bool stop_ = false;                // shutdown() ran
  StepEval* eval_ = nullptr;
  const std::vector<int>* steps_ = nullptr;
  std::vector<Shard> shards_;
  std::size_t active_shards_ = 0;  // shards of this round, fixed at dispatch
  std::size_t next_shard_ = 0;     // claim cursor (guarded by m_)
  std::size_t pending_ = 0;        // shards not yet evaluated (guarded by m_)
  std::vector<std::size_t> finish_order_;  // supervised: shard ids as they finished
  std::vector<std::uint8_t> exited_;       // per worker (guarded by m_)
  std::size_t exited_count_ = 0;           // guarded by m_
  bool leaked_ = false;                    // shutdown() detached a worker
};

}  // namespace dowork
