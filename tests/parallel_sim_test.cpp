// The round-parallel core's determinism proof harness (sim/round_pool.h).
//
// Three layers:
//   * RoundPoolTest -- the pool against a fake StepEval: ordered commit
//     (ascending id, whatever thread evaluated what), genuine cross-thread
//     evaluation (a gated eval that cannot finish until two shards run
//     concurrently -- also the TSan workout), the inline small-round path,
//     the abort contract (first failure in shard order, nothing appended),
//     and supervised mode: the watchdog, the free order and the cooperative
//     cancel flag.
//   * WatchdogTest -- the live backend (run_live_do_all) end to end: a
//     deliberately wedged process must produce a structured abort within
//     the round deadline -- never a hung run -- and teardown must join
//     every worker when the wedge honors cooperative cancellation.
//   * ParallelSimTest -- the real simulator serial vs --sim-threads {2,4,8}:
//     metric-for-metric and report-byte equality over fuzz-generator-sampled
//     (protocol x shape x FaultSpec) cases, and targeted Protocol D runs
//     where a mid-broadcast prefix cut straddles a shard boundary (the
//     delivery-plane case the ordered commit must reproduce exactly).
#include "sim/round_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.h"
#include "fuzz/generator.h"
#include "harness/fault_spec.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "substrate/substrate.h"

namespace dowork {
namespace {

using harness::Scenario;
using harness::ScenarioResult;
using harness::Substrate;

// A StepEval that records who evaluated what; optionally throws on a chosen
// proc, optionally refuses to let any evaluation finish until `gate` distinct
// procs have *started* (forcing real concurrency, with a deadline so a
// regression fails instead of hanging).
class RecordingEval final : public StepEval {
 public:
  Action eval_step(int proc) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      order.push_back(proc);
      threads.insert(std::this_thread::get_id());
    }
    started.fetch_add(1);
    if (gate > 0) {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (started.load() < gate && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    }
    if (proc == fail_on || proc == also_fail_on) throw std::runtime_error(std::to_string(proc));
    Action a;
    a.work = proc + 1;
    return a;
  }

  int gate = 0;
  int fail_on = -1;
  int also_fail_on = -1;
  std::atomic<int> started{0};
  std::mutex mu_;
  std::vector<int> order;                  // eval order across all threads
  std::set<std::thread::id> threads;       // who served
};

std::vector<int> iota_steps(int n) {
  std::vector<int> steps;
  for (int i = 0; i < n; ++i) steps.push_back(i);
  return steps;
}

TEST(RoundPoolTest, CommitsInAscendingIdOrder) {
  RecordingEval eval;
  RoundPool pool(4, /*min_steps_per_shard=*/1);
  const std::vector<int> steps = iota_steps(64);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].proc, steps[i]);
    ASSERT_TRUE(out[i].action.work.has_value());
    EXPECT_EQ(*out[i].action.work, steps[i] + 1);
  }
  // Every step evaluated exactly once (in whatever cross-shard interleaving).
  std::vector<int> sorted = eval.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, steps);
}

TEST(RoundPoolTest, ShardsEvaluateOnDistinctThreadsConcurrently) {
  // Two shards of 8; the gate keeps every evaluation spinning until both
  // shards have started, and a thread cannot claim its second shard before
  // finishing its first -- so passing the gate REQUIRES the worker thread
  // to serve the other shard.  (On timeout the gate opens and the
  // two-threads assertion below fails instead of hanging the suite.)
  RecordingEval eval;
  eval.gate = 2;
  RoundPool pool(2, /*min_steps_per_shard=*/1);
  const std::vector<int> steps = iota_steps(16);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].proc, steps[i]);
  EXPECT_EQ(eval.threads.size(), 2u);
  // Non-contiguous ids partition by position, not value: still ascending.
  eval.order.clear();
  eval.started.store(0);
  std::vector<int> odd;
  for (int i = 0; i < 16; ++i) odd.push_back(2 * i + 1);
  std::vector<StepExecutor::Ready> out2;
  pool.run_steps(eval, Round{2u}, odd, out2);
  ASSERT_EQ(out2.size(), odd.size());
  for (std::size_t i = 0; i < out2.size(); ++i) EXPECT_EQ(out2[i].proc, odd[i]);
}

TEST(RoundPoolTest, SmallRoundsRunInlineOnTheCallingThread) {
  // Below 2x min_steps_per_shard the dispatch is skipped entirely: one
  // serving thread (this one), serial order.
  RecordingEval eval;
  RoundPool pool(8);  // default min_steps_per_shard = 8
  const std::vector<int> steps = iota_steps(10);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  EXPECT_EQ(eval.order, steps);
  ASSERT_EQ(eval.threads.size(), 1u);
  EXPECT_EQ(*eval.threads.begin(), std::this_thread::get_id());
}

TEST(RoundPoolTest, AbortSurfacesFirstFailureInShardOrderWithNothingAppended) {
  // Failures land in shard 0 (proc 3) and shard 2 (proc 20); the serial
  // loop would have hit proc 3 first, so that is the one the pool must
  // rethrow -- with `out` untouched, per the executor contract.
  RecordingEval eval;
  eval.fail_on = 20;
  eval.also_fail_on = 3;
  RoundPool pool(4, /*min_steps_per_shard=*/1);
  const std::vector<int> steps = iota_steps(32);
  std::vector<StepExecutor::Ready> out;
  try {
    pool.run_steps(eval, Round{1u}, steps, out);
    FAIL() << "expected the shard failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_TRUE(out.empty());
  // The pool survives an aborted round: the next round runs normally.
  eval.fail_on = -1;
  eval.also_fail_on = -1;
  pool.run_steps(eval, Round{2u}, steps, out);
  EXPECT_EQ(out.size(), steps.size());
}

// --- supervised mode: the live backend's executor ---------------------------

RoundPool::Supervision supervision(std::uint64_t deadline_ms, bool free_order = false) {
  RoundPool::Supervision sup;
  sup.deadline_ms = deadline_ms;
  sup.join_grace_ms = 10'000;
  sup.free_order = free_order;
  return sup;
}

// Evaluates like RecordingEval, except that `wedged` spins until the pool
// cancels it -- the only way out of a running std::thread -- and `slow`
// takes 100 ms.
class WedgeEval final : public StepEval {
 public:
  explicit WedgeEval(int wedged, int slow = -1) : wedged_(wedged), slow_(slow) {}
  Action eval_step(int proc) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads.insert(std::this_thread::get_id());
      if (run_cancelled()) saw_cancel_early = true;
    }
    evaluated.fetch_add(1);
    if (proc == wedged_) {
      while (!run_cancelled()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      released.store(true);
    }
    if (proc == slow_) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Action a;
    a.work = proc + 1;
    return a;
  }

  std::atomic<int> evaluated{0};
  std::atomic<bool> released{false};
  bool saw_cancel_early = false;
  std::set<std::thread::id> threads;

 private:
  const int wedged_;
  const int slow_;
  std::mutex mu_;
};

TEST(RoundPoolTest, SupervisedWedgedStepAbortsWithinDeadline) {
  WedgeEval eval(/*wedged=*/5);
  const std::vector<int> steps = iota_steps(8);  // outlives the pool
  RoundPool pool(2, supervision(200));
  std::vector<StepExecutor::Ready> out;
  const auto start = std::chrono::steady_clock::now();
  try {
    pool.run_steps(eval, Round{3u}, steps, out);
    FAIL() << "expected the watchdog to abort the round";
  } catch (const AbortRun& abort) {
    EXPECT_NE(abort.reason.find("watchdog"), std::string::npos) << abort.reason;
    EXPECT_NE(abort.reason.find("proc 5"), std::string::npos) << abort.reason;
    EXPECT_EQ(abort.detail.rfind("cause=watchdog proc=5 missing=1", 0), 0u) << abort.detail;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(200));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  EXPECT_TRUE(out.empty());
  // The wedge honors cancellation, so every worker joins: no leak.
  EXPECT_TRUE(pool.shutdown());
  EXPECT_TRUE(eval.released.load());
}

TEST(RoundPoolTest, SupervisedDeterministicOrderIsAscendingOffTheCallingThread) {
  // Every step is evaluated by a worker -- the dispatcher only supervises --
  // and handed back in ascending id order, like the unsupervised pool.
  WedgeEval eval(/*wedged=*/-1);
  RoundPool pool(4, supervision(10'000));
  EXPECT_EQ(pool.threads(), 4);
  std::vector<int> steps;
  for (int i = 0; i < 40; ++i) steps.push_back(3 * i + 1);
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, steps, out);
  ASSERT_EQ(out.size(), steps.size());
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].proc, steps[i]);
  EXPECT_EQ(eval.threads.count(std::this_thread::get_id()), 0u);
}

TEST(RoundPoolTest, SupervisedFreeOrderCommitsEveryStepExactlyOnce) {
  // Free order hands steps back as they finished: any interleaving, but
  // always a permutation of the step list, each with its own action.
  WedgeEval eval(/*wedged=*/-1);
  RoundPool pool(4, supervision(10'000, /*free_order=*/true));
  const std::vector<int> steps = iota_steps(64);
  for (std::uint64_t round = 1; round <= 5; ++round) {
    std::vector<StepExecutor::Ready> out;
    pool.run_steps(eval, Round{round}, steps, out);
    std::vector<int> procs;
    for (const StepExecutor::Ready& r : out) {
      procs.push_back(r.proc);
      ASSERT_TRUE(r.action.work.has_value());
      EXPECT_EQ(*r.action.work, r.proc + 1);
    }
    std::sort(procs.begin(), procs.end());
    EXPECT_EQ(procs, steps) << "round " << round;
  }
  // A slow first step is claimed first but finishes last, while the other
  // worker serves the rest: it is handed back last.
  WedgeEval slow_first(/*wedged=*/-1, /*slow=*/0);
  RoundPool two(2, supervision(10'000, /*free_order=*/true));
  std::vector<StepExecutor::Ready> out;
  two.run_steps(slow_first, Round{1u}, iota_steps(8), out);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out.back().proc, 0);
}

TEST(RoundPoolTest, SupervisedStepFailureRethrowsFirstInStepOrder) {
  // The unsupervised abort contract holds step by step: the serial loop
  // would have hit proc 3 first, and nothing is handed back.
  RecordingEval eval;
  eval.fail_on = 20;
  eval.also_fail_on = 3;
  RoundPool pool(4, supervision(10'000));
  const std::vector<int> steps = iota_steps(32);
  std::vector<StepExecutor::Ready> out;
  try {
    pool.run_steps(eval, Round{1u}, steps, out);
    FAIL() << "expected the step failure to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
  EXPECT_TRUE(out.empty());
  eval.fail_on = -1;
  eval.also_fail_on = -1;
  pool.run_steps(eval, Round{2u}, steps, out);
  EXPECT_EQ(out.size(), steps.size());
}

TEST(RoundPoolTest, SupervisedAbortStopsFurtherClaims) {
  // One worker, wedged on proc 1: after the deadline no later step is
  // started, and the abort counts every step left without a result.
  WedgeEval eval(/*wedged=*/1);
  const std::vector<int> steps = iota_steps(8);  // outlives the pool
  RoundPool pool(1, supervision(200));
  std::vector<StepExecutor::Ready> out;
  try {
    pool.run_steps(eval, Round{1u}, steps, out);
    FAIL() << "expected the watchdog to abort the round";
  } catch (const AbortRun& abort) {
    EXPECT_EQ(abort.detail.rfind("cause=watchdog proc=1 missing=7", 0), 0u) << abort.detail;
  }
  EXPECT_TRUE(pool.shutdown());
  EXPECT_EQ(eval.evaluated.load(), 2);
}

TEST(RoundPoolTest, SupervisedWorkerIgnoringCancelIsDetachedAsALeak) {
  // A wedge that never polls run_cancelled() cannot be joined: shutdown()
  // gives up after the join grace, detaches it and reports the leak.  The
  // pool and the eval stay reachable forever (the zombie still uses them),
  // exactly as run_live_do_all pins a leaked run.
  static std::atomic<bool> release{false};
  class DeafEval final : public StepEval {
   public:
    Action eval_step(int) override {
      while (!release.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return Action::none();
    }
  };
  static DeafEval* eval = new DeafEval;
  static const std::vector<int>* steps = new std::vector<int>{0};
  RoundPool::Supervision sup = supervision(100);
  sup.join_grace_ms = 100;
  static RoundPool* pool = new RoundPool(2, sup);
  std::vector<StepExecutor::Ready> out;
  EXPECT_THROW(pool->run_steps(*eval, Round{1u}, *steps, out), AbortRun);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(pool->shutdown());
  EXPECT_FALSE(pool->shutdown());  // idempotent
  release.store(true);             // let the zombie finish; the pool stays pinned
}

TEST(RoundPoolTest, RunCancelledFalseOutsideWorkers) {
  // The calling thread -- and so the serial simulator path and an
  // unsupervised pool's inline rounds -- never sees a cancel flag.
  EXPECT_FALSE(run_cancelled());
  RoundPool pool(4, supervision(10'000));
  EXPECT_TRUE(pool.shutdown());
  EXPECT_FALSE(run_cancelled());
}

TEST(RoundPoolTest, RunCancelledTracksTheSupervisedPool) {
  // Workers read their pool's flag: clear on a healthy round, set once the
  // watchdog fires, which is what releases the wedged evaluation.
  WedgeEval eval(/*wedged=*/2);
  const std::vector<int> healthy = {0, 1, 3};
  const std::vector<int> stalled = iota_steps(4);  // outlives the pool
  RoundPool pool(2, supervision(200));
  std::vector<StepExecutor::Ready> out;
  pool.run_steps(eval, Round{1u}, healthy, out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_FALSE(eval.saw_cancel_early);
  out.clear();
  EXPECT_THROW(pool.run_steps(eval, Round{2u}, stalled, out), AbortRun);
  // The watchdog itself raised the flag: the wedge returns before shutdown.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!eval.released.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(eval.released.load());
  EXPECT_TRUE(pool.shutdown());
  EXPECT_FALSE(run_cancelled());
}

// --- the live backend end to end: watchdog supervision ----------------------

// Spins inside on_round until the pool cancels it (the documented contract
// for long-running protocol code).
class WedgedProcess final : public IProcess {
 public:
  Action on_round(const RoundContext&, const InboxView&) override {
    while (!run_cancelled()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Action::none();
  }
  Round next_wake(const Round& now) const override { return now; }
  std::string describe() const override { return "wedged"; }
};

// Retires immediately: the other workers must not keep the run going.
class QuitterProcess final : public IProcess {
 public:
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }
};

ProtocolInfo wedge_protocol(int wedged_proc) {
  ProtocolInfo info;
  info.name = "wedge_fixture";
  info.sequential = false;
  info.strict_one_op = false;
  info.make_proc = [wedged_proc](const DoAllConfig&, int self) -> std::unique_ptr<IProcess> {
    if (self == wedged_proc) return std::make_unique<WedgedProcess>();
    return std::make_unique<QuitterProcess>();
  };
  return info;
}

TEST(WatchdogTest, WedgedWorkerAbortsStructurally) {
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 4;
  substrate::LiveOptions live;
  live.watchdog_ms = 200;
  live.join_grace_ms = 10'000;

  const auto start = std::chrono::steady_clock::now();
  substrate::LiveRunResult r = substrate::run_live_do_all(
      wedge_protocol(/*wedged_proc=*/2), cfg, harness::FaultSpec::none().make(), RunOptions{},
      live);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  // Structured degradation, not a hang: aborted metrics, the reason naming
  // the watchdog and the stalled process, and the verifier surfacing it.
  EXPECT_TRUE(r.run.metrics.aborted);
  EXPECT_NE(r.run.metrics.aborted_reason.find("watchdog"), std::string::npos)
      << r.run.metrics.aborted_reason;
  EXPECT_NE(r.run.metrics.aborted_reason.find("proc 2"), std::string::npos)
      << r.run.metrics.aborted_reason;
  EXPECT_NE(r.run.violation.find("aborted"), std::string::npos) << r.run.violation;

  // The cooperative wedge honors cancellation: every worker joined, nothing
  // leaked, and the whole run finished well under CTest scale.
  EXPECT_FALSE(r.stats.leaked);
  EXPECT_EQ(r.stats.threads,
            std::min(4, std::max(1, static_cast<int>(std::thread::hardware_concurrency()))));
  EXPECT_LT(elapsed, std::chrono::seconds(60));
}

TEST(WatchdogTest, HealthyRunNeverTripsTheWatchdog) {
  // All-quitter control: the same deadline, no wedge, clean verdict.
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 4;
  substrate::LiveOptions live;
  live.watchdog_ms = 200;
  substrate::LiveRunResult r = substrate::run_live_do_all(
      wedge_protocol(/*wedged_proc=*/-1), cfg, harness::FaultSpec::none().make(), RunOptions{},
      live);
  EXPECT_FALSE(r.run.metrics.aborted);
  EXPECT_FALSE(r.stats.leaked);
}

TEST(WatchdogTest, AbortCommitsNothingFromTheStalledRound) {
  // The wedge stalls round 0, so no work at all commits: the abort happens
  // before any of the round's evaluations are handed back.
  DoAllConfig cfg;
  cfg.n = 4;
  cfg.t = 2;
  substrate::LiveOptions live;
  live.watchdog_ms = 200;
  substrate::LiveRunResult r = substrate::run_live_do_all(
      wedge_protocol(/*wedged_proc=*/0), cfg, harness::FaultSpec::none().make(), RunOptions{},
      live);
  EXPECT_TRUE(r.run.metrics.aborted);
  EXPECT_EQ(r.run.metrics.work_total, 0u);
  EXPECT_EQ(r.run.metrics.messages_total, 0u);
  EXPECT_FALSE(r.stats.leaked);
}

// --- the real simulator: serial vs sharded, byte for byte -------------------

void expect_metrics_eq(const RunMetrics& a, const RunMetrics& b, const std::string& label) {
  EXPECT_EQ(a.work_total, b.work_total) << label;
  EXPECT_EQ(a.messages_total, b.messages_total) << label;
  EXPECT_EQ(a.last_retire_round, b.last_retire_round) << label;
  EXPECT_EQ(a.available_processor_steps, b.available_processor_steps) << label;
  EXPECT_EQ(a.messages_by_kind, b.messages_by_kind) << label;
  EXPECT_EQ(a.crashes, b.crashes) << label;
  EXPECT_EQ(a.terminated, b.terminated) << label;
  EXPECT_EQ(a.stepped_rounds, b.stepped_rounds) << label;
  EXPECT_EQ(a.fast_forward_jumps, b.fast_forward_jumps) << label;
  EXPECT_EQ(a.max_concurrent_workers, b.max_concurrent_workers) << label;
  EXPECT_EQ(a.net_dropped, b.net_dropped) << label;
  EXPECT_EQ(a.net_blocked, b.net_blocked) << label;
  EXPECT_EQ(a.net_delayed, b.net_delayed) << label;
  EXPECT_EQ(a.unit_multiplicity, b.unit_multiplicity) << label;
  EXPECT_EQ(a.work_by_proc, b.work_by_proc) << label;
  EXPECT_EQ(a.messages_by_proc, b.messages_by_proc) << label;
}

// Mid-broadcast prefix cuts straddling shard boundaries: t = 32 at
// sim_threads = 4 shards the agreement rounds into runs of 8 ids, and the
// cuts deliver prefixes of 17 and 9 recipients -- so the delivered/lost
// split lands *inside* shards 2 and 1 respectively, on both sides of a
// boundary.  The ordered commit must reproduce the serial ledger exactly;
// every observable metric, per-process and per-unit, is compared.
TEST(ParallelSimTest, MidBroadcastCutStraddlingShardBoundary) {
  const DoAllConfig cfg{128, 32};  // n/t = 4 work rounds, then agreement
  auto faults = [] {
    return std::make_unique<ScheduledFaults>(std::vector<ScheduledFaults::Entry>{
        // Action 5 is the first agreement broadcast (after 4 work units):
        // proc 10 reaches 17 of its 31 recipients, proc 27 reaches 9.
        {10, 5, CrashPlan{false, 17}},
        {27, 6, CrashPlan{false, 9}},
        // And one work-round death for the redistribution path.
        {3, 2, CrashPlan{true, 0}},
    });
  };
  RunOptions serial;
  const RunResult base = run_do_all("D", cfg, faults(), serial);
  ASSERT_TRUE(base.ok()) << base.violation;
  for (int threads : {2, 4, 8}) {
    RunOptions opts;
    opts.sim_threads = threads;
    const RunResult got = run_do_all("D", cfg, faults(), opts);
    ASSERT_TRUE(got.ok()) << got.violation;
    expect_metrics_eq(got.metrics, base.metrics, "sim_threads=" + std::to_string(threads));
  }
}

// The adaptive/random injectors draw from the committed-state window at the
// commit boundary, so their decision streams must be untouched by sharding.
TEST(ParallelSimTest, RandomFaultScheduleIsThreadCountInvariant) {
  const DoAllConfig cfg{192, 24};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    RunOptions serial;
    const RunResult base =
        run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, seed), serial);
    for (int threads : {2, 8}) {
      RunOptions opts;
      opts.sim_threads = threads;
      const RunResult got =
          run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, seed), opts);
      expect_metrics_eq(got.metrics, base.metrics,
                        "seed " + std::to_string(seed) + " threads " + std::to_string(threads));
      EXPECT_EQ(got.violation, base.violation);
    }
  }
}

// Property layer: fuzz-generator-sampled (protocol x shape x FaultSpec --
// crash cascades, adaptive adversaries, network weather) sync cases, run
// serial and at --sim-threads {2,4,8}; the whole report -- every row, every
// column, every bound margin -- must serialize to identical bytes.
TEST(ParallelSimTest, FuzzSampledCasesReportByteIdentical) {
  const fuzz::GeneratorOptions gopts{20260809, 100};
  const std::vector<Scenario> cases = fuzz::generate_cases(gopts, 80);
  int used = 0;
  for (const Scenario& base : cases) {
    if (base.substrate != Substrate::kSync) continue;
    if (used == 24) break;
    ++used;
    const std::vector<ScenarioResult> serial_rows = harness::run_scenario("pp", base);
    const std::string serial_json = harness::to_json("pp", serial_rows, false);
    for (int threads : {2, 4, 8}) {
      Scenario s = base;
      s.sim_threads = threads;
      const std::vector<ScenarioResult> rows = harness::run_scenario("pp", s);
      EXPECT_EQ(harness::to_json("pp", rows, false), serial_json)
          << base.id << " sim_threads=" << threads;
    }
  }
  // The generator's mix must actually feed the property: if sync cases dry
  // up the test would silently assert nothing.
  EXPECT_EQ(used, 24);
}

}  // namespace
}  // namespace dowork
