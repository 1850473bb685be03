// Outside-in probes: everything the benchmark measures, it measures through
// the simulator's existing public seams, without touching the program.
//
//   * StampingInjector -- a forwarding FaultInjector.  It stamps the first
//     on_round_start (the end of set-up, comparable across backends) and,
//     when tracing, every round start and a sampled share of the inspect
//     calls.
//   * TimingExecutor   -- a StepExecutor that evaluates a round's steps
//     serially or hands them to a RoundPool, timing the evaluation phase
//     once per round (never per step on serial rounds) and, on sharded
//     rounds, summing per-thread busy time through a wrapping StepEval.
//   * SpanLog          -- per-round spans keyed by (case, round, proc,
//     layer) with a parent link, written out as Chrome trace-event JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/fault_injector.h"
#include "sim/round_pool.h"
#include "sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// What the stamping injector saw during one case run.
struct RoundStamps {
  bool traced = false;
  std::optional<Clock::time_point> first_start;
  std::vector<Clock::time_point> starts;  // traced: every stepped round's start
  std::vector<std::uint64_t> rounds;      // traced: the matching round numbers
  std::uint64_t inspect_calls = 0;
  std::uint64_t sampled_calls = 0;
  double sampled_s = 0;  // inspect time over the sampled calls, clock cost removed
};

class StampingInjector final : public dowork::FaultInjector {
 public:
  // Every 16th inspect is timed when tracing; timing all of them doubles
  // the cost of a sequential run.
  static constexpr std::uint64_t kSampleEvery = 16;

  StampingInjector(std::unique_ptr<dowork::FaultInjector> inner, RoundStamps* stamps);

  void attach(const dowork::SimObservable& sim) override { inner_->attach(sim); }
  void on_round_start(const dowork::Round& round) override;
  std::optional<dowork::CrashPlan> inspect(int proc, const dowork::Round& round,
                                           const dowork::Action& action,
                                           const dowork::SimSnapshot& snap) override;
  std::optional<dowork::MessageFault> on_message(int from, const dowork::Round& round,
                                                 const dowork::DeliveryRecord& rec) override {
    return inner_->on_message(from, round, rec);
  }
  bool wants_message_faults() const override { return inner_->wants_message_faults(); }

 private:
  std::unique_ptr<dowork::FaultInjector> inner_;
  RoundStamps* stamps_;
};

// One evaluation phase as the timing executor saw it.
struct EvalRound {
  std::uint64_t round = 0;
  Clock::time_point begin, end;
  // Sharded rounds: per pool thread, [first eval start, last eval end] and
  // the lowest process it evaluated (-1 = the thread took no shard).
  struct Lane {
    Clock::time_point begin, end;
    int first_proc = -1;
  };
  std::vector<Lane> lanes;
};

struct EvalTotals {
  std::uint64_t steps = 0, records = 0;
  std::uint64_t exposed = 0;  // sum over rounds of steps(r) * records(r-1)
  double eval_s = 0;
  std::uint64_t sharded_rounds = 0, inline_rounds = 0;
  double sharded_wall_s = 0;  // evaluation wall time of sharded rounds
  double busy_s = 0;          // per-thread busy time summed over sharded rounds
};

class TimingExecutor final : public dowork::StepExecutor {
 public:
  // The RoundPool's min_steps_per_shard; the driver builds its pools with it.
  static constexpr std::size_t kMinStepsPerShard = 8;

  // `pool` may be null (serial evaluation).  `keep_rounds` caps how many
  // EvalRound records are kept for the span log; totals count every round.
  TimingExecutor(dowork::RoundPool* pool, std::size_t keep_rounds);

  void run_steps(dowork::StepEval& eval, const dowork::Round& round,
                 const std::vector<int>& steps, std::vector<Ready>& out) override;
  void on_retire(int proc, dowork::ProcState state, dowork::KillPoint kp) override {
    if (pool_ != nullptr) pool_->on_retire(proc, state, kp);
  }

  const EvalTotals& totals() const { return totals_; }
  const std::vector<EvalRound>& kept_rounds() const { return kept_; }

 private:
  class BusyEval;

  dowork::RoundPool* pool_;
  std::size_t keep_rounds_;
  std::uint64_t id_;  // tells pool threads' slots apart across executors
  std::uint64_t prev_records_ = 0;
  std::atomic<int> next_slot_{0};
  EvalTotals totals_;
  std::vector<EvalRound> kept_;
};

// Spans of one traced run, in Chrome trace-event form.  pid = case index,
// tid = pool thread (0 = the simulator's thread), and args carry the
// (round, proc, layer) key plus the span id and its parent.
class SpanLog {
 public:
  struct Span {
    int case_index;
    std::uint64_t round;
    int proc;  // -1 = the span covers every process of the round
    const char* layer;
    int tid;
    Clock::time_point begin, end;
    std::int64_t id;
    std::int64_t parent;  // -1 = a root span
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void add_case(const std::string& label) { cases_.push_back(label); }
  std::int64_t add(int case_index, std::uint64_t round, int proc, const char* layer, int tid,
                   Clock::time_point begin, Clock::time_point end, std::int64_t parent);
  // Builds sim.round > {protocols.eval > round_pool.shard,
  // sim.commit_deliver} spans under `parent` for the first `cap` rounds of
  // one case, from the injector's round stamps and the executor's kept
  // rounds (`evals` is empty on the socket path, which has no timing
  // executor).
  void add_rounds(int case_index, std::int64_t parent, const RoundStamps& stamps,
                  const std::vector<EvalRound>& evals, Clock::time_point run_end,
                  std::size_t cap);

  std::size_t size() const { return spans_.size(); }
  // Throws std::runtime_error when the file cannot be written.
  void write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<std::string> cases_;
  std::vector<Span> spans_;
  std::uint64_t dropped_rounds_ = 0;
};

}  // namespace perfbench
