#include "probes.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

using dowork::Action;
using dowork::Round;

namespace {

// Cost of one back-to-back pair of clock reads, subtracted from every
// sampled inspect so the estimate is the injector's time, not the clock's.
double clock_pair_cost() {
  static const double cost = [] {
    std::vector<double> d(1001);
    for (double& x : d) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      x = seconds_between(a, b);
    }
    std::nth_element(d.begin(), d.begin() + 500, d.end());
    return d[500];
  }();
  return cost;
}

// Pool-thread slot of the calling thread for one executor: assigned on the
// thread's first sharded evaluation, in arrival order.
struct ThreadSlot {
  std::uint64_t owner = 0;  // TimingExecutor id; ids start at 1
  int slot = -1;
};
thread_local ThreadSlot tls_slot;
std::atomic<std::uint64_t> next_executor_id{0};

}  // namespace

// --- StampingInjector --------------------------------------------------------

StampingInjector::StampingInjector(std::unique_ptr<dowork::FaultInjector> inner,
                                   RoundStamps* stamps)
    : inner_(std::move(inner)), stamps_(stamps) {
  if (stamps_->traced) clock_pair_cost();  // calibrate before the run, not inside it
}

void StampingInjector::on_round_start(const Round& round) {
  if (stamps_->traced) {
    const auto now = Clock::now();
    if (!stamps_->first_start) stamps_->first_start = now;
    stamps_->starts.push_back(now);
    stamps_->rounds.push_back(round.to_u64_saturating());
  } else if (!stamps_->first_start) {
    stamps_->first_start = Clock::now();
  }
  inner_->on_round_start(round);
}

std::optional<dowork::CrashPlan> StampingInjector::inspect(int proc, const Round& round,
                                                           const Action& action,
                                                           const dowork::SimSnapshot& snap) {
  ++stamps_->inspect_calls;
  if (!stamps_->traced || stamps_->inspect_calls % kSampleEvery != 0)
    return inner_->inspect(proc, round, action, snap);
  const auto a = Clock::now();
  auto plan = inner_->inspect(proc, round, action, snap);
  const auto b = Clock::now();
  ++stamps_->sampled_calls;
  stamps_->sampled_s += std::max(0.0, seconds_between(a, b) - clock_pair_cost());
  return plan;
}

// --- TimingExecutor ----------------------------------------------------------

// Wraps the simulator's StepEval on sharded rounds: each pool thread adds
// its own evaluation time to its own lane, so the sum needs no locking (the
// pool's barrier orders the lanes' writes before run_steps returns).
class TimingExecutor::BusyEval final : public dowork::StepEval {
 public:
  BusyEval(dowork::StepEval& inner, std::uint64_t owner, std::vector<EvalRound::Lane>& lanes,
           std::vector<double>& busy, std::atomic<int>& next_slot)
      : inner_(inner), owner_(owner), lanes_(lanes), busy_(busy), next_slot_(next_slot) {}

  Action eval_step(int proc) override {
    if (tls_slot.owner != owner_) tls_slot = ThreadSlot{owner_, next_slot_.fetch_add(1)};
    const auto slot = static_cast<std::size_t>(tls_slot.slot);
    const auto a = Clock::now();
    Action action = inner_.eval_step(proc);
    const auto b = Clock::now();
    if (slot < lanes_.size()) {
      EvalRound::Lane& lane = lanes_[slot];
      if (lane.first_proc < 0) {
        lane.first_proc = proc;
        lane.begin = a;
      }
      lane.end = b;
      busy_[slot] += seconds_between(a, b);
    }
    return action;
  }

 private:
  dowork::StepEval& inner_;
  std::uint64_t owner_;
  std::vector<EvalRound::Lane>& lanes_;
  std::vector<double>& busy_;
  std::atomic<int>& next_slot_;
};

TimingExecutor::TimingExecutor(dowork::RoundPool* pool, std::size_t keep_rounds)
    : pool_(pool), keep_rounds_(keep_rounds), id_(++next_executor_id) {}

void TimingExecutor::run_steps(dowork::StepEval& eval, const Round& round,
                               const std::vector<int>& steps, std::vector<Ready>& out) {
  // RoundPool shards a round iff it has at least two shards' worth of
  // steps (round_pool.cpp: min(threads, steps / min_steps_per_shard) > 1).
  const std::size_t threads = pool_ != nullptr ? static_cast<std::size_t>(pool_->threads()) : 1;
  const bool sharded = threads > 1 && steps.size() / kMinStepsPerShard > 1;
  const std::size_t before = out.size();
  EvalRound er;
  er.round = round.to_u64_saturating();
  std::vector<double> busy;
  er.begin = Clock::now();
  if (sharded) {
    er.lanes.assign(threads, EvalRound::Lane{});
    busy.assign(threads, 0.0);
    BusyEval wrapped(eval, id_, er.lanes, busy, next_slot_);
    pool_->run_steps(wrapped, round, steps, out);
  } else if (pool_ != nullptr) {
    pool_->run_steps(eval, round, steps, out);
  } else {
    for (int p : steps) out.push_back(Ready{p, eval.eval_step(p)});
  }
  er.end = Clock::now();

  std::uint64_t records = 0;
  for (std::size_t i = before; i < out.size(); ++i) records += out[i].action.sends.size();
  const double wall = seconds_between(er.begin, er.end);
  totals_.steps += steps.size();
  totals_.records += records;
  totals_.exposed += steps.size() * prev_records_;
  prev_records_ = records;
  totals_.eval_s += wall;
  if (pool_ != nullptr) {
    if (sharded) {
      ++totals_.sharded_rounds;
      totals_.sharded_wall_s += wall;
      for (double b : busy) totals_.busy_s += b;
    } else {
      ++totals_.inline_rounds;
    }
  }
  if (kept_.size() < keep_rounds_) kept_.push_back(std::move(er));
}

// --- SpanLog -----------------------------------------------------------------

std::int64_t SpanLog::add(int case_index, std::uint64_t round, int proc, const char* layer,
                          int tid, Clock::time_point begin, Clock::time_point end,
                          std::int64_t parent) {
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(Span{case_index, round, proc, layer, tid, begin, end, id, parent});
  return id;
}

void SpanLog::add_rounds(int case_index, std::int64_t parent, const RoundStamps& stamps,
                         const std::vector<EvalRound>& evals, Clock::time_point run_end,
                         std::size_t cap) {
  const std::size_t n = std::min(stamps.starts.size(), cap);
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = stamps.rounds[i];
    const Clock::time_point begin = stamps.starts[i];
    const Clock::time_point end = i + 1 < stamps.starts.size() ? stamps.starts[i + 1] : run_end;
    const std::int64_t round_id = add(case_index, r, -1, "sim.round", 0, begin, end, parent);
    while (j < evals.size() && evals[j].round < r) ++j;
    if (j == evals.size() || evals[j].round != r) continue;
    const EvalRound& er = evals[j];
    const std::int64_t eval_id =
        add(case_index, r, -1, "protocols.eval", 0, er.begin, er.end, round_id);
    for (std::size_t k = 0; k < er.lanes.size(); ++k) {
      const EvalRound::Lane& lane = er.lanes[k];
      if (lane.first_proc >= 0)
        add(case_index, r, lane.first_proc, "round_pool.shard", static_cast<int>(k), lane.begin,
            lane.end, eval_id);
    }
    add(case_index, r, -1, "sim.commit_deliver", 0, er.end, end, round_id);
  }
  dropped_rounds_ += stamps.starts.size() - n;
}

void SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"key\":\"round,proc,layer\","
                  "\"dropped_rounds\":%llu},\"traceEvents\":[",
               static_cast<unsigned long long>(dropped_rounds_));
  bool first = true;
  for (std::size_t c = 0; c < cases_.size(); ++c) {
    std::fprintf(f,
                 "%s\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,"
                 "\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", c, cases_[c].c_str());
    first = false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%llu,\"proc\":%d,\"layer\":\"%s\","
                 "\"id\":%lld,\"parent\":%lld}}",
                 first ? "" : ",", s.layer, s.case_index, s.tid, us(s.begin),
                 std::max(0.0, us(s.end) - us(s.begin)), static_cast<unsigned long long>(s.round),
                 s.proc, s.layer, static_cast<long long>(s.id), static_cast<long long>(s.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
