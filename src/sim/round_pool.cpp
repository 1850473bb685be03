#include "sim/round_pool.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

namespace dowork {

namespace {
// Installed by each pool worker for its lifetime; every other thread reads
// the default null.
thread_local const std::atomic<bool>* tl_cancel = nullptr;
}  // namespace

bool run_cancelled() { return tl_cancel != nullptr && tl_cancel->load(std::memory_order_acquire); }

RoundPool::RoundPool(int threads, std::size_t min_steps_per_shard)
    : min_steps_per_shard_(std::max<std::size_t>(1, min_steps_per_shard)) {
  start_workers(std::max(1, threads) - 1);
}

RoundPool::RoundPool(int threads, const Supervision& supervision)
    : min_steps_per_shard_(1), supervised_(true), supervision_(supervision) {
  start_workers(std::max(1, threads));
}

RoundPool::~RoundPool() { shutdown(); }

void RoundPool::start_workers(int count) {
  const auto n = static_cast<std::size_t>(count);
  exited_.assign(n, 0);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workers_.emplace_back([this, i] { worker_main(i); });
}

void RoundPool::run_steps(StepEval& eval, const Round& round, const std::vector<int>& steps,
                          std::vector<Ready>& out) {
  if (supervised_) {
    run_supervised(eval, round, steps, out);
    return;
  }
  // Inline path: rounds too small to amortize a dispatch (the sequential
  // protocols' 1-2 step rounds, and everything when threads() == 1) run on
  // the calling thread exactly like the serial executor path.
  const std::size_t n = steps.size();
  const std::size_t max_shards =
      std::min<std::size_t>(static_cast<std::size_t>(threads()), n / min_steps_per_shard_);
  if (max_shards <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      Action a = eval.eval_step(steps[i]);
      out.push_back(Ready{steps[i], std::move(a)});
    }
    return;
  }

  // Dispatch: carve [0, n) into max_shards near-equal contiguous slices.
  // steps is ascending by id, so shard k's ids all precede shard k+1's.
  if (shards_.size() < max_shards) shards_.resize(max_shards);
  const std::size_t base = n / max_shards;
  const std::size_t rem = n % max_shards;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < max_shards; ++k) {
    Shard& s = shards_[k];
    s.begin = pos;
    pos += base + (k < rem ? 1 : 0);
    s.end = pos;
    s.out.clear();
    s.error = nullptr;
  }

  {
    std::lock_guard<std::mutex> lock(m_);
    eval_ = &eval;
    steps_ = &steps;
    active_shards_ = max_shards;
    next_shard_ = 0;
    pending_ = max_shards;
    ++generation_;
  }
  work_cv_.notify_all();

  // The dispatching thread is a full pool member: claim and evaluate shards
  // until none remain, then wait for the stragglers at the barrier.
  drain_shards();
  {
    std::unique_lock<std::mutex> lock(m_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    eval_ = nullptr;
    steps_ = nullptr;
  }

  // Post-barrier: surface the first failure in shard order -- i.e. the one
  // the serial loop would have hit first -- with `out` still untouched, so
  // an aborting round (a protocol throw) commits nothing, matching the
  // serial executor path byte for byte.
  for (std::size_t k = 0; k < max_shards; ++k) {
    if (shards_[k].error) std::rethrow_exception(shards_[k].error);
  }
  for (std::size_t k = 0; k < max_shards; ++k) {
    for (Ready& r : shards_[k].out) out.push_back(std::move(r));
    shards_[k].out.clear();
  }
}

void RoundPool::run_supervised(StepEval& eval, const Round& round, const std::vector<int>& steps,
                               std::vector<Ready>& out) {
  const std::size_t n = steps.size();
  if (shards_.size() < n) shards_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    Shard& s = shards_[k];
    s.begin = k;
    s.end = k + 1;
    s.out.clear();
    s.error = nullptr;
    s.done = false;
  }
  finish_order_.clear();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(supervision_.deadline_ms);
  std::unique_lock<std::mutex> lock(m_);
  eval_ = &eval;
  steps_ = &steps;
  active_shards_ = n;
  next_shard_ = 0;
  pending_ = n;
  ++generation_;
  work_cv_.notify_all();

  if (!done_cv_.wait_until(lock, deadline, [this] { return pending_ == 0; })) {
    // Watchdog: the round missed its wall-clock deadline.  Stop further
    // claims, cancel the evaluations still running, and abort with a
    // structured reason; nothing from this round is handed back.  eval_
    // stays set: a stalled worker is still evaluating against it.
    cancel_.store(true, std::memory_order_release);
    const std::size_t missing = pending_;
    // The first claimed step still running is the one stalling; if every
    // claimed step finished, no worker got to the next one in time.
    int first_stalled = next_shard_ < n ? steps[next_shard_] : -1;
    for (std::size_t k = 0; k < next_shard_; ++k) {
      if (!shards_[k].done) {
        first_stalled = steps[k];
        break;
      }
    }
    const std::string ms = std::to_string(supervision_.deadline_ms);
    throw AbortRun{"watchdog: " + std::to_string(missing) + " worker(s) missed the " + ms +
                       "ms round deadline (first stalled: proc " + std::to_string(first_stalled) +
                       ", round " + round.to_string() + ")",
                   "cause=watchdog proc=" + std::to_string(first_stalled) +
                       " missing=" + std::to_string(missing) + " round=" + round.to_string() +
                       " deadline_ms=" + ms};
  }
  eval_ = nullptr;
  steps_ = nullptr;
  lock.unlock();

  for (std::size_t k = 0; k < n; ++k) {
    if (shards_[k].error) std::rethrow_exception(shards_[k].error);
  }
  auto hand_back = [&](std::size_t k) {
    for (Ready& r : shards_[k].out) out.push_back(std::move(r));
    shards_[k].out.clear();
  };
  if (supervision_.free_order) {
    for (std::size_t k : finish_order_) hand_back(k);
  } else {
    for (std::size_t k = 0; k < n; ++k) hand_back(k);
  }
}

void RoundPool::drain_shards() {
  for (;;) {
    std::size_t k = 0;
    {
      std::lock_guard<std::mutex> lock(m_);
      if (cancel_.load(std::memory_order_relaxed) || next_shard_ >= active_shards_) return;
      k = next_shard_++;
    }
    eval_shard(shards_[k]);
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(m_);
      shards_[k].done = true;
      if (supervised_) finish_order_.push_back(k);
      last = (--pending_ == 0);
    }
    if (last) done_cv_.notify_one();
  }
}

void RoundPool::eval_shard(Shard& shard) {
  try {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      const int p = (*steps_)[i];
      Action a = eval_->eval_step(p);
      shard.out.push_back(Ready{p, std::move(a)});
    }
  } catch (...) {
    shard.error = std::current_exception();
  }
}

void RoundPool::worker_main(std::size_t self) {
  tl_cancel = &cancel_;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(m_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) break;
      seen = generation_;
    }
    drain_shards();
  }
  tl_cancel = nullptr;
  {
    std::lock_guard<std::mutex> lock(m_);
    exited_[self] = 1;
    ++exited_count_;
  }
  done_cv_.notify_all();
}

bool RoundPool::shutdown() {
  std::unique_lock<std::mutex> lock(m_);
  if (stop_) return !leaked_;
  stop_ = true;
  cancel_.store(true, std::memory_order_release);
  work_cv_.notify_all();
  // Unsupervised workers always finish their shard, so they are simply
  // joined; supervised ones get the grace deadline, and one still inside an
  // evaluation after it is detached (a std::thread cannot be killed).
  if (supervised_) {
    done_cv_.wait_until(
        lock,
        std::chrono::steady_clock::now() + std::chrono::milliseconds(supervision_.join_grace_ms),
        [this] { return exited_count_ == workers_.size(); });
  }
  std::vector<std::uint8_t> exited = exited_;
  lock.unlock();
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (!supervised_ || exited[i]) {
      workers_[i].join();
    } else {
      workers_[i].detach();
      leaked_ = true;
    }
  }
  return !leaked_;
}

}  // namespace dowork
