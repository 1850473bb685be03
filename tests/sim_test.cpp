#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <optional>
#include <type_traits>
#include <utility>

#include "sim/fault_injector.h"
#include "sim/round_pool.h"
#include "util/rng.h"

namespace dowork {
namespace {

struct IntPayload final : Payload {
  int v;
  explicit IntPayload(int v_in) : v(v_in) {}
};

// Sends one message to `to` at its start round, then terminates.
class OneShotSender final : public IProcess {
 public:
  OneShotSender(int to, std::uint64_t at_round, int tag = 7)
      : to_(to), at_(at_round), tag_(tag) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    Action a;
    if (ctx.round >= Round{at_}) {
      a.sends.push_back(Outgoing{to_, MsgKind::kOther, std::make_shared<IntPayload>(tag_)});
      a.terminate = true;
    }
    return a;
  }
  Round next_wake(const Round& now) const override {
    return Round{at_} > now ? Round{at_} : now;
  }

 private:
  int to_;
  std::uint64_t at_;
  int tag_;
};

// Records the round of its first received message, then terminates.
class Receiver final : public IProcess {
 public:
  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    Action a;
    if (!inbox.empty()) {
      const Msg first = inbox.front();
      received_round = ctx.round;
      received_from = first.from;
      received_tag = first.as<IntPayload>() ? first.as<IntPayload>()->v : -1;
      a.terminate = true;
    }
    return a;
  }
  Round next_wake(const Round&) const override { return never_round(); }

  Round received_round;
  int received_from = -1;
  int received_tag = -1;
};

// Performs `n` units of work, one per round, then terminates.
class Worker final : public IProcess {
 public:
  explicit Worker(std::int64_t n) : n_(n) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    if (next_ <= n_) a.work = next_++;
    if (next_ > n_) a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  std::int64_t n_;
  std::int64_t next_ = 1;
};

// Broadcasts to everyone each round, forever (used for crash tests).
class Chatterbox final : public IProcess {
 public:
  explicit Chatterbox(int t) : t_(t) {}
  Action on_round(const RoundContext& ctx, const InboxView&) override {
    Action a;
    a.sends.push_back(Outgoing{IdRange{0, t_}, MsgKind::kOther,
                               std::make_shared<IntPayload>(
                                   static_cast<int>(ctx.round.to_u64_saturating()))});
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  int t_;
};

TEST(Simulator, MessageDeliveredNextRound) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<OneShotSender>(1, 3));
  auto receiver = std::make_unique<Receiver>();
  Receiver* rx = receiver.get();
  procs.push_back(std::move(receiver));

  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  RunMetrics m = sim.run();  // keep sim (and the processes) alive for rx
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(m.messages_total, 1u);
  EXPECT_EQ(rx->received_round, Round{4});  // sent at 3, delivered at 4
  EXPECT_EQ(rx->received_from, 0);
  EXPECT_EQ(rx->received_tag, 7);
}

TEST(Simulator, FastForwardSkipsIdleRounds) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<OneShotSender>(1, 1'000'000));
  auto receiver = std::make_unique<Receiver>();
  Receiver* rx = receiver.get();
  procs.push_back(std::move(receiver));

  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(rx->received_round, Round{1'000'001});
  EXPECT_LE(m.stepped_rounds, 4u);  // not a million rounds
  EXPECT_GE(m.fast_forward_jumps, 1u);
}

TEST(Simulator, FastForwardWorksBeyondU64) {
  std::vector<std::unique_ptr<IProcess>> procs;
  // A receiver-only system would deadlock; use a sender waking at a
  // beyond-u64 round to prove big-jump scheduling works.
  class LateActor final : public IProcess {
   public:
    Action on_round(const RoundContext& ctx, const InboxView&) override {
      acted_at = ctx.round;
      Action a;
      a.terminate = true;
      return a;
    }
    Round next_wake(const Round& now) const override {
      Round at = BigUint::pow2(100);
      return at > now ? at : now;
    }
    Round acted_at;
  };
  auto actor = std::make_unique<LateActor>();
  LateActor* ptr = actor.get();
  procs.push_back(std::move(actor));
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_EQ(ptr->acted_at, BigUint::pow2(100));
  EXPECT_LE(m.stepped_rounds, 2u);  // round 0 plus the wake round
}

TEST(Simulator, WorkAccountingAndSink) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(5));
  Simulator::Options opts;
  opts.n_units = 5;
  std::vector<std::int64_t> sunk;
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), opts,
                                [&](int, std::int64_t u, const Round&) { sunk.push_back(u); });
  EXPECT_EQ(m.work_total, 5u);
  EXPECT_TRUE(m.all_units_done());
  EXPECT_EQ(sunk, (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(m.max_concurrent_workers, 1u);
}

TEST(Simulator, DeadlockDetected) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Receiver>());  // waits forever
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), {});
  EXPECT_TRUE(m.deadlocked);
  EXPECT_FALSE(m.all_retired);
}

TEST(Simulator, CrashTruncatesBroadcastToPrefix) {
  // Process 0 broadcasts to 0..3 every round; crash it on its first action
  // delivering only a prefix of the flattened recipient sequence.
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Chatterbox>(4));
  std::vector<Receiver*> rx;
  for (int i = 0; i < 3; ++i) {
    auto r = std::make_unique<Receiver>();
    rx.push_back(r.get());
    procs.push_back(std::move(r));
  }
  ScheduledFaults::Entry e;
  e.proc = 0;
  e.on_nth_action = 1;
  // Chatterbox's audience is {0,1,2,3} in ascending order; prefix 2 covers
  // recipients {0, 1}.
  e.plan.deliver_prefix = 2;
  Simulator sim(std::move(procs), std::make_unique<ScheduledFaults>(std::vector{e}), {});
  RunMetrics m = sim.run();
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_EQ(m.messages_total, 2u);     // only the prefix counts as sent
  EXPECT_EQ(rx[0]->received_from, 0);  // process 1 got it
  EXPECT_EQ(rx[1]->received_from, -1);
  EXPECT_EQ(rx[2]->received_from, -1);
  // Processes 2,3 then deadlock (they wait forever): run reports it.
  EXPECT_TRUE(m.deadlocked);
}

TEST(Simulator, CrashCanSuppressWorkUnit) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(10));
  procs.push_back(std::make_unique<Worker>(10));  // survivor so crash is allowed
  ScheduledFaults::Entry e;
  e.proc = 0;
  e.on_nth_action = 3;
  e.plan.work_completes = false;
  Simulator::Options opts;
  opts.n_units = 10;
  RunMetrics m = run_simulation(std::move(procs),
                                std::make_unique<ScheduledFaults>(std::vector{e}), opts);
  EXPECT_EQ(m.crashes, 1u);
  EXPECT_EQ(m.work_by_proc[0], 2u);   // third unit suppressed
  EXPECT_EQ(m.work_by_proc[1], 10u);  // untouched
}

TEST(Simulator, LastSurvivorNeverCrashes) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(4));
  ScheduledFaults::Entry e;
  e.proc = 0;
  e.on_nth_action = 1;
  Simulator::Options opts;
  opts.n_units = 4;
  RunMetrics m = run_simulation(std::move(procs),
                                std::make_unique<ScheduledFaults>(std::vector{e}), opts);
  EXPECT_EQ(m.crashes, 0u);
  EXPECT_TRUE(m.all_units_done());
}

TEST(Simulator, StrictModeRejectsWorkPlusSend) {
  class Bad final : public IProcess {
    Action on_round(const RoundContext&, const InboxView&) override {
      Action a;
      a.work = 1;
      a.sends.push_back(Outgoing{0, MsgKind::kOther, std::make_shared<IntPayload>(0)});
      a.terminate = true;
      return a;
    }
    Round next_wake(const Round& now) const override { return now; }
  };
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Bad>());
  Simulator::Options opts;
  opts.strict_one_op = true;
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, StrictModeAllowsPollReplyAlongsideWork) {
  class PolledWorker final : public IProcess {
    Action on_round(const RoundContext&, const InboxView& inbox) override {
      Action a;
      a.work = 1;
      for (const Msg& msg : inbox)
        if (msg.kind == MsgKind::kPoll)
          a.sends.push_back(Outgoing{msg.from, MsgKind::kPollReply, nullptr});
      a.terminate = true;
      return a;
    }
    Round next_wake(const Round& now) const override { return now; }
  };
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<PolledWorker>());
  Simulator::Options opts;
  opts.strict_one_op = true;
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), opts);
  EXPECT_NO_THROW(sim.run());
}

TEST(Simulator, RunTwiceThrows) {
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<Worker>(1));
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  sim.run();
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(FaultInjector, WorkCascadeCrashesSequentially) {
  // Three workers working in parallel; cascade kills each after 2 units,
  // at most 2 crashes.
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < 3; ++i) procs.push_back(std::make_unique<Worker>(6));
  Simulator::Options opts;
  opts.n_units = 6;
  RunMetrics m = run_simulation(
      std::move(procs), std::make_unique<WorkCascadeFaults>(2, /*max_crashes=*/2), opts);
  EXPECT_EQ(m.crashes, 2u);
  // The survivor did all 6 units.
  std::uint64_t max_work = 0;
  for (auto w : m.work_by_proc) max_work = std::max(max_work, w);
  EXPECT_EQ(max_work, 6u);
}

TEST(FaultInjector, RandomFaultsRespectMaxCrashes) {
  std::vector<std::unique_ptr<IProcess>> procs;
  for (int i = 0; i < 8; ++i) procs.push_back(std::make_unique<Worker>(20));
  RunMetrics m = run_simulation(std::move(procs),
                                std::make_unique<RandomFaults>(0.9, 5, /*seed=*/42), {});
  EXPECT_LE(m.crashes, 5u);
  EXPECT_TRUE(m.all_retired);
}

// --- wake-heap scheduling vs a reference scan ---------------------------------

// A process whose deadline wanders under a seeded draw every step: later,
// earlier, next round, unchanged, never, past 2^64 (a promoted Round), or
// it terminates; it also mails random peers.  Each draw folds in the mail
// it got, so a step taken in the wrong round or with the wrong inbox changes
// everything after it.  Steps are logged per walker, so RoundPool shards can
// step walkers concurrently.
class DeadlineWalker final : public IProcess {
 public:
  DeadlineWalker(int t, std::uint64_t seed) : t_(t), rng_(seed) {}

  Action on_round(const RoundContext& ctx, const InboxView& inbox) override {
    steps.push_back(ctx.round);
    std::uint64_t salt = 0;
    for (const Msg& m : inbox) salt += 1 + static_cast<std::uint64_t>(m.as<IntPayload>()->v);
    const Round& r = ctx.round;
    const bool pending = deadline_ > r && deadline_ != never_round();
    Action a;
    const std::uint64_t choice = (rng_.uniform(0, 99) + salt) % 100;
    if (choice < 4 || steps.size() >= kMaxSteps) {
      a.terminate = true;
      return a;
    }
    if (choice < 30) {  // later than the pending deadline (or a fresh one)
      deadline_ = (pending ? deadline_ : r + Round{1}) + Round{rng_.uniform(1, 40)};
    } else if (choice < 48) {  // earlier than the pending deadline
      if (pending && deadline_ > r + Round{2}) {
        Round gap = deadline_;
        gap -= r + Round{2};
        deadline_ = r + Round{2} + Round{rng_.uniform(0, gap.to_u64_saturating() - 1)};
      } else {
        deadline_ = r + Round{2};
      }
    } else if (choice < 62) {  // next round
      deadline_ = r + Round{1};
    } else if (choice < 70) {  // unchanged
    } else if (choice < 78) {  // mail-only
      deadline_ = never_round();
    } else if (choice < 81) {  // past 2^64: the promoted tier
      deadline_ = Round::pow2(64) + Round{rng_.uniform(0, 1000)};
    } else {  // a long sleep
      deadline_ = r + Round{rng_.uniform(50, 500)};
    }
    if (rng_.chance(0.35)) {
      const std::uint64_t peers = rng_.uniform(1, 2);
      for (std::uint64_t i = 0; i < peers; ++i) {
        const int to = static_cast<int>(rng_.uniform(0, static_cast<std::uint64_t>(t_ - 1)));
        a.sends.push_back(Outgoing{to, MsgKind::kOther,
                                   std::make_shared<IntPayload>(
                                       static_cast<int>(rng_.uniform(0, 9)))});
      }
    }
    return a;
  }
  Round next_wake(const Round& now) const override { return deadline_ > now ? deadline_ : now; }

  std::vector<Round> steps;

 private:
  static constexpr std::size_t kMaxSteps = 40;
  int t_;
  Rng rng_;
  Round deadline_{0};
};

// The scheduling semantics simulator.h documents, as the O(t) scan the wake
// heap replaced: deliver last round's mail, step every live process with
// mail or a due wake in ascending id order, and when nothing is in flight
// jump to the earliest wake.  Alongside, it mirrors each process's heap key
// under the rules in simulator.h, only to count which heap paths a
// population exercised; the schedule never reads the mirror.
struct ReferenceRun {
  std::uint64_t stepped_rounds = 0;
  std::uint64_t fast_forward_jumps = 0;
  std::uint64_t messages_total = 0;
  bool all_retired = false;
  bool deadlocked = false;
  // Heap paths taken, per the mirrored keys.
  int decreases = 0;        // earlier wake while holding an entry: sift up
  int raises = 0;           // later wake while holding an entry: key lags
  int rekeys_due = 0;       // lagging key <= the round surfaced in the due scan
  int rekeys_ff = 0;        // lagging key below the fast-forward target
  int retires_holding = 0;  // terminated while holding an entry
  int promoted_wakes = 0;   // wakes past 2^64 entered the heap
};

ReferenceRun run_reference(const std::vector<DeadlineWalker*>& ws) {
  const std::size_t t = ws.size();
  const Round& never = never_round();
  std::vector<Round> wake(t);
  std::vector<std::optional<Round>> key(t);  // the mirror
  std::vector<bool> alive(t, true);
  std::vector<std::vector<Envelope>> inbox(t);
  std::vector<std::vector<Envelope>> sent(t);
  ReferenceRun out;
  std::size_t alive_count = t;
  auto reschedule = [&](std::size_t p, const Round& now) {
    Round w = ws[p]->next_wake(now);
    if (w < now) w = now;
    if (w == now || w == never) {
      key[p].reset();
    } else if (!key[p]) {
      key[p] = w;
      if (w >= Round::pow2(64)) ++out.promoted_wakes;
    } else if (w < *key[p]) {
      key[p] = w;
      ++out.decreases;
    } else if (*key[p] < w) {
      ++out.raises;
    }
    wake[p] = std::move(w);
  };
  for (std::size_t p = 0; p < t; ++p) reschedule(p, Round{0});

  Round r = 0;
  while (alive_count > 0) {
    std::swap(inbox, sent);
    for (auto& box : sent) box.clear();
    for (std::size_t p = 0; p < t; ++p) {
      if (!alive[p] || !key[p] || *key[p] > r) continue;
      if (*key[p] < wake[p]) {
        ++out.rekeys_due;
        key[p] = wake[p];
      }
      if (*key[p] == r) key[p].reset();  // due: the entry leaves the heap
    }
    bool any_sent = false;
    const Round next_r = r + Round{1};
    for (std::size_t p = 0; p < t; ++p) {
      if (!alive[p] || (inbox[p].empty() && wake[p] != r)) continue;
      Action a = ws[p]->on_round(RoundContext{r, static_cast<int>(p)}, InboxView(inbox[p]));
      for (const Outgoing& o : a.sends) {
        any_sent = true;
        o.to.for_each_prefix(o.to.size(), [&](int to) {
          ++out.messages_total;
          sent[static_cast<std::size_t>(to)].push_back(
              Envelope{static_cast<int>(p), to, o.kind, r, o.payload});
        });
      }
      if (a.terminate) {
        if (key[p]) ++out.retires_holding;
        key[p].reset();
        alive[p] = false;
        --alive_count;
      } else {
        reschedule(p, next_r);
      }
    }
    ++out.stepped_rounds;
    if (alive_count == 0) break;
    if (any_sent) {
      r = next_r;
      continue;
    }
    const Round* min_wake = nullptr;
    for (std::size_t p = 0; p < t; ++p)
      if (alive[p] && wake[p] != never && (min_wake == nullptr || wake[p] < *min_wake))
        min_wake = &wake[p];
    if (min_wake == nullptr) {
      out.deadlocked = true;
      return out;
    }
    for (std::size_t p = 0; p < t; ++p) {
      if (alive[p] && key[p] && *key[p] < *min_wake) {
        ++out.rekeys_ff;
        key[p] = wake[p];
      }
    }
    r = next_r;
    if (*min_wake > r) {
      ++out.fast_forward_jumps;
      r = *min_wake;
    }
  }
  out.all_retired = true;
  return out;
}

std::vector<std::unique_ptr<DeadlineWalker>> make_walkers(int t, std::uint64_t seed) {
  std::vector<std::unique_ptr<DeadlineWalker>> ws;
  for (int p = 0; p < t; ++p)
    ws.push_back(std::make_unique<DeadlineWalker>(t, seed * 1000003 + static_cast<std::uint64_t>(p)));
  return ws;
}

// Runs a seeded walker population through the simulator (serially, or under
// `executor`) and through the reference scan, and requires the same steps
// in the same rounds and the same run outcome.  Returns the reference run
// so callers can check which heap paths it covered.
ReferenceRun expect_matches_reference(int t, std::uint64_t seed, StepExecutor* executor) {
  std::vector<DeadlineWalker*> stepped;
  std::vector<std::unique_ptr<IProcess>> procs;
  for (auto& w : make_walkers(t, seed)) {
    stepped.push_back(w.get());
    procs.push_back(std::move(w));
  }
  Simulator sim(std::move(procs), std::make_unique<NoFaults>(), {});
  sim.set_step_executor(executor);
  const RunMetrics m = sim.run();

  const auto ref_walkers = make_walkers(t, seed);
  std::vector<DeadlineWalker*> ref;
  for (const auto& w : ref_walkers) ref.push_back(w.get());
  const ReferenceRun want = run_reference(ref);
  for (int p = 0; p < t; ++p)
    EXPECT_EQ(stepped[static_cast<std::size_t>(p)]->steps, ref[static_cast<std::size_t>(p)]->steps)
        << "seed " << seed << ", process " << p;
  EXPECT_EQ(m.stepped_rounds, want.stepped_rounds) << "seed " << seed;
  EXPECT_EQ(m.fast_forward_jumps, want.fast_forward_jumps) << "seed " << seed;
  EXPECT_EQ(m.messages_total, want.messages_total) << "seed " << seed;
  EXPECT_EQ(m.all_retired, want.all_retired) << "seed " << seed;
  EXPECT_EQ(m.deadlocked, want.deadlocked) << "seed " << seed;
  return want;
}

void expect_population_matches_reference(StepExecutor* executor) {
  ReferenceRun total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ReferenceRun run = expect_matches_reference(120, seed, executor);
    total.decreases += run.decreases;
    total.raises += run.raises;
    total.rekeys_due += run.rekeys_due;
    total.rekeys_ff += run.rekeys_ff;
    total.retires_holding += run.retires_holding;
    total.promoted_wakes += run.promoted_wakes;
    total.fast_forward_jumps += run.fast_forward_jumps;
  }
  // The populations must actually drive every heap path.
  EXPECT_GT(total.decreases, 0);
  EXPECT_GT(total.raises, 0);
  EXPECT_GT(total.rekeys_due, 0);
  EXPECT_GT(total.rekeys_ff, 0);
  EXPECT_GT(total.retires_holding, 0);
  EXPECT_GT(total.promoted_wakes, 0);
  EXPECT_GT(total.fast_forward_jumps, 0u);
}

TEST(WakeHeap, SerialScheduleMatchesReferenceScan) {
  expect_population_matches_reference(nullptr);
}

TEST(WakeHeap, PooledScheduleMatchesReferenceScan) {
  RoundPool pool(4, /*min_steps_per_shard=*/1);
  expect_population_matches_reference(&pool);
}

// --- payload sharing (the ownership rules in message.h) ---------------------

// Payload that counts its constructions, so a test can assert a broadcast
// allocates exactly once regardless of recipient count.
struct CountedPayload final : Payload {
  static int constructions;
  int v;
  explicit CountedPayload(int v_in) : v(v_in) { ++constructions; }
  CountedPayload(const CountedPayload& o) : Payload(o), v(o.v) { ++constructions; }
};
int CountedPayload::constructions = 0;

// Broadcasts one CountedPayload to every other process in round 0, via the
// explicit-recipient-list broadcast() helper.
class CountingBroadcaster final : public IProcess {
 public:
  explicit CountingBroadcaster(int t) : t_(t) {}
  Action on_round(const RoundContext&, const InboxView&) override {
    Action a;
    std::vector<int> recipients;
    for (int i = 1; i < t_; ++i) recipients.push_back(i);
    a.sends.push_back(broadcast(recipients, MsgKind::kOther, std::make_shared<CountedPayload>(42)));
    a.terminate = true;
    return a;
  }
  Round next_wake(const Round& now) const override { return now; }

 private:
  int t_;
};

// Keeps the payload it received alive past on_round by copying the Msg's
// owning reference -- the retention idiom the inbox reuse contract in
// process.h prescribes (raw pointers or Msg views would dangle).  Also
// records how many owners the payload had at receipt time: under the
// broadcast ledger that is exactly one (the ledger record), however many
// recipients the broadcast had.
class PayloadObserver final : public IProcess {
 public:
  PayloadObserver(std::shared_ptr<const Payload>* slot, long* use_count)
      : slot_(slot), use_count_(use_count) {}
  Action on_round(const RoundContext&, const InboxView& inbox) override {
    Action a;
    if (!inbox.empty()) {
      const Msg first = inbox.front();
      *use_count_ = first.payload().use_count();
      *slot_ = first.payload();
      a.terminate = true;
    }
    return a;
  }
  Round next_wake(const Round&) const override { return never_round(); }

 private:
  std::shared_ptr<const Payload>* slot_;
  long* use_count_;
};

TEST(PayloadSharing, BroadcastAllocatesOncePerBroadcastNotPerRecipient) {
  constexpr int t = 17;
  CountedPayload::constructions = 0;
  std::vector<std::shared_ptr<const Payload>> seen(t);
  std::vector<long> owners(t, 0);
  std::vector<std::unique_ptr<IProcess>> procs;
  procs.push_back(std::make_unique<CountingBroadcaster>(t));
  for (int i = 1; i < t; ++i)
    procs.push_back(std::make_unique<PayloadObserver>(&seen[i], &owners[i]));
  RunMetrics m = run_simulation(std::move(procs), std::make_unique<NoFaults>(), {});
  ASSERT_TRUE(m.all_retired);
  EXPECT_EQ(m.messages_total, static_cast<std::uint64_t>(t - 1));

  // One allocation for the whole t-1 recipient broadcast...
  EXPECT_EQ(CountedPayload::constructions, 1);
  // ...and every recipient reads the SAME object (refcount sharing, no
  // clones), still alive because each kept a reference.
  const auto* first = dynamic_cast<const CountedPayload*>(seen[1].get());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->v, 42);
  for (int i = 2; i < t; ++i) EXPECT_EQ(seen[i].get(), seen[1].get()) << "recipient " << i;
  // Delivery holds ONE owning reference -- the ledger record -- no matter
  // the fan-out; the envelope-per-pair plane held t-1 here.  Only the
  // first recipient's count is asserted: later recipients also see the
  // copies earlier observers retained, and GCC is free to elide those
  // matched refcount updates at -O2+ (it does), so their exact counts are
  // optimization-dependent.  The first recipient observes pure delivery
  // state either way.
  EXPECT_EQ(owners[1], 1);
}

TEST(PayloadSharing, ReceivedPayloadsAreImmutable) {
  // Msg::payload() is shared_ptr<const Payload> and as<T>() yields a const
  // pointer: a recipient cannot mutate what its peers will read.
  // (Compile-time property; pinned here so a refactor that drops the const
  // turns this test red at build time.)
  static_assert(std::is_same_v<decltype(std::declval<const Msg&>().as<CountedPayload>()),
                               const CountedPayload*>);
  static_assert(std::is_same_v<std::remove_cvref_t<decltype(std::declval<const Msg&>().payload())>,
                               std::shared_ptr<const Payload>>);
  static_assert(std::is_same_v<decltype(Envelope::payload), std::shared_ptr<const Payload>>);
  SUCCEED();
}

}  // namespace
}  // namespace dowork
