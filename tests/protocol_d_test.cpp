#include "protocols/protocol_d.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <typeinfo>

#include "core/registry.h"
#include "core/runner.h"
#include "harness/fault_spec.h"
#include "sim/round_pool.h"
#include "substrate/differential.h"
#include "substrate/substrate.h"

namespace dowork {
namespace {

std::uint64_t u(std::int64_t v) { return static_cast<std::uint64_t>(v); }

TEST(ProtocolD, FailureFreeIsTimeOptimal) {
  DoAllConfig cfg{64, 8};  // n/t = 8
  RunResult r = run_do_all("D", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 64u);  // perfect load balance, no redo
  EXPECT_EQ(r.metrics.max_concurrent_workers, 8u);
  // n/t + 2 rounds (Theorem 4.1 discussion): rounds 0..n/t+1.
  EXPECT_EQ(r.metrics.last_retire_round, Round{64u / 8u + 1u});
  // 2 agreement broadcasts to t-1 peers each: 2t(t-1) <= 2t^2 messages.
  EXPECT_EQ(r.metrics.messages_total, 2u * 8u * 7u);
  EXPECT_EQ(r.metrics.messages_of(MsgKind::kAgreement), r.metrics.messages_total);
}

TEST(ProtocolD, FailureFreeUnevenDivision) {
  DoAllConfig cfg{65, 8};  // ceil(65/8) = 9
  RunResult r = run_do_all("D", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 65u);
  EXPECT_EQ(r.metrics.last_retire_round, Round{9u + 1u});
}

TEST(ProtocolD, SingleProcess) {
  DoAllConfig cfg{10, 1};
  RunResult r = run_do_all("D", cfg, std::make_unique<NoFaults>());
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.work_total, 10u);
  EXPECT_EQ(r.metrics.messages_total, 0u);
}

TEST(ProtocolD, OneCrashCostsOneExtraPhase) {
  DoAllConfig cfg{64, 8};
  // Process 3 dies on its first work unit without completing it.
  std::vector<ScheduledFaults::Entry> entries{{3, 1, CrashPlan{false, 0}}};
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  // Its 8-unit slice is redone by the 7 survivors in phase 2.
  EXPECT_LE(r.metrics.work_total, 64u + 8u);
  // Paper: with one failure, <= n/t + ceil(n/t(t-1)) + 6 rounds and <= 5t^2
  // messages (plus small pipeline slack).
  EXPECT_LE(r.metrics.last_retire_round, Round{8u + 2u + 8u});
  EXPECT_LE(r.metrics.messages_total, 5u * 64u + 64u);
}

TEST(ProtocolD, CrashDuringAgreementBroadcastStillAgrees) {
  DoAllConfig cfg{32, 4};
  // Process 1: 8 work actions, then dies during its first agreement
  // broadcast, reaching only the first recipient.
  std::vector<ScheduledFaults::Entry> entries{{1, 9, CrashPlan{false, 1}}};
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_EQ(r.metrics.crashes, 1u);
  // Its slice was already done; survivors may or may not have learned it.
  EXPECT_LE(r.metrics.work_total, 32u + 8u);
}

TEST(ProtocolD, TheoremFourOneCaseOneBounds) {
  // One crash per phase, f = 4 crashes on t = 16: never more than half.
  DoAllConfig cfg{128, 16};
  const int f = 4;
  // Crash process p on its (p+1)*2-th work unit so deaths spread over time.
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < f; ++p)
    entries.push_back({p, u(2 * (p + 1)), CrashPlan{true, 0}});
  RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
  ASSERT_TRUE(r.ok()) << r.violation;
  EXPECT_LE(r.metrics.work_total, 2u * 128u) << "work <= 2n (Thm 4.1 1a)";
  EXPECT_LE(r.metrics.messages_total, (4u * f + 2u) * 16u * 16u) << "msgs <= (4f+2)t^2";
  // rounds <= (f+1) n/t + 4f + 2, plus pipeline grace slack (<= 2 per phase).
  EXPECT_LE(r.metrics.last_retire_round, Round{(f + 1) * 8u + 4u * f + 2u + 2u * (f + 1)});
}

TEST(ProtocolD, RevertsToProtocolAWhenMajorityDies) {
  DoAllConfig cfg{64, 8};
  // Kill 5 of 8 (more than half of those thought correct) in phase 1.
  std::vector<ScheduledFaults::Entry> entries;
  for (int p = 0; p < 5; ++p) entries.push_back({p, 2, CrashPlan{true, 0}});
  std::vector<std::unique_ptr<IProcess>> procs;
  std::vector<ProtocolDProcess*> raw;
  for (int i = 0; i < cfg.t; ++i) {
    auto d = std::make_unique<ProtocolDProcess>(cfg, i);
    raw.push_back(d.get());
    procs.push_back(std::move(d));
  }
  Simulator::Options opts;
  opts.n_units = cfg.n;
  opts.strict_one_op = true;
  Simulator sim(std::move(procs), std::make_unique<ScheduledFaults>(std::move(entries)), opts);
  RunMetrics m = sim.run();
  EXPECT_TRUE(m.all_retired);
  EXPECT_TRUE(m.all_units_done());
  // The survivors switched to the Protocol A escape hatch.
  bool any_reverted = false;
  for (auto* d : raw) any_reverted |= d->reverted_to_a();
  EXPECT_TRUE(any_reverted);
  // Theorem 4.1 case 2: work <= 4n, checkpoint traffic present.
  EXPECT_LE(m.work_total, 4u * 64u);
  EXPECT_GT(m.messages_of(MsgKind::kCheckpoint), 0u);
}

TEST(ProtocolD, GracefulDegradationRoundsGrowLinearlyInF) {
  DoAllConfig cfg{240, 8};
  std::uint64_t prev_rounds = 0;
  for (int f : {0, 2, 4}) {
    std::vector<ScheduledFaults::Entry> entries;
    for (int p = 0; p < f; ++p) entries.push_back({p, u(10 * (p + 1)), CrashPlan{true, 0}});
    RunResult r = run_do_all("D", cfg, std::make_unique<ScheduledFaults>(std::move(entries)));
    ASSERT_TRUE(r.ok()) << r.violation << " f=" << f;
    std::uint64_t rounds = r.metrics.last_retire_round.to_u64_saturating();
    EXPECT_GE(rounds, prev_rounds);
    // Never worse than (f+1)n/t + O(f).
    EXPECT_LE(rounds, u((f + 1) * 30 + 6 * f + 6));
    prev_rounds = rounds;
  }
}

struct SweepCase {
  std::int64_t n;
  int t;
  int fault_mode;
  unsigned seed;
};

class ProtocolDSweep : public ::testing::TestWithParam<SweepCase> {};

std::unique_ptr<FaultInjector> make_faults(const SweepCase& c) {
  switch (c.fault_mode) {
    case 1:
      return std::make_unique<WorkCascadeFaults>(1, c.t - 1, 0);
    case 2:
      return std::make_unique<WorkCascadeFaults>(u(ceil_div(c.n, c.t)), c.t - 1, 2);
    case 3:
      return std::make_unique<RandomFaults>(0.05, c.t - 1, c.seed);
    default:
      return std::make_unique<NoFaults>();
  }
}

TEST_P(ProtocolDSweep, AlwaysCompletesAllWork) {
  const SweepCase& c = GetParam();
  DoAllConfig cfg{c.n, c.t};
  RunResult r = run_do_all("D", cfg, make_faults(c));
  ASSERT_TRUE(r.ok()) << r.violation << " (" << cfg.to_string() << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolDSweep,
    ::testing::Values(
        SweepCase{16, 4, 0, 0}, SweepCase{16, 4, 1, 0}, SweepCase{16, 4, 2, 0},
        SweepCase{16, 4, 3, 1}, SweepCase{100, 10, 1, 0}, SweepCase{100, 10, 2, 0},
        SweepCase{100, 10, 3, 2}, SweepCase{64, 16, 1, 0}, SweepCase{64, 16, 3, 3},
        SweepCase{50, 7, 1, 0}, SweepCase{50, 7, 3, 4}, SweepCase{8, 16, 1, 0},
        SweepCase{8, 16, 3, 5}, SweepCase{1, 4, 1, 0}, SweepCase{33, 11, 2, 0},
        SweepCase{33, 11, 3, 6}, SweepCase{256, 25, 1, 0}, SweepCase{256, 25, 3, 7},
        SweepCase{128, 2, 1, 0}, SweepCase{40, 3, 3, 8}, SweepCase{512, 32, 3, 9},
        SweepCase{81, 81, 1, 0}, SweepCase{81, 81, 3, 10}));

// The O(n) partition the coordinator variant used to carry, kept as the
// reference for work_slice: flatten every outstanding unit, then take this
// rank's ceil(|S|/|T|) of them.
std::int64_t flatten_slice(const DynBitset& s, const DynBitset& alive, int self,
                           std::vector<std::int64_t>& slice) {
  std::vector<std::int64_t> outstanding;
  for (std::size_t i = s.find_next(0); i < s.size(); i = s.find_next(i + 1))
    outstanding.push_back(static_cast<std::int64_t>(i) + 1);
  const std::uint64_t members = std::max<std::uint64_t>(1, alive.count());
  const std::int64_t w = ceil_div(static_cast<std::int64_t>(outstanding.size()),
                                  static_cast<std::int64_t>(members));
  slice.clear();
  if (alive.test(static_cast<std::size_t>(self))) {
    const std::int64_t rank =
        static_cast<std::int64_t>(alive.count_prefix(static_cast<std::size_t>(self)));
    const std::int64_t from = rank * w;
    const std::int64_t to =
        std::min<std::int64_t>(from + w, static_cast<std::int64_t>(outstanding.size()));
    for (std::int64_t k = from; k < to; ++k)
      slice.push_back(outstanding[static_cast<std::size_t>(k)]);
  }
  return w;
}

DynBitset bits_of(std::size_t size, std::initializer_list<std::size_t> set) {
  DynBitset b(size);
  for (std::size_t i : set) b.set(i);
  return b;
}

using Slices = std::vector<std::vector<std::int64_t>>;

// Every process's work_slice against the reference; returns the slices.
Slices slices_checked(const DynBitset& s, const DynBitset& alive) {
  Slices out(alive.size());
  for (std::size_t p = 0; p < alive.size(); ++p) {
    std::vector<std::int64_t> want;
    const std::int64_t w_want = flatten_slice(s, alive, static_cast<int>(p), want);
    EXPECT_EQ(work_slice(s, alive, static_cast<int>(p), out[p]), w_want) << "self " << p;
    EXPECT_EQ(out[p], want) << "self " << p;
  }
  return out;
}

TEST(ProtocolDSlice, FewerUnitsThanProcesses) {
  // |S| = 3 over |T| = 8: width 1, ranks 3..7 idle.
  const Slices got = slices_checked(bits_of(10, {1, 4, 8}), DynBitset(8, true));
  EXPECT_EQ(got, (Slices{{2}, {5}, {9}, {}, {}, {}, {}, {}}));
}

TEST(ProtocolDSlice, UnitsNotDivisibleByProcesses) {
  // |S| = 10 over |T| = 4: width 3, the last rank takes the remainder.
  DynBitset s(12, true);
  s.reset(0);
  s.reset(6);
  const Slices got = slices_checked(s, DynBitset(4, true));
  EXPECT_EQ(got, (Slices{{2, 3, 4}, {5, 6, 8}, {9, 10, 11}, {12}}));
  std::vector<std::int64_t> slice;
  EXPECT_EQ(work_slice(DynBitset(10, true), DynBitset(4, true), 3, slice), 3);
  EXPECT_EQ(slice, (std::vector<std::int64_t>{10}));
}

TEST(ProtocolDSlice, RankPastTheLastUnitGetsAnEmptySlice) {
  // |S| = 5 over |T| = 4: width 2, so rank 3 starts at unit index 6 > |S|.
  const Slices got = slices_checked(DynBitset(5, true), DynBitset(4, true));
  EXPECT_EQ(got, (Slices{{1, 2}, {3, 4}, {5}, {}}));
}

TEST(ProtocolDSlice, ProcessOutsideTGetsNothingAndRanksSkipIt) {
  // T = {0, 2, 5}: process 2 has rank 1, process 5 rank 2; 1, 3, 4 idle.
  const Slices got = slices_checked(DynBitset(7, true), bits_of(6, {0, 2, 5}));
  EXPECT_EQ(got, (Slices{{1, 2, 3}, {}, {4, 5, 6}, {}, {}, {7}}));
  std::vector<std::int64_t> slice{42};
  EXPECT_EQ(work_slice(DynBitset(7, true), bits_of(6, {0, 2, 5}), 4, slice), 3);
  EXPECT_TRUE(slice.empty());
}

TEST(ProtocolDSlice, SingleProcessTakesEverything) {
  const Slices got = slices_checked(bits_of(9, {0, 3, 7, 8}), DynBitset(1, true));
  EXPECT_EQ(got, (Slices{{1, 4, 8, 9}}));
}

TEST(ProtocolDSlice, NothingLeftOrNobodyAlive) {
  slices_checked(DynBitset(9), DynBitset(4, true));   // |S| = 0: width 0
  slices_checked(DynBitset(9, true), DynBitset(4));   // |T| = 0 counts as 1
}

TEST(ProtocolDSlice, MatchesTheFlattenReferenceOnRandomViews) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    const std::size_t t = 1 + rng() % 70;
    DynBitset s(n), alive(t);
    const std::uint64_t s_density = rng() % 5, t_density = rng() % 5;
    for (std::size_t i = 0; i < n; ++i)
      if (rng() % 4 < s_density) s.set(i);
    for (std::size_t i = 0; i < t; ++i)
      if (rng() % 4 < t_density) alive.set(i);
    // The slices of T's members tile S in unit order.
    std::vector<std::int64_t> tiled;
    for (const auto& slice : slices_checked(s, alive))
      tiled.insert(tiled.end(), slice.begin(), slice.end());
    std::vector<std::int64_t> all;
    for (std::size_t i = s.find_next(0); i < s.size(); i = s.find_next(i + 1))
      all.push_back(static_cast<std::int64_t>(i) + 1);
    EXPECT_EQ(tiled, alive.none() ? std::vector<std::int64_t>{} : all) << "trial " << trial;
  }
}

class ProtocolDRandom : public ::testing::TestWithParam<unsigned> {};

// Passes crash decisions through to `inner` and opts into message faults
// without faulting any message, which routes delivery through the network
// path: inboxes there carry per-record sent rounds and expose no ledger.
class NetworkPathFaults final : public FaultInjector {
 public:
  explicit NetworkPathFaults(std::unique_ptr<FaultInjector> inner) : inner_(std::move(inner)) {}
  std::optional<CrashPlan> inspect(int proc, const Round& round, const Action& action,
                                   const SimSnapshot& snap) override {
    return inner_->inspect(proc, round, action, snap);
  }
  bool wants_message_faults() const override { return true; }

 private:
  std::unique_ptr<FaultInjector> inner_;
};

// The run-shared AgreeRoundFold is a pure summary: with and without it,
// every metric of the run -- work, messages, rounds, per-process and
// per-unit breakdowns -- must be identical.  The schedules cover each path
// that declines the fold: mid-broadcast prefix cuts (recipients past the
// cut), the one round of skew a cut leaves behind (views arriving early,
// during the work phase), a majority loss (revert to Protocol A), the
// network delivery path (no ledger) and random schedules.
TEST(ProtocolD, RoundFoldIsObservablyInvisible) {
  const DoAllConfig cfg{96, 12};
  // Also counts the processes that reverted to Protocol A.
  auto run_with = [&](bool folded, std::unique_ptr<FaultInjector> faults, int& reverted) {
    auto fold = folded ? std::make_shared<AgreeRoundFold>(cfg) : nullptr;
    std::vector<std::unique_ptr<IProcess>> procs;
    std::vector<const ProtocolDProcess*> raw;
    for (int i = 0; i < cfg.t; ++i) {
      auto d = std::make_unique<ProtocolDProcess>(cfg, i, fold);
      raw.push_back(d.get());
      procs.push_back(std::move(d));
    }
    Simulator::Options opts;
    opts.strict_one_op = true;
    opts.n_units = cfg.n;
    Simulator sim(std::move(procs), std::move(faults), opts);
    const RunMetrics m = sim.run();
    reverted = static_cast<int>(
        std::count_if(raw.begin(), raw.end(), [](auto* d) { return d->reverted_to_a(); }));
    return m;
  };
  using Entries = std::vector<ScheduledFaults::Entry>;
  // Crashes landing in work rounds AND mid-agreement-broadcast (5's view
  // reaches 0-4 only, so 6-11 merge naively and finish phase 1 a round
  // after 0-4, whose phase-2 views then reach them during their work).
  const Entries cut = {
      {2, 3, CrashPlan{false, 0}},
      {5, 9, CrashPlan{true, 5}},
      {7, 11, CrashPlan{true, 2}},
  };
  Entries majority;  // 7 of 12 die in phase 1: the survivors revert to A
  for (int p = 0; p < 7; ++p) majority.push_back({p, 2, CrashPlan{true, 0}});
  struct Case {
    std::string name;
    std::function<std::unique_ptr<FaultInjector>()> make;
  };
  std::vector<Case> cases = {
      {"cut", [&] { return std::make_unique<ScheduledFaults>(cut); }},
      {"majority", [&] { return std::make_unique<ScheduledFaults>(majority); }},
      {"network cut",
       [&] { return std::make_unique<NetworkPathFaults>(std::make_unique<ScheduledFaults>(cut)); }},
  };
  for (unsigned seed = 0; seed < 8; ++seed) {
    cases.push_back({"random " + std::to_string(seed),
                     [seed] { return std::make_unique<RandomFaults>(0.05, 11, seed); }});
  }
  for (const Case& c : cases) {
    int reverted_with = 0, reverted_without = 0;
    const RunMetrics with = run_with(true, c.make(), reverted_with);
    const RunMetrics without = run_with(false, c.make(), reverted_without);
    ASSERT_TRUE(without.all_retired) << c.name;
    EXPECT_EQ(substrate::compare_metrics(without, with), "") << c.name;
    EXPECT_EQ(reverted_with, reverted_without) << c.name;
    if (c.name == "majority") {
      EXPECT_EQ(reverted_with, 5);
    }
  }
}

// Crashes nothing; collects, per round, the distinct views (AgreeMsg::s_left)
// of the agreement broadcasts it inspects, as (base object, range).  Holding
// the bases keeps one object's address from being reused by another within
// the run.
using ViewSet = std::set<std::tuple<SharedBits, std::size_t, std::size_t>>;

class ViewCensus final : public FaultInjector {
 public:
  explicit ViewCensus(std::map<Round, ViewSet>& by_round) : by_round_(by_round) {}
  std::optional<CrashPlan> inspect(int, const Round& round, const Action& action,
                                   const SimSnapshot&) override {
    for (const Outgoing& o : action.sends)
      if (const auto* m = detail::payload_as<AgreeMsg>(o.payload.get()))
        by_round_[round].insert({m->s_left.base, m->s_left.lo, m->s_left.hi});
    return std::nullopt;
  }

 private:
  std::map<Round, ViewSet>& by_round_;
};

// Views are shared, not copied: every process starts from the run's one
// initial S and drops its slice as a range, so iteration 0 carries one base
// with one range per process; after one iteration every survivor holds the
// fold's s_and, so every later broadcast of the phase carries that one view.
TEST(ProtocolD, AgreementBroadcastsShareOneBaseFromIterationZero) {
  const DoAllConfig cfg{16 * 256, 256};
  std::map<Round, ViewSet> views;
  RunResult r = run_do_all("D", cfg, std::make_unique<ViewCensus>(views));
  ASSERT_TRUE(r.ok()) << r.violation;
  // Failure-free: iteration 0, then everyone's done broadcast.
  ASSERT_EQ(views.size(), 2u);
  std::set<SharedBits> bases;
  std::set<std::pair<std::size_t, std::size_t>> ranges;
  for (const auto& [base, lo, hi] : views.begin()->second) {
    bases.insert(base);
    ranges.insert({lo, hi});
  }
  EXPECT_EQ(bases.size(), 1u);
  EXPECT_EQ(ranges.size(), 256u);
  EXPECT_FALSE(ranges.contains({0, 0}));  // every process had a 16-unit slice
  ASSERT_EQ(views.rbegin()->second.size(), 1u);
  const auto& [done_base, done_lo, done_hi] = *views.rbegin()->second.begin();
  EXPECT_EQ(done_lo, done_hi);  // the fold's s_and: a base of its own
  EXPECT_FALSE(bases.contains(done_base));
}

TEST_P(ProtocolDRandom, RandomSchedulesAlwaysComplete) {
  DoAllConfig cfg{120, 12};
  RunResult r = run_do_all("D", cfg, std::make_unique<RandomFaults>(0.05, 11, GetParam()));
  ASSERT_TRUE(r.ok()) << r.violation;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolDRandom, ::testing::Range(0u, 25u));

// --- AgreeRoundFold vs the naive merge on hand-built ledgers ---------------
//
// Twin D processes -- one reading a shared AgreeRoundFold, one built with a
// null fold, which merges every round naively -- step through the same
// ledgers in lockstep.  Each round's ledger is the folded twins' sends of
// the previous round (so a folded recipient's own record aliases its S, as
// in a real run), edited by the scenario (cut, re-addressed, duplicated,
// extra or lost records, crashes), and every step's action and observable
// state must match between the twins.

std::string bit_string(const DynBitset& b) {
  std::string s;
  for (std::size_t i = 0; i < b.size(); ++i) s += b.test(i) ? '1' : '0';
  return s;
}

// An action as comparable text: work, sends (kind, audience, the view
// payload's contents), terminate.
std::string show(const Action& a) {
  std::ostringstream os;
  if (a.work) os << "work " << *a.work << ';';
  for (const Outgoing& o : a.sends) {
    os << "send " << to_string(o.kind) << " to";
    o.to.for_each_prefix(o.to.size(), [&](int id) { os << ' ' << id; });
    if (const auto* m = detail::payload_as<AgreeMsg>(o.payload.get())) {
      os << " phase " << m->phase << " done " << m->done << " S "
         << bit_string(m->s_left.materialize()) << " T " << bit_string(m->t_alive);
    } else {
      const Payload& p = *o.payload;
      os << ' ' << typeid(p).name();
    }
    os << ';';
  }
  if (a.terminate) os << "terminate";
  return os.str();
}

DynBitset bits_of(std::size_t size, std::initializer_list<int> ids) {
  DynBitset b(size);
  for (int i : ids) b.set(static_cast<std::size_t>(i));
  return b;
}

DeliveryRecord agree_record(int from, std::initializer_list<int> to, int phase, DynBitset s,
                            DynBitset t, bool done) {
  const std::size_t width = t.size();
  DeliveryRecord rec;
  rec.from = from;
  rec.kind = MsgKind::kAgreement;
  rec.to = make_recipient_bits(bits_of(width, to));
  rec.cut = rec.to.size();
  rec.payload = std::make_shared<AgreeMsg>(phase, std::make_shared<const DynBitset>(std::move(s)),
                                           std::move(t), done);
  return rec;
}

class FoldTwins {
 public:
  // Edits round r's ledger before delivery; may mark processes crashed (a
  // crashed process is never stepped again).
  using Edit = std::function<void(const Round& r, std::vector<DeliveryRecord>& ledger,
                                  std::vector<char>& crashed)>;

  // With `envelope_inbox`, the folded twins read their mail as materialized
  // envelopes (no ledger to fold) instead of a ledger view.
  explicit FoldTwins(const DoAllConfig& cfg, bool envelope_inbox = false)
      : cfg_(cfg), envelope_inbox_(envelope_inbox), fold_(std::make_shared<AgreeRoundFold>(cfg)),
        wake_(static_cast<std::size_t>(cfg.t), Round{0u}),
        crashed_(static_cast<std::size_t>(cfg.t), 0),
        retired_(static_cast<std::size_t>(cfg.t), 0) {
    for (int i = 0; i < cfg.t; ++i) {
      folded_.push_back(std::make_unique<ProtocolDProcess>(cfg, i, fold_));
      naive_.push_back(std::make_unique<ProtocolDProcess>(cfg, i));
    }
  }

  AgreeRoundFold& fold() { return *fold_; }
  const ProtocolDProcess& naive(int p) const { return *naive_[static_cast<std::size_t>(p)]; }
  // The phase process p is in (1-based).
  int phase(int p) const { return naive(p).phases_completed() + 1; }
  bool retired(int p) const { return retired_[static_cast<std::size_t>(p)] != 0; }

  // Steps every live process that has mail or is due, round by round, until
  // every process has crashed or retired.
  void run(const Edit& edit = {}) {
    std::vector<DeliveryRecord> ledger, next;
    Round sent{0u};
    for (std::uint64_t step = 0;; ++step) {
      ASSERT_LT(step, 10'000u) << "twins did not retire";
      const Round r{step};
      if (edit) edit(r, ledger, crashed_);
      next.clear();
      bool live = false;
      for (int p = 0; p < cfg_.t; ++p) {
        const std::size_t sp = static_cast<std::size_t>(p);
        if (crashed_[sp] || retired_[sp]) continue;
        live = true;
        bool mail = false;
        for (const DeliveryRecord& rec : ledger) mail |= rec.delivers_to(p);
        if (!mail && wake_[sp] > r) continue;
        const InboxView inbox(ledger, sent, p, mail);
        std::vector<Envelope> envelopes;
        if (envelope_inbox_)
          for (const DeliveryRecord& rec : ledger)
            if (rec.delivers_to(p))
              envelopes.push_back(Envelope{rec.from, p, rec.kind, sent, rec.payload});
        const RoundContext ctx{r, p};
        const Action fa = envelope_inbox_ ? folded_[sp]->on_round(ctx, InboxView(envelopes))
                                          : folded_[sp]->on_round(ctx, inbox);
        const Action na = naive_[sp]->on_round(ctx, inbox);
        const std::string where = "proc " + std::to_string(p) + " round " + r.to_string();
        EXPECT_EQ(show(fa), show(na)) << where;
        EXPECT_EQ(folded_[sp]->describe(), naive_[sp]->describe()) << where;
        EXPECT_EQ(folded_[sp]->known_done_units(), naive_[sp]->known_done_units()) << where;
        EXPECT_EQ(folded_[sp]->reverted_to_a(), naive_[sp]->reverted_to_a()) << where;
        wake_[sp] = naive_[sp]->next_wake(r + Round{1u});
        EXPECT_EQ(folded_[sp]->next_wake(r + Round{1u}), wake_[sp]) << where;
        for (const Outgoing& o : fa.sends)
          next.push_back(DeliveryRecord{p, o.kind, o.to.size(), o.to, o.payload});
        if (na.terminate) retired_[sp] = 1;
      }
      if (!live) return;
      ledger.swap(next);
      sent = r;
    }
  }

 private:
  DoAllConfig cfg_;
  bool envelope_inbox_;
  std::shared_ptr<AgreeRoundFold> fold_;
  std::vector<std::unique_ptr<ProtocolDProcess>> folded_, naive_;
  std::vector<Round> wake_;
  std::vector<char> crashed_, retired_;
};

// The shape every scenario starts from: 6 processes, 2-unit slices, so
// rounds 0-1 are work, round 2 sends the iteration-0 views and round 3 is
// the first agreement receive.
constexpr DoAllConfig kTwinCfg{12, 6};

TEST(ProtocolDFold, WholeRoundSharesOneViewAcrossRecipients) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r == Round{1u}) crashed[5] = 1;  // dies mid-slice: phase 2 redoes it
    if (r != Round{3u}) return;
    const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 0, 1);
    ASSERT_NE(v, nullptr);
    for (int p = 1; p < 5; ++p) EXPECT_EQ(tw.fold().view(r, ledger, p, 1), v) << p;
    EXPECT_EQ(v->senders, bits_of(6, {0, 1, 2, 3, 4}));
    probed = true;
  });
  EXPECT_TRUE(probed);
  for (int p = 0; p < 5; ++p) {
    EXPECT_TRUE(tw.retired(p)) << p;
    EXPECT_EQ(tw.phase(p), 2) << p;  // retired in the phase that redid 5's slice
  }
}

TEST(ProtocolDFold, CrashCutPrefixSendsUnreachedRecipientsNaive) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r != Round{3u}) return;
    // Process 5 dies mid-way through its iteration-0 broadcast, reaching
    // only recipients 0 and 1.
    for (DeliveryRecord& rec : ledger)
      if (rec.from == 5) rec.cut = 2;
    crashed[5] = 1;
    // 0 and 1 share the whole-phase view; 2-4 merge naively.
    const AgreeRoundFold::View* whole = tw.fold().view(r, ledger, 0, 1);
    ASSERT_NE(whole, nullptr);
    EXPECT_EQ(tw.fold().view(r, ledger, 1, 1), whole);
    EXPECT_EQ(whole->senders, bits_of(6, {0, 1, 2, 3, 4, 5}));
    for (int p : {2, 3, 4}) EXPECT_EQ(tw.fold().view(r, ledger, p, 1), nullptr) << p;
    probed = true;
  });
  EXPECT_TRUE(probed);
}

TEST(ProtocolDFold, AudienceExcludingALiveRecipient) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>&) {
    if (r != Round{3u}) return;
    // Process 1's view skips live recipient 4, which merges naively and
    // counts 1 silent.
    for (DeliveryRecord& rec : ledger) {
      if (rec.from != 1) continue;
      rec.to = make_recipient_bits(bits_of(6, {0, 2, 3, 5}));
      rec.cut = rec.to.size();
    }
    EXPECT_EQ(tw.fold().view(r, ledger, 4, 1), nullptr);
    const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 0, 1);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->senders, bits_of(6, {0, 1, 2, 3, 4, 5}));
    probed = true;
  });
  EXPECT_TRUE(probed);
}

TEST(ProtocolDFold, EarlyArrivalsRetainedFromWorkPhase) {
  FoldTwins tw(kTwinCfg);
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r != Round{1u}) return;
    // Process 5 dies in the work phase, but a phase-1 view of its reaches
    // process 0 while 0 is still working: 0 merges it at its first
    // agreement receive (the naive path) and never counts 5 silent.
    crashed[5] = 1;
    ledger.push_back(agree_record(5, {0}, 1, DynBitset(12, true), bits_of(6, {5}), false));
  });
  EXPECT_TRUE(tw.retired(0));
}

TEST(ProtocolDFold, MixedPhasesFromDoneAdoptionSkew) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r == Round{1u}) crashed[5] = 1;
    if (r == Round{3u}) {
      // A done view reaches 0-2 only: they adopt it and start phase 2 a
      // round before 3 and 4.
      ledger.push_back(
          agree_record(5, {0, 1, 2}, 1, bits_of(12, {10, 11}), bits_of(6, {0, 1, 2, 3, 4}), true));
    }
    if (r == Round{4u}) {
      // 3 and 4 still receive phase-1 views; a phase-2 view rides along
      // (an early arrival for 0-2, ignored by the phase-1 fold).
      ledger.push_back(agree_record(5, {0, 1, 2, 3, 4}, 2, bits_of(12, {10, 11}),
                                    bits_of(6, {0, 1, 2, 3, 4}), false));
      EXPECT_EQ(tw.phase(0), 2);
      EXPECT_EQ(tw.phase(3), 1);
      EXPECT_TRUE(tw.fold().has_phase(r, ledger, 1));
      EXPECT_TRUE(tw.fold().has_phase(r, ledger, 2));
      const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 3, 1);
      ASSERT_NE(v, nullptr);
      EXPECT_EQ(v->done, bits_of(6, {0, 1, 2}));
      probed = true;
    }
  });
  EXPECT_TRUE(probed);
}

TEST(ProtocolDFold, DuplicateSenderFallsBackToNaive) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>&) {
    if (r != Round{3u}) return;
    // A second phase-1 view from process 2; the naive loop keeps the last
    // one delivered, so the fold declines the phase.
    ledger.push_back(agree_record(2, {0, 1, 3, 4, 5}, 1, bits_of(12, {0}), bits_of(6, {2}), false));
    EXPECT_EQ(tw.fold().view(r, ledger, 0, 1), nullptr);
    probed = true;
  });
  EXPECT_TRUE(probed);
}

TEST(ProtocolDFold, RevertToATraffic) {
  FoldTwins tw(kTwinCfg);
  int a_only_rounds = 0;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r == Round{1u})
      for (int p : {2, 3, 4, 5}) crashed[static_cast<std::size_t>(p)] = 1;  // > half die
    if (!ledger.empty() && !tw.fold().has_phase(r, ledger, tw.phase(0))) ++a_only_rounds;
  });
  EXPECT_TRUE(tw.naive(0).reverted_to_a());
  EXPECT_TRUE(tw.naive(1).reverted_to_a());
  EXPECT_GT(a_only_rounds, 0);
  EXPECT_TRUE(tw.retired(0));
  EXPECT_TRUE(tw.retired(1));
}

TEST(ProtocolDFold, EmptyLedgerCountsEveryoneSilent) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>&) {
    if (r != Round{3u}) return;
    ledger.clear();  // every iteration-0 view is lost: no phase to fold
    EXPECT_FALSE(tw.fold().has_phase(r, ledger, 1));
    EXPECT_EQ(tw.fold().view(r, ledger, 0, 1), nullptr);
    probed = true;
  });
  EXPECT_TRUE(probed);
  for (int p = 0; p < 6; ++p) EXPECT_TRUE(tw.naive(p).reverted_to_a() || tw.retired(p)) << p;
}

TEST(ProtocolDFold, RecordsAliasingOneViewHandItOut) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r == Round{1u}) crashed[5] = 1;
    if (r != Round{4u}) return;
    // Round 3 dropped silent 5, so 0-4 broadcast again, each aliasing the
    // S it took from round 3's View: one object, handed out as is.
    const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 0, 1);
    ASSERT_NE(v, nullptr);
    for (int p = 0; p < 5; ++p)
      EXPECT_EQ(v->by_sender[static_cast<std::size_t>(p)]->s_left, v->s_and) << p;
    probed = true;
  });
  EXPECT_TRUE(probed);
}

// A recipient the View covers ANDs s_and into its own S unless its own
// record is in the View holding that very S; taking s_and whole would drop
// what only it knows (its own slice).
TEST(ProtocolDFold, InMaskRecipientWithoutItsOwnRecordAnds) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>&) {
    if (r != Round{3u}) return;
    // Process 4 sent no iteration-0 view (as when its audience is empty),
    // yet hears everyone else's.
    std::erase_if(ledger, [](const DeliveryRecord& rec) { return rec.from == 4; });
    const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 4, 1);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->by_sender[4], nullptr);
    EXPECT_TRUE(v->s_and.materialize().test(8));  // 4's slice (units 9, 10) is outstanding in s_and
    probed = true;
  });
  EXPECT_TRUE(probed);
}

TEST(ProtocolDFold, InMaskRecipientWhoseOwnRecordIsAnotherObjectAnds) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>&) {
    if (r != Round{3u}) return;
    // Process 4's record reaches everyone it did, but carries a full S in
    // place of the S process 4 holds.
    for (DeliveryRecord& rec : ledger) {
      if (rec.from != 4) continue;
      const auto* m = detail::payload_as<AgreeMsg>(rec.payload.get());
      rec.payload = std::make_shared<AgreeMsg>(m->phase, std::make_shared<const DynBitset>(12, true),
                                               m->t_alive, m->done);
    }
    const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 4, 1);
    ASSERT_NE(v, nullptr);
    ASSERT_NE(v->by_sender[4], nullptr);
    EXPECT_TRUE(v->s_and.materialize().test(8));
    probed = true;
  });
  EXPECT_TRUE(probed);
}

// Same base, different range is a different view: process 4's record keeps
// its base but drops its range, so it no longer is the view 4 holds, and 4
// must AND s_and (which counts 4's slice outstanding) into its own S rather
// than take it by pointer.
TEST(ProtocolDFold, OwnRecordOnTheSameBaseWithAnotherRangeAnds) {
  FoldTwins tw(kTwinCfg);
  bool probed = false;
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>&) {
    if (r != Round{3u}) return;
    for (DeliveryRecord& rec : ledger) {
      if (rec.from != 4) continue;
      const auto* m = detail::payload_as<AgreeMsg>(rec.payload.get());
      ASSERT_TRUE(m->s_left.ranged());
      rec.payload = std::make_shared<AgreeMsg>(m->phase, SView(m->s_left.base), m->t_alive,
                                               m->done);
    }
    const AgreeRoundFold::View* v = tw.fold().view(r, ledger, 4, 1);
    ASSERT_NE(v, nullptr);
    ASSERT_NE(v->by_sender[4], nullptr);
    EXPECT_TRUE(v->s_and.materialize().test(8));
    probed = true;
  });
  EXPECT_TRUE(probed);
}

// Slices that are empty (fewer units than processes), cross a word
// boundary or end in the ragged tail word, folded and merged naively
// through whole runs, with and without a crash.
TEST(ProtocolDFold, EmptyAndWordStraddlingSlicesMatchNaive) {
  for (const DoAllConfig cfg : {DoAllConfig{4, 6}, DoAllConfig{130, 2}, DoAllConfig{200, 3}}) {
    for (bool crash : {false, true}) {
      FoldTwins tw(cfg);
      tw.run([&](const Round& r, std::vector<DeliveryRecord>&, std::vector<char>& crashed) {
        if (crash && r == Round{1u}) crashed[0] = 1;
      });
      for (int p = crash ? 1 : 0; p < cfg.t; ++p)
        EXPECT_TRUE(tw.retired(p)) << cfg.to_string() << " crash " << crash << " proc " << p;
    }
  }
}

// --- AgreeRoundFold on hand-built views: base + range ---------------------

constexpr std::size_t kViewBits = 200;  // four words, the last ragged

// A pattern with both set and clear bits in every word.
SharedBits patterned_base(unsigned seed) {
  std::mt19937 rng(seed);
  DynBitset b(kViewBits);
  for (std::size_t i = 0; i < kViewBits; ++i)
    if (rng() % 4 != 0) b.set(i);
  return std::make_shared<const DynBitset>(std::move(b));
}

DeliveryRecord view_record(int from, int t, SView s) {
  DeliveryRecord rec;
  rec.from = from;
  rec.kind = MsgKind::kAgreement;
  rec.to = make_recipient_bits(DynBitset(static_cast<std::size_t>(t), true));
  rec.cut = rec.to.size();
  rec.payload = std::make_shared<AgreeMsg>(1, std::move(s), DynBitset(static_cast<std::size_t>(t)),
                                           false);
  return rec;
}

// The naive AND of the records' materialized views.
DynBitset naive_and(const std::vector<DeliveryRecord>& ledger) {
  DynBitset out(kViewBits, true);
  for (const DeliveryRecord& rec : ledger)
    out &= detail::payload_as<AgreeMsg>(rec.payload.get())->s_left.materialize();
  return out;
}

TEST(ProtocolDFold, SharedBaseRangesFoldToTheNaiveAnd) {
  const SharedBits base = patterned_base(1);
  const SharedBits other = patterned_base(2);
  // Empty, inside one word, across a word boundary, across several words,
  // into the ragged tail, and the whole set; another base in the middle.
  const std::vector<SView> views = {
      SView(base, 3, 3),     SView(base, 5, 9),     SView(base, 60, 70), SView(other, 10, 20),
      SView(base, 70, 140),  SView(base, 190, 200), SView(base, 0, 200), SView(base),
  };
  for (std::size_t k = 1; k <= views.size(); ++k) {
    std::vector<DeliveryRecord> ledger;
    for (std::size_t i = 0; i < k; ++i)
      ledger.push_back(view_record(static_cast<int>(i), static_cast<int>(views.size()), views[i]));
    AgreeRoundFold fold(DoAllConfig{static_cast<std::int64_t>(kViewBits),
                                    static_cast<int>(views.size())});
    const AgreeRoundFold::View* v = fold.view(Round{1u}, ledger, 0, 1);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(v->s_and.materialize(), naive_and(ledger)) << k;
    if (k == 1) {
      EXPECT_EQ(v->s_and, views[0]);  // one record: its view, shared
    }
  }
}

// Consecutive records on one base with different ranges are different
// views: each range comes off s_and.  Skipping a record whose base alone
// matches the previous record's would keep the later slices outstanding.
TEST(ProtocolDFold, ConsecutiveRecordsOnOneBaseApplyEveryRange) {
  const SharedBits base = patterned_base(3);
  const int t = 4;
  std::vector<DeliveryRecord> ledger;
  ledger.push_back(view_record(0, t, SView(base, 0, 50)));
  ledger.push_back(view_record(1, t, SView(base, 50, 100)));
  ledger.push_back(view_record(2, t, SView(base, 100, 150)));
  ledger.push_back(view_record(3, t, SView(base, 100, 150)));  // the previous view again
  AgreeRoundFold fold(DoAllConfig{static_cast<std::int64_t>(kViewBits), t});
  const AgreeRoundFold::View* v = fold.view(Round{1u}, ledger, 0, 1);
  ASSERT_NE(v, nullptr);
  const DynBitset got = v->s_and.materialize();
  EXPECT_EQ(got, naive_and(ledger));
  for (std::size_t i = 0; i < kViewBits; ++i)
    EXPECT_EQ(got.test(i), i >= 150 && base->test(i)) << i;
}

// SView's accessors agree with its materialized bits for ranges
// at every offset around word boundaries and the ragged tail.
TEST(ProtocolDFold, RangedViewAccessorsMatchTheMaterializedSet) {
  const SharedBits base = patterned_base(4);
  const std::vector<std::size_t> edges = {0, 1, 62, 63, 64, 65, 127, 128, 129, 191, 192, 199, 200};
  for (std::size_t lo : edges) {
    for (std::size_t hi : edges) {
      const SView v(base, lo, hi);
      const DynBitset m = v.materialize();
      const std::string where = std::to_string(lo) + ".." + std::to_string(hi);
      EXPECT_EQ(v.ranged(), lo < hi) << where;
      for (std::size_t i = 0; i < m.word_count(); ++i) EXPECT_EQ(v.word(i), m.word(i)) << where;
      for (std::size_t i = 0; i < kViewBits; ++i) {
        ASSERT_EQ(m.test(i), !(lo <= i && i < hi) && base->test(i)) << where << " bit " << i;
      }
      DynBitset anded = *patterned_base(5);
      v.and_into(anded);
      DynBitset want = *patterned_base(5);
      want &= m;
      EXPECT_EQ(anded, want) << where;
    }
  }
}

TEST(ProtocolDFold, EnvelopeInboxMergesNaively) {
  // The folded twins read envelopes (no ledger), so every merge is naive;
  // crashes and a cut broadcast make the views differ across recipients.
  FoldTwins tw(kTwinCfg, /*envelope_inbox=*/true);
  tw.run([&](const Round& r, std::vector<DeliveryRecord>& ledger, std::vector<char>& crashed) {
    if (r == Round{1u}) crashed[5] = 1;
    if (r != Round{3u}) return;
    for (DeliveryRecord& rec : ledger)
      if (rec.from == 3) rec.cut = 1;
    crashed[3] = 1;
  });
  for (int p : {0, 1, 2, 4}) EXPECT_TRUE(tw.retired(p)) << p;
}

// Shared fold vs null fold, metric for metric, on every executor that runs
// D's processes in one address space: the serial simulator, RoundPool
// shards and the live thread substrate, under scripted and adaptive
// crashes.
TEST(ProtocolDParallel, SharedFoldMatchesNullFoldOnEveryExecutor) {
  const ProtocolInfo& shared = find_protocol("D");
  ProtocolInfo null_fold = shared;
  null_fold.make_procs = {};  // make_proc builds D without a fold
  for (int t : {64, 256}) {
    const DoAllConfig cfg{4 * t, t};
    const std::vector<harness::FaultSpec> specs = {
        harness::FaultSpec::scheduled({{1, 2, CrashPlan{false, 0}},
                                       {5, 5, CrashPlan{true, static_cast<std::size_t>(t / 2)}},
                                       {9, 6, CrashPlan{true, 3}}}),
        harness::FaultSpec::adaptive("splitter", 6, 1),
        harness::FaultSpec::adaptive("greedy", 6, 1),
    };
    for (const harness::FaultSpec& spec : specs) {
      auto sim_run = [&](const ProtocolInfo& info, int threads) {
        Simulator::Options so;
        so.strict_one_op = true;
        so.n_units = cfg.n;
        Simulator sim(make_processes(info, cfg), spec.make(), so);
        RoundPool pool(threads, 1);
        if (threads > 1) sim.set_step_executor(&pool);
        return sim.run();
      };
      const std::string where = "t=" + std::to_string(t) + " " + spec.to_string();
      const RunMetrics oracle = sim_run(null_fold, 1);
      ASSERT_TRUE(oracle.all_retired) << where;
      EXPECT_EQ(substrate::compare_metrics(oracle, sim_run(shared, 1)), "") << where;
      EXPECT_EQ(substrate::compare_metrics(oracle, sim_run(shared, 4)), "") << where;
      for (const ProtocolInfo* info : {&shared, static_cast<const ProtocolInfo*>(&null_fold)}) {
        const substrate::LiveRunResult live =
            substrate::run_live_do_all(*info, cfg, spec.make(), RunOptions{}, substrate::LiveOptions{});
        EXPECT_EQ(substrate::compare_metrics(oracle, live.run.metrics), "")
            << where << (info == &shared ? " live shared" : " live null");
      }
    }
  }
}

// End to end: the fold under a genuinely sharded simulator round must stay
// observably invisible -- folded + sharded vs naive + serial, identical
// metrics -- including the mid-broadcast cuts that send recipients naive.
TEST(ProtocolDParallel, RoundFoldInvisibleUnderShardedRounds) {
  const DoAllConfig cfg{96, 12};
  auto faults = [] {
    return std::make_unique<ScheduledFaults>(std::vector<ScheduledFaults::Entry>{
        {2, 3, CrashPlan{false, 0}},
        {5, 9, CrashPlan{true, 5}},
        {7, 11, CrashPlan{true, 2}},
    });
  };
  auto run_with = [&](bool folded, int threads) {
    auto fold = folded ? std::make_shared<AgreeRoundFold>(cfg) : nullptr;
    std::vector<std::unique_ptr<IProcess>> procs;
    for (int i = 0; i < cfg.t; ++i)
      procs.push_back(std::make_unique<ProtocolDProcess>(cfg, i, fold));
    Simulator::Options opts;
    opts.strict_one_op = true;
    opts.n_units = cfg.n;
    Simulator sim(std::move(procs), faults(), opts);
    // min_steps_per_shard = 1 so even t = 12 rounds genuinely shard.
    RoundPool pool(threads, 1);
    if (threads > 1) sim.set_step_executor(&pool);
    return sim.run();
  };
  const RunMetrics naive_serial = run_with(false, 1);
  for (int threads : {2, 4}) {
    const RunMetrics folded_sharded = run_with(true, threads);
    EXPECT_EQ(folded_sharded.work_total, naive_serial.work_total) << threads;
    EXPECT_EQ(folded_sharded.messages_total, naive_serial.messages_total) << threads;
    EXPECT_EQ(folded_sharded.last_retire_round, naive_serial.last_retire_round) << threads;
    EXPECT_EQ(folded_sharded.stepped_rounds, naive_serial.stepped_rounds) << threads;
    EXPECT_EQ(folded_sharded.crashes, naive_serial.crashes) << threads;
    EXPECT_EQ(folded_sharded.unit_multiplicity, naive_serial.unit_multiplicity) << threads;
    EXPECT_EQ(folded_sharded.work_by_proc, naive_serial.work_by_proc) << threads;
    EXPECT_EQ(folded_sharded.messages_by_proc, naive_serial.messages_by_proc) << threads;
    EXPECT_EQ(folded_sharded.messages_by_kind, naive_serial.messages_by_kind) << threads;
  }
}

}  // namespace
}  // namespace dowork
