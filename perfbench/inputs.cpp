#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/work.h"
#include "util/rng.h"

namespace perfbench {

using dowork::Rng;
using dowork::ScheduledFaults;
using dowork::harness::FaultSpec;

namespace {

// One independent stream per (seed, case class), so a class draws the same
// schedule in every workload that uses it (d_agreement's D case equals
// sharded_rounds' D case for the same seed).
Rng stream(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the tag
  for (char c : tag) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return Rng(seed * 0x9E3779B97F4A7C15ULL ^ h);
}

// Protocol D under f = min(16, t/2 - 1) scheduled crashes, all inside the
// first work phase: distinct random victims, each dying at a random unit
// in the middle (45-55%) of its slice.  Keeping every crash before the
// first agreement fixes the number of agreement rounds (the cost that
// dominates D at large t), and the narrow window fixes how many steps the
// victims still take (the cost that dominates at t = 4), so seeds move the
// schedule, not the shape.
Case agreement_case(std::uint64_t seed, std::int64_t n, int t, const std::string& tag) {
  const int f = std::min(16, t / 2 - 1);
  Rng rng = stream(seed, tag);
  std::vector<int> ids(static_cast<std::size_t>(t));
  std::iota(ids.begin(), ids.end(), 0);
  rng.shuffle(ids);
  ids.resize(static_cast<std::size_t>(f));
  std::sort(ids.begin(), ids.end());
  const auto slice = static_cast<std::uint64_t>(dowork::ceil_div(n, t));
  const std::uint64_t lo = std::max<std::uint64_t>(1, slice * 45 / 100);
  const std::uint64_t hi = std::max(lo, slice * 55 / 100);
  std::vector<ScheduledFaults::Entry> entries;
  for (int id : ids) {
    ScheduledFaults::Entry e;
    e.proc = id;
    e.on_nth_action = rng.uniform(lo, hi);
    e.plan.work_completes = rng.chance(0.5);
    e.plan.deliver_prefix = 0;
    entries.push_back(e);
  }
  return Case{"D/t=" + std::to_string(t), "D", n, t, f, FaultSpec::scheduled(std::move(entries))};
}

// Protocols A/B under a takeover cascade: the active process dies every U
// units, U drawn from [lo, hi], with a random broadcast prefix escaping and
// the unit in progress completing or not.
Case takeover_case(std::uint64_t seed, const std::string& proto, std::int64_t n, int t,
                   std::uint64_t lo, std::uint64_t hi, int budget) {
  Rng rng = stream(seed, proto + "/takeover");
  const std::uint64_t units = rng.uniform(lo, hi);
  const std::size_t prefix = static_cast<std::size_t>(rng.uniform(0, 2));
  const bool completes = rng.chance(0.5);
  return Case{proto + "/t=" + std::to_string(t), proto, n, t, budget,
              FaultSpec::cascade(units, budget, prefix, completes)};
}

// U within 1/16 of the chunk length that drives the paper's worst case;
// the number of takeovers (~n/U) moves smoothly with it.
Case sequential_case(std::uint64_t seed, const std::string& proto, int t) {
  const std::int64_t n = 16 * static_cast<std::int64_t>(t);
  const auto chunk = static_cast<std::uint64_t>(dowork::ceil_div(n, dowork::int_sqrt_ceil(t)) + 1);
  return takeover_case(seed, proto, n, t, chunk - chunk / 16, chunk + chunk / 16, t - 1);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"d_agreement", "sequential_takeover",
                                                 "sharded_rounds", "socket_rounds"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny) {
  const int t_d = tiny ? 16 : 4096;
  const int t_ab = tiny ? 16 : 16384;
  Workload w;
  w.name = name;
  if (name == "d_agreement") {
    w.cases.push_back(agreement_case(seed, 16 * t_d, t_d, "D/agreement"));
  } else if (name == "sequential_takeover") {
    w.cases.push_back(sequential_case(seed, "A", t_ab));
    w.cases.push_back(sequential_case(seed, "B", t_ab));
  } else if (name == "sharded_rounds") {
    // Only D: B's ~4.6e4 tiny sharded rounds each wait at the pool's
    // barrier, and with host load its run time swung 3x (2.4 to 7.5 s)
    // between passes, which no run length here averages out.
    w.path = Path::kPool;
    w.threads = 4;
    w.cases.push_back(agreement_case(seed, 16 * t_d, t_d, "D/agreement"));
  } else if (name == "socket_rounds") {
    // t = 4 worker processes: D tolerates f = t/2 - 1 = 1 crash, B up to
    // t - 1 = 3.  B's U stays above n/2: below it the cascade takes all
    // three crashes and ~1.7x the rounds, a different shape.
    w.path = Path::kSocket;
    const int t = 4;
    const std::int64_t n = tiny ? 256 : 65536;
    const auto half = static_cast<std::uint64_t>(n / 2);
    w.cases.push_back(agreement_case(seed, n, t, "D/socket"));
    w.cases.push_back(takeover_case(seed, "B", n, t, half + 1, half + half / 32, t - 1));
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
