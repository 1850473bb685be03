// perfbench_driver: the layered wall-clock benchmark of the dowork library.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--tiny] [--trace-out PATH]
//
// It links the library and drives each layer through its public functions
// (make_processes, Simulator::run, RoundPool, run_socket_do_all,
// verify_run, paper_bounds), timing them from outside.  The seed is turned
// into concrete crash schedules (FaultSpec values, printed so any run can
// be replayed) before anything is timed.  A *pass* is one run over the
// workload's cases; passes repeat until S seconds are measured (at least
// three; with S = 0 one, or one plain and one traced) and every timing is
// the median over passes.
//
// Every run is checked: verify_run, the paper bounds for its crash budget,
// and -- against the serial simulator on the same inputs, computed before
// timing on the RoundPool and socket paths, or against the first pass on
// the serial path -- every deterministic RunMetrics field.  A failed check
// is counted, does not stop the other runs, and makes the exit code 1.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 alternates plain
// and traced passes, reports the per-layer metrics from the traced ones
// plus the tracing overhead (traced minus plain run_s), and writes the
// first traced pass's per-round spans as Chrome trace-event JSON.
//
// The last stdout line is one JSON object:
//   {"correct": B, "attempted": N, "failed": F, "metrics": {NAME: {"value": V, "unit": U}}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/runner.h"
#include "core/verifier.h"
#include "harness/bounds.h"
#include "inputs.h"
#include "probes.h"
#include "sim/round_pool.h"
#include "sim/simulator.h"
#include "substrate/differential.h"
#include "substrate/socket_substrate.h"

namespace perfbench {
namespace {

using dowork::RunMetrics;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--trace-out PATH]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      }
      else if (k == "--tiny") a.tiny = true;
      else if (k == "--trace-out") a.trace_out = value();
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.seconds < 0) usage("--seconds must be >= 0");
  return a;
}

// --- resource accounting ------------------------------------------------------

struct Usage {
  double cpu_s = 0;           // user + sys
  double children_cpu_s = 0;  // of reaped children (the socket workers)
  long nvcsw = 0;             // voluntary context switches of this process
};

double tv_s(const timeval& tv) { return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6; }

Usage usage_now() {
  rusage self{}, kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  const double kids_cpu = tv_s(kids.ru_utime) + tv_s(kids.ru_stime);
  return Usage{tv_s(self.ru_utime) + tv_s(self.ru_stime) + kids_cpu, kids_cpu, self.ru_nvcsw};
}

// Peak RSS of this process image.  VmHWM, not ru_maxrss: Linux carries
// ru_maxrss across execve, so a driver started by a bigger parent (the
// Python wrapper) would report the parent's peak.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr)
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB
}

// Pins this process, and so the socket workers it forks, to the last CPU
// it may run on; returns that CPU, or -1 when the mask cannot be read or
// set.  Unpinned, a socket round costs 8 or 17 us depending on whether the
// OS placed the coordinator and the active worker on one CPU or two (a
// cross-CPU wakeup), and that placement changes from pass to pass, so run
// medians flipped between the two.  On one CPU a round costs the wire path
// and the context switches.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

// --- one case run ---------------------------------------------------------------

// Spans are kept for the first rounds of each case only: the sequential
// cases step ~10^5 rounds, far more than a trace viewer can show.
constexpr std::size_t kSpanRoundsPerCase = 4096;

struct CaseRun {
  double setup_s = 0;  // first layer call -> first round start
  double run_s = 0;    // first round start -> verified result
  double make_s = 0;   // make_processes (simulator paths only)
  double verify_s = 0;
  RunMetrics metrics;
  std::string failure;  // "" = verified and within the paper bounds
  RoundStamps stamps;
  EvalTotals eval;
  Usage used;  // resource use across the case run
};

// The paper bounds for the case's crash budget, on work, messages and the
// round by which everyone retired.
std::string check_bounds(const Case& c, const RunMetrics& m) {
  const auto bounds = dowork::harness::paper_bounds(c.protocol, c.n, c.t, c.crash_budget);
  for (const auto& [key, bound] : bounds) {
    const auto b = static_cast<std::uint64_t>(bound);
    std::uint64_t measured = 0;
    if (key.rfind("bound_work", 0) == 0) measured = m.work_total;
    else if (key.rfind("bound_msgs", 0) == 0) measured = m.messages_total;
    else if (key.rfind("bound_rounds", 0) == 0)
      measured = m.last_retire_round.fits_u64() ? m.last_retire_round.to_u64_saturating()
                                                : UINT64_MAX;
    else continue;
    if (measured > b)
      return key + "=" + std::to_string(bound) + " exceeded (" + std::to_string(measured) + ")";
  }
  return "";
}

std::string check_run(const Case& c, const RunMetrics& m, const std::string& violation) {
  if (!violation.empty()) return "verify_run: " + violation;
  const std::string b = check_bounds(c, m);
  return b.empty() ? "" : "paper_bounds: " + b;
}

CaseRun run_case(const Case& c, const Workload& w, bool traced, SpanLog* spans, int case_index) {
  const dowork::ProtocolInfo& info = dowork::find_protocol(c.protocol);
  const dowork::DoAllConfig cfg{c.n, c.t};
  CaseRun out;
  out.stamps.traced = traced;
  const Usage u0 = usage_now();
  Clock::time_point call, returned;
  std::unique_ptr<TimingExecutor> timing;  // traced simulator paths only

  if (w.path == Path::kSocket) {
    call = Clock::now();
    auto live = dowork::substrate::run_socket_do_all(
        info, cfg, std::make_unique<StampingInjector>(c.faults.make(0), &out.stamps));
    returned = Clock::now();
    out.metrics = std::move(live.run.metrics);
  } else {
    dowork::Simulator::Options so;
    so.strict_one_op = info.strict_one_op;
    so.n_units = cfg.n;
    call = Clock::now();
    auto procs = dowork::make_processes(info, cfg);
    out.make_s = seconds_between(call, Clock::now());
    dowork::Simulator sim(std::move(procs),
                          std::make_unique<StampingInjector>(c.faults.make(0), &out.stamps), so);
    std::unique_ptr<dowork::RoundPool> pool;
    if (w.path == Path::kPool)
      pool = std::make_unique<dowork::RoundPool>(w.threads, TimingExecutor::kMinStepsPerShard);
    if (traced) {
      const std::size_t keep = spans != nullptr ? kSpanRoundsPerCase : 0;
      timing = std::make_unique<TimingExecutor>(pool.get(), keep);
      sim.set_step_executor(timing.get());
    } else if (pool) {
      sim.set_step_executor(pool.get());
    }
    out.metrics = sim.run();
    returned = Clock::now();
  }
  const std::string violation = dowork::verify_run(info, cfg, out.metrics);
  const Clock::time_point run_end = Clock::now();
  out.verify_s = seconds_between(returned, run_end);
  out.failure = check_run(c, out.metrics, violation);
  if (timing) out.eval = timing->totals();
  if (spans != nullptr && out.stamps.first_start) {
    const std::int64_t id = spans->add(case_index, 0, -1, "case", 0, call, run_end, -1);
    spans->add(case_index, 0, -1, "setup", 0, call, *out.stamps.first_start, id);
    spans->add_rounds(case_index, id, out.stamps,
                      timing ? timing->kept_rounds() : std::vector<EvalRound>{}, run_end,
                      kSpanRoundsPerCase);
  }
  const Usage u1 = usage_now();
  out.used = Usage{u1.cpu_s - u0.cpu_s, u1.children_cpu_s - u0.children_cpu_s, u1.nvcsw - u0.nvcsw};
  if (!out.stamps.first_start) {
    if (out.failure.empty()) out.failure = "no round ever started";
    out.stamps.first_start = run_end;
  }
  out.setup_s = seconds_between(call, *out.stamps.first_start);
  out.run_s = seconds_between(*out.stamps.first_start, run_end);
  return out;
}

// --- passes ---------------------------------------------------------------------

struct Pass {
  bool traced = false;
  double setup_s = 0, run_s = 0, cpu_s = 0;
  std::map<std::string, double> layers;  // traced passes only
};

struct Metric {
  const char* name;
  const char* unit;
  const char* how = "measured";
};

// The per-layer metrics, in report order.  Metrics of a layer the workload
// never reaches read 0.
const std::vector<Metric>& layer_metrics() {
  static const std::vector<Metric> m = {
      {"protocols.eval_s", "s"},
      {"protocols.eval_us_per_step", "us"},
      {"sim.rounds", "count"},
      {"sim.steps", "count"},
      {"sim.records", "count"},
      {"sim.self_s", "s"},
      {"sim.inbox.exposed", "count", "computed: sum over rounds of steps(r) * records(r-1)"},
      {"sim.inbox.delivered_ratio", "ratio", "computed: messages_total / sim.inbox.exposed"},
      {"fault_injector.calls", "count"},
      {"fault_injector.self_s", "s", "sampled: every 16th inspect timed, scaled to all calls"},
      {"core.make_processes_s", "s"},
      {"core.verify_s", "s"},
      {"round_pool.sharded_rounds", "count"},
      {"round_pool.inline_rounds", "count"},
      {"round_pool.busy_frac", "ratio"},
      {"round_pool.wait_s", "s"},
      {"substrate.spawn_s", "s"},
      {"substrate.round_us_p50", "us"},
      {"substrate.round_us_p99", "us"},
      {"substrate.ctx_switches_per_round", "count", "voluntary switches of the coordinator"},
      {"substrate.worker_cpu_s", "s"},
      {"trace.overhead_s", "s", "traced run_s minus plain run_s"},
  };
  return m;
}

std::map<std::string, double> layer_values(const Workload& w, const std::vector<CaseRun>& runs) {
  std::map<std::string, double> v;
  for (const Metric& m : layer_metrics()) v[m.name] = 0;
  double messages = 0, injector_s = 0, round_wall = 0, sharded_wall = 0, busy = 0;
  std::vector<double> gaps_us;
  long nvcsw = 0;
  for (const CaseRun& r : runs) {
    const EvalTotals& e = r.eval;
    v["protocols.eval_s"] += e.eval_s;
    v["sim.rounds"] += static_cast<double>(r.metrics.stepped_rounds);
    v["sim.steps"] += static_cast<double>(e.steps);
    v["sim.records"] += static_cast<double>(e.records);
    v["sim.inbox.exposed"] += static_cast<double>(e.exposed);
    messages += static_cast<double>(r.metrics.messages_total);
    const RoundStamps& s = r.stamps;
    v["fault_injector.calls"] += static_cast<double>(s.inspect_calls);
    const double inj = s.sampled_calls == 0
                           ? 0
                           : s.sampled_s * static_cast<double>(s.inspect_calls) /
                                 static_cast<double>(s.sampled_calls);
    injector_s += inj;
    // Simulator self time: the rounds' wall time (first round start to
    // Simulator::run's return, i.e. run_s minus verification) minus
    // evaluation and injector time.  The socket path's executor is inside
    // the substrate, so its rounds cannot be split this way.
    if (w.path != Path::kSocket) round_wall += r.run_s - r.verify_s - e.eval_s - inj;
    v["core.make_processes_s"] += r.make_s;
    v["core.verify_s"] += r.verify_s;
    v["round_pool.sharded_rounds"] += static_cast<double>(e.sharded_rounds);
    v["round_pool.inline_rounds"] += static_cast<double>(e.inline_rounds);
    sharded_wall += e.sharded_wall_s;
    busy += e.busy_s;
    if (w.path == Path::kSocket) {
      v["substrate.spawn_s"] += r.setup_s;
      v["substrate.worker_cpu_s"] += r.used.children_cpu_s;
      nvcsw += r.used.nvcsw;
      for (std::size_t i = 1; i < s.starts.size(); ++i)
        gaps_us.push_back(seconds_between(s.starts[i - 1], s.starts[i]) * 1e6);
    }
  }
  v["fault_injector.self_s"] = injector_s;
  v["sim.self_s"] = std::max(0.0, round_wall);
  if (v["sim.steps"] > 0)
    v["protocols.eval_us_per_step"] = v["protocols.eval_s"] / v["sim.steps"] * 1e6;
  if (v["sim.inbox.exposed"] > 0)
    v["sim.inbox.delivered_ratio"] = messages / v["sim.inbox.exposed"];
  if (sharded_wall > 0) {
    const double capacity = sharded_wall * w.threads;
    v["round_pool.busy_frac"] = busy / capacity;
    v["round_pool.wait_s"] = std::max(0.0, capacity - busy);
  }
  if (w.path == Path::kSocket) {
    v["substrate.round_us_p50"] = percentile(gaps_us, 0.50);
    v["substrate.round_us_p99"] = percentile(gaps_us, 0.99);
    if (v["sim.rounds"] > 0)
      v["substrate.ctx_switches_per_round"] = static_cast<double>(nvcsw) / v["sim.rounds"];
  }
  return v;
}

void print_json_metric(bool& first, const std::string& name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
              value, unit);
  first = false;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              args.tiny ? " tiny" : "");
  if (w.path == Path::kSocket) std::printf("pinned to cpu %d (-1 = not pinned)\n", pin_to_one_cpu());
  for (const Case& c : w.cases)
    std::printf("case %s protocol=%s n=%lld t=%d crash_budget=%d faults=%s\n", c.label.c_str(),
                c.protocol.c_str(), static_cast<long long>(c.n), c.t, c.crash_budget,
                c.faults.to_string().c_str());
  std::fflush(stdout);

  std::uint64_t attempted = 0, failed = 0;
  auto fail = [&](const Case& c, const std::string& what) {
    ++failed;
    std::printf("FAILED case=%s %s\n", c.label.c_str(), what.c_str());
    std::fflush(stdout);
  };

  // The oracle: every deterministic RunMetrics field of the serial
  // simulator on the same inputs, computed before any timing.  On the
  // serial path the first pass's results take its place.
  std::vector<std::optional<RunMetrics>> oracle(w.cases.size());
  if (w.path != Path::kSerial) {
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      const Case& c = w.cases[i];
      const dowork::ProtocolInfo& info = dowork::find_protocol(c.protocol);
      auto r = dowork::run_do_all(info, dowork::DoAllConfig{c.n, c.t}, c.faults.make(0));
      ++attempted;
      const std::string bad = check_run(c, r.metrics, r.violation);
      if (!bad.empty()) fail(c, "oracle " + bad);
      oracle[i] = std::move(r.metrics);
    }
  }

  const auto origin = Clock::now();
  std::unique_ptr<SpanLog> spans;
  std::vector<Pass> passes;
  const std::size_t min_passes = args.seconds == 0 ? (args.trace ? 2 : 1) : 3;
  const double hard_stop_s = 150;  // keeps a run inside its time limit on a slow host
  double measured = 0;
  while (true) {
    Pass pass;
    pass.traced = args.trace && passes.size() % 2 == 1;
    SpanLog* log = nullptr;
    if (pass.traced && !spans) {
      spans = std::make_unique<SpanLog>(origin);
      for (const Case& c : w.cases) spans->add_case(c.label);
      log = spans.get();
    }
    const Usage u0 = usage_now();
    const auto t0 = Clock::now();
    std::vector<CaseRun> runs;
    std::string per_case;
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      const Case& c = w.cases[i];
      CaseRun r = run_case(c, w, pass.traced, log, static_cast<int>(i));
      ++attempted;
      std::string bad = r.failure;
      if (bad.empty()) {
        if (!oracle[i]) oracle[i] = r.metrics;
        const std::string diff = dowork::substrate::compare_metrics(*oracle[i], r.metrics);
        if (!diff.empty()) bad = "differs from the serial simulator: " + diff;
      }
      if (!bad.empty()) fail(c, bad);
      pass.setup_s += r.setup_s;
      pass.run_s += r.run_s;
      char buf[128];
      std::snprintf(buf, sizeof buf, " %s:%.6f+%.6f", c.label.c_str(), r.setup_s, r.run_s);
      per_case += buf;
      runs.push_back(std::move(r));
    }
    measured += seconds_between(t0, Clock::now());
    pass.cpu_s = usage_now().cpu_s - u0.cpu_s;
    if (pass.traced) pass.layers = layer_values(w, runs);
    std::printf("pass %zu traced=%d setup_s=%.6f run_s=%.6f cpu_s=%.6f cases(setup+run)=%s\n",
                passes.size(), pass.traced ? 1 : 0, pass.setup_s, pass.run_s, pass.cpu_s,
                per_case.c_str());
    std::fflush(stdout);
    passes.push_back(std::move(pass));
    const double per_pass = measured / static_cast<double>(passes.size());
    if (passes.size() >= min_passes && measured >= args.seconds) break;
    if (measured + per_pass > hard_stop_s) break;
  }

  std::vector<double> setup, run_s, cpu, traced_run;
  for (const Pass& p : passes) {
    if (p.traced) {
      traced_run.push_back(p.run_s);
      continue;
    }
    setup.push_back(p.setup_s);
    run_s.push_back(p.run_s);
    cpu.push_back(p.cpu_s);
  }
  const double failed_frac = static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("metric setup_s %.6f s (median of %zu passes)\n", median(setup), setup.size());
  std::printf("metric run_s %.6f s (median of %zu passes)\n", median(run_s), run_s.size());
  std::printf("metric cpu_s %.6f s (median of %zu passes)\n", median(cpu), cpu.size());
  std::printf("metric peak_rss_mb %.3f MB (this process)\n", peak_rss_mb());
  std::printf("metric failed_frac %g ratio (%llu of %llu runs)\n", failed_frac,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));

  std::map<std::string, double> layers;
  if (args.trace) {
    for (const Metric& m : layer_metrics()) {
      std::vector<double> vals;
      for (const Pass& p : passes)
        if (p.traced) vals.push_back(p.layers.at(m.name));
      layers[m.name] = median(vals);
    }
    layers["trace.overhead_s"] = median(traced_run) - median(run_s);
    for (const Metric& m : layer_metrics())
      std::printf("layer %s %.9g %s (%s; median of %zu traced passes)\n", m.name, layers[m.name],
                  m.unit, m.how, traced_run.size());
    std::string path = args.trace_out;
    if (path.empty())
      path = ".perfbench_out/trace-" + w.name + "-seed" + std::to_string(args.seed) + ".json";
    const std::filesystem::path dir = std::filesystem::path(path).parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
    spans->write_chrome(path);
    std::printf("trace %s (%zu spans)\n", path.c_str(), spans->size());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              failed == 0 ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  if (args.trace) {
    for (const Metric& m : layer_metrics())
      print_json_metric(first, m.name, layers[m.name], m.unit);
  } else {
    print_json_metric(first, "setup_s", median(setup), "s");
    print_json_metric(first, "run_s", median(run_s), "s");
    print_json_metric(first, "cpu_s", median(cpu), "s");
    print_json_metric(first, "peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Socket workers re-exec this binary; they must never run the benchmark.
  if (const int rc = dowork::substrate::maybe_socket_worker(argc, argv); rc >= 0) return rc;
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
