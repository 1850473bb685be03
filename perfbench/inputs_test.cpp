// Seeded-input tests: the same seed gives identical FaultSpecs, and other
// seeds give different schedules of the same shape (same cases, crash
// budgets, n and t, and crash kind).
#include <cstdio>
#include <set>
#include <string>

#include "inputs.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL %s\n", what.c_str());
}

std::string specs(const perfbench::Workload& w) {
  std::string s;
  for (const auto& c : w.cases) s += c.label + " " + c.faults.to_string() + "\n";
  return s;
}

void check_workload(const std::string& name, bool tiny) {
  using dowork::harness::FaultSpec;
  const std::string tag = name + (tiny ? " (tiny)" : "");
  const perfbench::Workload base = perfbench::make_workload(name, 1, tiny);
  check(!base.cases.empty(), tag + ": has cases");
  check(specs(base) == specs(perfbench::make_workload(name, 1, tiny)),
        tag + ": same seed, same specs");
  std::set<std::string> distinct;
  for (std::uint64_t seed : {1, 2, 3, 42, 1000}) {
    const perfbench::Workload w = perfbench::make_workload(name, seed, tiny);
    distinct.insert(specs(w));
    check(w.path == base.path && w.threads == base.threads, tag + ": same path");
    check(w.cases.size() == base.cases.size(), tag + ": same case count");
    for (std::size_t i = 0; i < w.cases.size() && i < base.cases.size(); ++i) {
      const auto& a = w.cases[i];
      const auto& b = base.cases[i];
      const std::string where = tag + " seed " + std::to_string(seed) + " case " + a.label;
      check(a.label == b.label && a.protocol == b.protocol, where + ": same case");
      check(a.n == b.n && a.t == b.t, where + ": same n and t");
      check(a.crash_budget == b.crash_budget, where + ": same crash budget");
      check(a.faults.kind() == b.faults.kind(), where + ": same crash kind");
      check(FaultSpec::parse(a.faults.to_string()) == a.faults, where + ": spec round-trips");
      if (const auto* s = std::get_if<dowork::harness::ScheduledSpec>(&a.faults.crash)) {
        std::set<int> victims;
        for (const auto& e : s->entries) victims.insert(e.proc);
        check(static_cast<int>(victims.size()) == a.crash_budget,
              where + ": one scheduled crash per budget unit, distinct victims");
      }
      if (const auto* s = std::get_if<dowork::harness::CascadeSpec>(&a.faults.crash))
        check(s->max_crashes == a.crash_budget, where + ": cascade carries the budget");
    }
  }
  check(distinct.size() == 5, tag + ": five seeds, five different schedules");
}

}  // namespace

int main() {
  for (const std::string& name : perfbench::workload_names()) {
    check_workload(name, false);
    check_workload(name, true);
  }
  bool threw = false;
  try {
    perfbench::make_workload("no_such_workload", 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "unknown workload rejected");
  std::printf("%s (%d failures)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
