// Campaign runner: thousands of generated cases through the parallel
// harness, under the bound oracle and the verifier's invariants, reduced to
// a deterministic JSON report.
//
// The pipeline: generate_cases() draws the cases (per-index independent
// streams), every case is wrapped in a decision recorder (fuzz/trace.h) and
// fanned out through the ParallelScenarioRunner -- results land in input
// slots, so the report is byte-identical at any --jobs value -- and every
// violating case is then greedily minimized (fuzz/shrink.h), serially and
// in case order.  Trace files (the original failing trace and the shrunk
// reproducer) are written only when trace_dir is set; their *names* appear
// in the JSON either way, so the report bytes never depend on where (or
// whether) artifacts landed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/shrink.h"
#include "fuzz/trace.h"
#include "harness/scenario.h"

namespace dowork::fuzz {

struct CampaignOptions {
  std::uint64_t seed = 42;
  int cases = 1000;
  int jobs = 0;  // <= 0: hardware concurrency
  // Bound tightening (generator.h); 100 asserts the paper bounds verbatim.
  int tighten_pct = 100;
  // When non-empty: write <trace_dir>/caseNNNNN.trace (the original failing
  // execution) and caseNNNNN.shrunk.trace (the minimal reproducer) for
  // every violation.  Created if missing.
  std::string trace_dir;
  // Run every sync case on BOTH the simulator and the socket-process
  // substrate (src/substrate/differential.h; one worker OS process per
  // protocol process, crashes as real SIGKILLs) -- and fail the case on any
  // metric divergence, on top of the usual bound/invariant oracles (which
  // judge the simulator leg's metrics, exactly as in plain mode).  A
  // socket-leg abort (watchdog, worker death) surfaces as a divergence like
  // any other metric mismatch.  Differential cases cannot carry the
  // decision recorder (one trace cannot serve two legs), so on violation
  // the simulator leg is re-run alone, recorded: if it reproduces the
  // failure the case shrinks normally; if it comes back clean the failure
  // is a genuine substrate divergence, which is reported unshrunk (the
  // shrinker's candidates replay single legs only) with a trace of the
  // clean simulator leg attached for inspection.  The in-process threaded
  // executor is cross-checked by parallel_diff below.
  bool differential = false;
  // > 1: run every sync case TWICE on the simulator -- once with
  // round-parallel evaluation (RunOptions::sim_threads = parallel_diff) and
  // once serial -- and fail the case if the two executions differ in any
  // recorded decision or outcome field (the serial leg is the oracle; the
  // round pool promises byte-identity, sim/round_pool.h).  Unlike
  // --differential both legs are recordable, so the comparison covers the
  // full decision traces, not just metrics.  A case whose threaded leg
  // fails an oracle that the serial leg also fails shrinks normally (the
  // bug is not parallelism); a genuine divergence is reported unshrunk (the
  // shrinker replays serial legs only) with the serial-leg trace attached.
  // Mutually exclusive with differential.
  int parallel_diff = 0;
  // Suppress the progress meter (stderr).
  bool quiet = false;
};

struct CampaignViolation {
  int index = 0;                   // case index within the campaign
  harness::ScenarioResult row;     // the original failing row
  Trace trace;                     // its decision trace
  ShrinkOutcome shrunk;            // the minimal reproducer
  std::string trace_file;          // "caseNNNNN.trace" (basename only)
  std::string shrunk_trace_file;   // "caseNNNNN.shrunk.trace"
};

struct CampaignResult {
  CampaignOptions options;
  std::vector<harness::ScenarioResult> rows;  // one per case, input order
  std::vector<CampaignViolation> violations;  // case order

  // Deterministic report: campaign metadata, ok/violation summary,
  // per-protocol bound-margin histograms (deciles of the percent-of-bound
  // columns, plus ">100" and "overflow" buckets), and every violation with
  // its shrunk reproducer.  No timestamps, no timing, no paths: --jobs 1
  // and --jobs 8 produce identical bytes.
  std::string to_json() const;

  // Human-facing summary (per-protocol table + violation reproducers).
  std::string summary_table() const;

  bool clean() const { return violations.empty(); }
};

CampaignResult run_campaign(const CampaignOptions& opts);

}  // namespace dowork::fuzz
