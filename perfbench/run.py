#!/usr/bin/env python3
"""Build the dowork library from source and run the layered benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of d_agreement, sequential_takeover, sharded_rounds and
socket_rounds (METRICS.md describes them and every metric).  The build goes
to $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; run outputs (Chrome traces, the socket backend's Unix sockets) go to
.perfbench_out/.  The last stdout line is the driver's JSON result; the exit
code is non-zero when the build fails or any run fails a correctness check.

`--workload all` runs every workload in its own process (so each peak RSS
belongs to one workload), prints a summary table and ends with one JSON
object whose metric names are prefixed by the workload.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = ".perfbench_out"
WORKLOADS = ["d_agreement", "sequential_takeover", "sharded_rounds", "socket_rounds"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.join(ROOT, base), "perfbench")


def build():
    """Configures (once) and builds the driver; cmake's chatter goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the dowork sources are missing next to perfbench/")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return bdir


def driver_env():
    # The socket backend binds its Unix sockets under $TMPDIR; a relative
    # path keeps them inside the checkout and short enough for sun_path.
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(os.path.join(ROOT, tmp), exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def run_one(bdir, workload, seed, seconds, trace, capture):
    cmd = [
        os.path.join(bdir, "perfbench_driver"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--trace-out", os.path.join(OUT, "trace-%s-seed%d.json" % (workload, seed)),
    ]
    try:
        return subprocess.run(
            cmd, cwd=ROOT, env=driver_env(), timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))


def run_all(bdir, seed, seconds, trace):
    results = {}
    code = 0
    for w in WORKLOADS:
        p = run_one(bdir, w, seed, seconds, trace, capture=True)
        sys.stdout.write(p.stdout)
        sys.stdout.flush()
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0:
            code = 1
        if not lines:
            sys.exit("perfbench: %s printed no result" % w)
        results[w] = json.loads(lines[-1])
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print()
    print("%-34s" % "metric" + "".join("%22s" % w for w in results))
    for m in names:
        cells = "".join(
            "%22.6g" % r["metrics"][m]["value"] if m in r["metrics"] else "%22s" % "-"
            for r in results.values()
        )
        print("%-34s%s" % (m, cells))
    print("%-34s" % "failed_frac" + "".join(
        "%22.3g" % (r["failed"] / r["attempted"]) for r in results.values()))
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            "%s.%s" % (w, m): v for w, r in results.items() for m, v in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return code


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.workload is None:
        ap.error("--workload is required")
    bdir = build()
    if args.workload == "all":
        return run_all(bdir, args.seed, args.seconds, args.trace)
    p = run_one(bdir, args.workload, args.seed, args.seconds, args.trace, capture=False)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
