#!/usr/bin/env python3
"""Builds and runs the campaign-service benchmark (perfbench/perfbench.cpp).

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload suite|thin-deep|service \
        --seed N --seconds S --trace 0|1

Helpers:

    python3 perfbench/run.py spread --runs 10 [--workload W ...] \
        [--seconds S] [--trace 0|1] [--first-seed N] [--same-seed]
        Runs each workload N times with seeds first-seed..first-seed+N-1
        and prints every metric's median, quartiles and spread
        ((q3 - q1) / median); the bounds in BENCHMARK.json come from it.

    python3 perfbench/run.py oracle --workload W --seed N
        Recomputes the verdict oracle of a workload from the serial
        event-driven engine and prints one digest per fault set.

    python3 perfbench/run.py selftest
        Checks the checker: a run with one flipped verdict bit must report
        a failed campaign and exit nonzero.

Run from the root of the repository. The build lives in
.bench_build/perfbench; every run works in a scratch directory under
.bench_build and removes it afterwards.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ["suite", "thin-deep", "service"]


def build():
    """Configures (once) and incrementally builds the benchmark; build
    output goes to stderr so stdout stays the benchmark's own."""
    if not (ROOT / "CMakeLists.txt").is_file():
        sys.exit("run.py: no eraser source tree at %s" % ROOT)
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target",
           "perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")


def run_binary(args, capture=False):
    workdir = ROOT / ".bench_build" / ("run-%d" % os.getpid())
    cmd = [str(BINARY)] + args + ["--workdir", str(workdir)]
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def cmd_spread(argv):
    p = argparse.ArgumentParser(prog="run.py spread")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--same-seed", action="store_true",
                   help="repeat --first-seed in every run (host noise only)")
    a = p.parse_args(argv)
    build()
    for wl in a.workload or WORKLOADS:
        values = {}
        units = {}
        shares = []
        for i in range(a.runs):
            seed = a.first_seed + (0 if a.same_seed else i)
            r = run_binary(["--workload", wl, "--seed", str(seed),
                            "--seconds", str(a.seconds), "--trace",
                            str(a.trace)], capture=True)
            res = last_json(r.stdout)
            host = [l for l in r.stdout.splitlines() if l.startswith("host")]
            print("%s seed=%d exit=%d %s" % (wl, seed, r.returncode,
                                            host[0] if host else ""),
                  flush=True)
            if res is None:
                continue
            print("  " + " ".join("%s=%.6g" % (k, m["value"])
                                  for k, m in res["metrics"].items()),
                  flush=True)
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("%s: failed share per run %s" % (wl, sorted(set(shares))))
        print("%-40s %14s %14s %14s %8s  %s" % ("metric", "q1", "median",
                                                 "q3", "spread", "unit"))
        for name, vals in values.items():
            if len(vals) >= 2:
                q1, med, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = med = q3 = vals[0]
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print("%-40s %14.6g %14.6g %14.6g %8.4f  %s" % (
                name, q1, med, q3, spread, units[name]), flush=True)


def cmd_oracle(argv):
    p = argparse.ArgumentParser(prog="run.py oracle")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    a = p.parse_args(argv)
    build()
    return run_binary(["--oracle", "--workload", a.workload, "--seed",
                       str(a.seed)]).returncode


def cmd_selftest(argv):
    argparse.ArgumentParser(prog="run.py selftest").parse_args(argv)
    build()
    r = run_binary(["--workload", "thin-deep", "--seed", "1", "--seconds",
                    "1", "--trace", "0", "--setups", "1", "--inject-flip",
                    "0"], capture=True)
    res = last_json(r.stdout)
    ok = r.returncode != 0 and res is not None and res["failed"] >= 1 \
        and not res["correct"]
    print("selftest: flipped run exit=%d failed=%s -> %s" % (
        r.returncode, res and res["failed"], "ok" if ok else "CHECKER BROKEN"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("spread", "oracle", "selftest"):
        sub = {"spread": cmd_spread, "oracle": cmd_oracle,
               "selftest": cmd_selftest}[sys.argv[1]]
        return sub(sys.argv[2:]) or 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, required=True, choices=[0, 1])
    a = p.parse_args()
    build()
    return run_binary(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace",
                       str(a.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
