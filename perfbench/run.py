#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

From the root of a checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

A run builds perfbench/bench.exe with dune into .bench_build (incremental
after the first run), executes it and passes its output through; the last
line of standard output is the result object.  Traced runs also write their
spans and raw per-op timings to .bench_out/.  The self-test runs every
workload briefly and checks what BENCHMARK.json promises: every metric with
its unit, exact metrics that repeat, no failed op, well-formed spans.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["compile", "simulate", "experiment", "serve"]
EXACT = ["sim_cycles_geomean", "code_bytes"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a full checkout (no dune-project/lib here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def bench(workload, seed, seconds, trace):
    """Run one benchmark process; returns (exit code, stdout text)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-file", os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def result_of(out):
    return json.loads(out.strip().splitlines()[-1])


def self_test(seconds):
    """Short runs of every workload: every metric present with its unit, the
    exact metrics equal across two runs, traced spans well formed."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failed = False
    for w in WORKLOADS:
        problems, runs = [], []
        for trace in (0, 0, 1):
            code, out = bench(w, 7, seconds, trace)
            if code != 0:
                problems.append("exit code %d" % code)
                break
            r = result_of(out)
            runs.append(r)
            want = layers if trace else e2e
            if {k: v["unit"] for k, v in r["metrics"].items()} != want:
                problems.append("trace=%d: metrics/units differ from BENCHMARK.json" % trace)
            if not r["correct"] or r["failed"] != 0:
                problems.append("trace=%d: %d failed ops" % (trace, r["failed"]))
        if len(runs) == 3:
            for name in EXACT:
                a, b = (r["metrics"][name]["value"] for r in runs[:2])
                if a != b:
                    problems.append("exact metric %s differs: %r vs %r" % (name, a, b))
            if runs[2]["metrics"]["trace.span_errors"]["value"] != 0:
                problems.append("malformed spans")
        print("self-test %s: %s" % (w, "FAILED" if problems else "ok"))
        for p in problems:
            print("  " + p)
        failed = failed or bool(problems)
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test(args.seconds or 2))
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    code, out = bench(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
