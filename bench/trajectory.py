#!/usr/bin/env python3
"""Record and check the benchmark trajectory: BENCH_<pr>.json files at the
repo root, each a perfbench snapshot of one commit.

From the root of a checkout:

    python3 bench/trajectory.py record 18     # writes BENCH_18.json
    python3 bench/trajectory.py check         # the CI gate
    python3 bench/trajectory.py ab A B --workload simulate --seed 1 --pairs 10

(about 4 min and 30 s on a 2-vCPU Xeon VM; a deck is fixed work, so a faster
host finishes it in less than the benchmark's nominal 15 s.)

record runs perfbench/run.py for every workload at seeds 1 and 2, three
untraced runs each, plus one traced `experiment` run per seed.  For every
end-to-end metric it keeps the per-seed medians and, over the six runs of a
workload, the median, min and max, and flags any run outside 1.5x the
interquartile range.  It also keeps the traced per-layer metrics, the host
(CPU model, nproc), the commit and the calibration kernel's median.

check runs one whole deck each of `simulate` and `compile` (seed 1,
untraced) and one traced `experiment` deck, and compares them with the
newest BENCH_<pr>.json (or --bench FILE): every end-to-end metric against
its seed-1 median and its bound in BENCHMARK.json, and the warm path's
calibrated cost `sim.warm.ns_per_group` against the traced seed-1 value,
within WARM_BOUND.  Every op must pass its correctness check.  It prints
every ratio with its limit and exits 1 if any fails.  --out DIR also writes
the three result lines and the report there.

ab compares two revisions A and B (anything `git rev-parse` names) on one
workload.  Each is exported once with `git archive` into its own directory
under a scratch directory (--dir, default <tmp>/epic-ab, one directory per
commit, so a later comparison of the same commit reuses its build) and
built there once.  Then it runs N pairs (default 10) of untraced perfbench
runs, alternating which side runs first, and prints for every end-to-end
metric A's and B's medians, the median and the min-max of the per-pair
ratios B/A, B's wins out of N (strictly better, by the metric's direction)
and A's interquartile range.  "undecided" marks a metric B wins in more
than 20% and fewer than 80% of the pairs, whatever its median; otherwise
"clear" marks one whose median moved by more than A's range in B's favour,
"worse" one that moved by more in A's.  Medians of 5 pairs of the same two
commits have disagreed by more than 5%.  It exits 1 if any op failed
or if an exact metric (sim_cycles_geomean, code_bytes) differs between the
two sides of any pair.  --out DIR also writes every result line there.
"""

import argparse
import glob
import json
import math
import os
import re
import statistics
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["compile", "simulate", "experiment", "serve"]
SEEDS = [1, 2]
RUNS = 3
WARM = "sim.warm.ns_per_group"
# The warm path is gated on its own calibrated cost, not on its speed
# relative to detailed simulation: that ratio drops whenever the detailed
# engine gets faster.  Traced seed-1 runs on one host spread 85-91 ns/group.
WARM_BOUND = 0.25
CALIB = re.compile(r"calibration: kernel median ([0-9.]+) ms")
# The metrics every run of one deck must reproduce exactly (perfbench/run.py).
EXACT = ["sim_cycles_geomean", "code_bytes"]


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def perfbench(workload, seed, trace, seconds, cwd=None):
    """One perfbench process in the checkout [cwd] (default: the current
    directory); returns (result line, result, kernel median ms)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=cwd)
    if proc.returncode != 0:
        sys.exit("trajectory: %s exited %d" % (" ".join(cmd), proc.returncode))
    line = proc.stdout.strip().splitlines()[-1]
    calib = CALIB.search(proc.stdout)
    return line, json.loads(line), float(calib.group(1)) if calib else None


def value(result, name):
    return result["metrics"][name]["value"]


def outliers(values):
    """Indices of the values outside 1.5x the interquartile range."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    return [i for i, v in enumerate(values) if v < lo or v > hi]


def summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def host():
    with open("/proc/cpuinfo") as f:
        cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                   "unknown")
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def commit():
    """HEAD's hash, stamped -dirty when a tracked file other than the
    Markdown documentation differs from it (a doc edit during a recording
    does not change what was measured)."""
    out = subprocess.run(["git", "describe", "--always", "--abbrev=40"],
                         stdout=subprocess.PIPE, text=True)
    head = out.stdout.strip()
    if not head:
        return "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no",
                            "--", ".", ":(exclude)*.md"],
                           stdout=subprocess.PIPE, text=True).stdout.strip()
    return head + ("-dirty" if dirty else "")


def record(pr):
    s = spec()
    seconds = s["run_seconds"]
    runs = {(w, seed): [] for w in WORKLOADS for seed in SEEDS}
    traced, calib = {}, []
    for seed in SEEDS:
        for i in range(RUNS):
            for w in WORKLOADS:
                print("record: %s seed %d run %d/%d" % (w, seed, i + 1, RUNS), file=sys.stderr)
                _, r, k = perfbench(w, seed, 0, seconds)
                runs[(w, seed)].append(r)
                calib += [k] if k is not None else []
        print("record: experiment seed %d traced" % seed, file=sys.stderr)
        _, r, _ = perfbench("experiment", seed, 1, seconds)
        traced[str(seed)] = {n: m["value"] for n, m in r["metrics"].items()}
    workloads = {}
    for w in WORKLOADS:
        results = [r for seed in SEEDS for r in runs[(w, seed)]]
        metrics = {}
        for m in s["end_to_end"]:
            name = m["name"]
            values = [value(r, name) for r in results]
            flagged = outliers(values)
            metrics[name] = dict(
                summary(values), unit=m["unit"],
                seeds={str(seed): statistics.median(value(r, name) for r in runs[(w, seed)])
                       for seed in SEEDS},
                outliers=[{"seed": SEEDS[i // RUNS], "run": i % RUNS + 1, "value": values[i]}
                          for i in flagged])
        workloads[w] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    workloads["experiment"]["traced"] = traced
    doc = {
        "pr": pr,
        "commit": commit(),
        "host": host(),
        "calib_kernel_ms": summary(calib),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "runs_per_seed": RUNS,
        "workloads": workloads,
    }
    path = "BENCH_%d.json" % pr
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for w in WORKLOADS:
        m = workloads[w]["metrics"]
        print("%-10s " % w + "  ".join("%s %.6g" % (n, m[n]["median"]) for n in m))
    print("wrote %s" % path)


def newest_bench():
    files = glob.glob("BENCH_*.json")
    if not files:
        sys.exit("trajectory: no BENCH_<pr>.json in %s" % ROOT)
    return max(files, key=lambda f: int(re.search(r"BENCH_(\d+)\.json", f).group(1)))


def verdict(new, old, better, bound):
    """(ratio new/old, limit, ok): lower-is-better metrics may grow by at most
    [bound], higher-is-better ones may shrink by at most [bound]."""
    ratio = new / old if old else (1.0 if new == old else math.inf)
    if better == "lower":
        return ratio, "<= %.2f" % (1 + bound), ratio <= 1 + bound
    return ratio, ">= %.2f" % (1 - bound), ratio >= 1 - bound


def check(bench, out):
    s = spec()
    with open(bench) as f:
        base = json.load(f)
    report, failed = [], False

    def say(line):
        print(line)
        report.append(line)

    say("checking against %s (commit %s)" % (bench, base["commit"]))
    runs = [("simulate", 0), ("compile", 0), ("experiment", 1)]
    for w, trace in runs:
        line, r, _ = perfbench(w, 1, trace, s["run_seconds"])
        if out:
            name = "%s-1%s.json" % (w, "-traced" if trace else "")
            with open(os.path.join(out, name), "w") as f:
                f.write(line + "\n")
        ok = r["correct"] and r["failed"] == 0
        failed = failed or not ok
        say("%-4s %-10s ops: %d attempted, %d failed" %
            ("ok" if ok else "FAIL", w, r["attempted"], r["failed"]))
        if trace:
            checks = [(WARM, "lower", WARM_BOUND, base["workloads"][w]["traced"]["1"][WARM])]
        else:
            recorded = base["workloads"][w]["metrics"]
            checks = [(m["name"], m["better"], m["bound"], recorded[m["name"]]["seeds"]["1"])
                      for m in s["end_to_end"]]
        for name, better, bound, old in checks:
            new = value(r, name)
            ratio, limit, ok = verdict(new, old, better, bound)
            failed = failed or not ok
            say("%-4s %-10s %-24s %14.6g / %-14.6g = %6.3f  (%s)" %
                ("ok" if ok else "FAIL", w, name, new, old, ratio, limit))
    say("perfbench gate: %s" % ("FAILED" if failed else "passed"))
    if out:
        with open(os.path.join(out, "check.txt"), "w") as f:
            f.write("\n".join(report) + "\n")
    return 1 if failed else 0


def export(rev, root):
    """The checkout of [rev] under [root], exported and built on first use;
    returns (commit, directory)."""
    out = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("trajectory: not a revision: %s" % rev)
    sha = out.stdout.strip()
    tree = os.path.join(root, sha)
    if not os.path.isdir(tree):
        part = tempfile.mkdtemp(prefix=sha[:12] + ".", dir=root)
        archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", part], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            shutil.rmtree(part)
            sys.exit("trajectory: git archive %s failed" % sha)
        os.rename(part, tree)
    print("ab: building %s in %s" % (sha[:12], tree), file=sys.stderr)
    build = subprocess.run([sys.executable, "-c",
                            "import sys; sys.path.insert(0, 'perfbench'); import run; run.build()"],
                           cwd=tree)
    if build.returncode != 0:
        sys.exit("trajectory: building %s failed" % sha)
    return sha, tree


def ab(rev_a, rev_b, workload, seed, pairs, root, out):
    s = spec()
    seconds = s["run_seconds"]
    os.makedirs(root, exist_ok=True)
    sides = [export(rev_a, root), export(rev_b, root)]
    runs = ([], [])
    failed = False
    for i in range(pairs):
        # A first in even pairs, B first in odd ones
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            sha, tree = sides[side]
            print("ab: pair %d/%d, %s (%s)" % (i + 1, pairs, "AB"[side], sha[:12]), file=sys.stderr)
            line, r, _ = perfbench(workload, seed, 0, seconds, cwd=tree)
            runs[side].append(r)
            if out:
                with open(os.path.join(out, "%s-%d-%s-%d.json" % (workload, seed, "AB"[side], i + 1)),
                          "w") as f:
                    f.write(line + "\n")
    print("ab: %s, seed %d, %d pairs, %gs runs; A = %s, B = %s" %
          (workload, seed, pairs, seconds, sides[0][0][:12], sides[1][0][:12]))
    for name, rs in zip("AB", runs):
        bad = sum(r["failed"] for r in rs)
        if bad or not all(r["correct"] for r in rs):
            failed = True
        print("%s ops: %d attempted, %d failed" % (name, sum(r["attempted"] for r in rs), bad))
    print("%-22s %14s %14s %8s %13s %6s %12s" %
          ("metric", "A median", "B median", "B/A", "B/A min-max", "B wins", "A IQR"))
    for m in s["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        a = [value(r, name) for r in runs[0]]
        b = [value(r, name) for r in runs[1]]
        ratios = [y / x if x else (1.0 if y == x else math.inf) for x, y in zip(a, b)]
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if pairs > 1 else (a[0], 0, a[0])
        gain = statistics.median(a) - statistics.median(b)
        gain = gain if lower else -gain
        note = "clear" if gain > q3 - q1 else "worse" if -gain > q3 - q1 else ""
        if 0.2 * pairs < wins < 0.8 * pairs:
            note = "undecided"
        if name in EXACT and a != b:
            failed = True
            note = "DIFFERS"
        print("%-22s %14.6g %14.6g %8.4f %6.3f-%-6.3f %3d/%-2d %12.4g  %s" %
              (name, statistics.median(a), statistics.median(b), statistics.median(ratios),
               min(ratios), max(ratios), wins, pairs, q3 - q1, note))
    print("ab: %s" % ("FAILED" if failed else "ok"))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run the full record and write BENCH_<pr>.json")
    rec.add_argument("pr", type=int)
    chk = sub.add_parser("check", help="gate one run of each deck on the newest BENCH file")
    chk.add_argument("--bench", help="compare against this file instead")
    chk.add_argument("--out", help="directory for the result lines and the report")
    cmp_ = sub.add_parser("ab", help="alternating pairs of perfbench runs of two revisions")
    cmp_.add_argument("a", help="the baseline revision")
    cmp_.add_argument("b", help="the revision compared with it")
    cmp_.add_argument("--workload", required=True, choices=WORKLOADS)
    cmp_.add_argument("--seed", type=int, default=1)
    cmp_.add_argument("--pairs", type=int, default=10)
    cmp_.add_argument("--dir", default=os.path.join(tempfile.gettempdir(), "epic-ab"),
                      help="scratch directory for the exported revisions")
    cmp_.add_argument("--out", help="directory for every result line")
    args = ap.parse_args()
    if args.cmd == "record":
        os.chdir(ROOT)
        record(args.pr)
        return 0
    if args.cmd == "ab":
        root = os.path.abspath(args.dir)
        out = args.out and os.path.abspath(args.out)
        os.chdir(ROOT)
        if out:
            os.makedirs(out, exist_ok=True)
        if args.pairs < 1:
            sys.exit("trajectory: --pairs must be at least 1")
        return ab(args.a, args.b, args.workload, args.seed, args.pairs, root, out)
    bench = args.bench and os.path.abspath(args.bench)
    out = args.out and os.path.abspath(args.out)
    os.chdir(ROOT)
    if out:
        os.makedirs(out, exist_ok=True)
    return check(bench or newest_bench(), out)


if __name__ == "__main__":
    sys.exit(main())
