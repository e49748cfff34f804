#!/usr/bin/env python3
"""Steadiness check: runs one workload k times and prints, for each metric,
the median and the interquartile spread (as a share of the median) next to
its bound from BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload hospital_staff -k 5
    python3 perfbench/steady.py --workload write_zipf -k 10 --sets 2

Seeds are first-seed, first-seed+1, ...  With --sets 2 the k seeds run
twice and the second set's medians are compared with the first's, as a
share of the median.  Every run also reports host.ref_loop_ms and
host.ref_cache_ms, a fixed ALU loop and a cache-sized pointer chase timed
before and after the run, so a noisy verdict can be told apart from a
program change.  A spread is "ok" under a third of the bound, "wide"
under the bound and "FAIL" past it.  A run whose correctness checks fail
is kept in the figures and marked INCORRECT.  The exit code is 1 when
anything fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace, doc_seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if doc_seed is not None:
        cmd += ["--doc-seed", str(doc_seed)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    host = {"wall_s": time.monotonic() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit("run failed: seed %d exit %d" % (seed, proc.returncode))
    for line in lines:
        if line.startswith("host."):
            host[line.split()[0]] = float(line.split()[1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    correct = result["correct"] and proc.returncode == 0
    if not correct:
        sys.stderr.write("".join(l + "\n" for l in proc.stderr.splitlines()
                                 if "mismatch" in l)[:2000])
    return values, host, correct


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--doc-seed", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    better = {m["name"]: m["better"] for m in declared}

    sets = []
    incorrect = 0
    for s in range(args.sets):
        runs = []
        for i in range(args.k):
            seed = args.first_seed + i
            values, host, correct = run_once(args.workload, seed, seconds,
                                             args.trace, args.doc_seed)
            incorrect += not correct
            runs.append(values)
            print("set %d seed %d%s wall %.0f s host.ref_loop_ms %.1f "
                  "host.ref_cache_ms %.1f | %s" % (
                s + 1, seed, "" if correct else " INCORRECT", host["wall_s"],
                host.get("host.ref_loop_ms", float("nan")),
                host.get("host.ref_cache_ms", float("nan")),
                " ".join("%s=%.4g" % (k, values[k]) for k in bounds)),
                flush=True)
        sets.append(runs)

    # Per set: spread "ok" under a third of the bound, "wide" under the
    # bound, "FAIL" past it; later sets' medians must not read worse than
    # the first's by more than the bound.
    failed = incorrect > 0
    print("%-32s %12s %7s  %s" % ("metric", "median", "bound",
                                  "spread per set / drift"))
    for name in bounds:
        med = statistics.median([r[name] for r in sets[0]])
        bound = bounds[name]
        cells = []
        for runs in sets:
            _, sp = spread([r[name] for r in runs])
            mark = ""
            if bound is not None:
                mark = "ok" if sp <= bound / 3 else "wide" if sp <= bound \
                    else "FAIL"
                failed = failed or mark == "FAIL"
            cells.append("%.3f %s" % (sp, mark))
        for runs in sets[1:]:
            med2 = statistics.median([r[name] for r in runs])
            worse = (med2 - med) / med if better[name] == "lower" \
                else (med - med2) / med
            cells.append("drift %+.3f%s" % (
                worse, " FAIL" if bound is not None and worse > bound else ""))
            failed = failed or (bound is not None and worse > bound)
        print("%-32s %12.4f %7s  %s" % (
            name, med, "-" if bound is None else "%.2f" % bound,
            " | ".join(cells)))
    if incorrect:
        print("%d of %d runs INCORRECT" % (incorrect, args.k * args.sets))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
