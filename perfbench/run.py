#!/usr/bin/env python3
"""Builds the served end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload write_zipf --seed 1 --seconds 20 --trace 0

The OCaml program (perfbench/perfbench.ml) is built with dune into
.bench_build/ and runs with its scratch store and audit directories under
.bench_run/; --trace 1 also writes the run's spans to .bench_spans/.
Its standard output is passed through: the last line is the JSON result.
The exit code is non-zero when the build fails, a correctness check fails
or the run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
RUN_LIMIT_S = 170


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        cmd + ["build", "--root", ".", "--build-dir", BUILD_DIR,
               "--profile", "release", "./perfbench/perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    return proc.returncode == 0 and os.path.isfile(EXE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--doc-seed", type=int,
                    help="document generator seed (default: the program's)")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a full checkout "
                 "(dune-project and lib/ are missing)")
    if not build():
        sys.exit("perfbench: build failed")

    run_dir = os.path.join(".bench_run", "%s-%d" % (args.workload, args.seed))
    os.makedirs(".bench_run", exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.doc_seed is not None:
        cmd += ["--doc-seed", str(args.doc_seed)]
    if args.trace:
        os.makedirs(".bench_spans", exist_ok=True)
        cmd += ["--spans", os.path.join(
            ".bench_spans", "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child.
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
