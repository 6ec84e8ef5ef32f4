#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload loops --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The OCaml build goes to .bench_build/
with dune's shared cache off, so nothing is written outside the
checkout.  The benchmark's own standard output is passed through; its
last line is the JSON result.  With --trace 1 the recorded spans are
also written to .bench_build/perfbench-spans/<workload>.jsonl.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("loops", "calls", "churn")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    # the compilers' temporary files stay inside the checkout too
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.join(build_dir, "xdg-cache"),
        TMPDIR=tmp_dir,
    )
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir,
         "--profile", "release", "-j", "2", "./perfbench/main.exe"],
        cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, args.workload + ".jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
