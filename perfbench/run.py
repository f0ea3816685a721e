#!/usr/bin/env python3
"""Host-cost benchmark of the Spritely NFS simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload andrew --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

It builds perfbench/bench.exe from source with dune (inside the checkout:
_build/ and .bench_build/), then runs it. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. --self-check runs the sensitivity self-check against the
units_per_s bound in BENCHMARK.json. Build output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["andrew", "sort", "clients", "crash"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    return code


def build(root):
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        candidate = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
        if os.path.isfile(candidate):
            dune = candidate
    if dune is None:
        return fail("dune not found on PATH", 3)
    # keep dune's cache and config lookups inside the checkout
    private = os.path.join(root, ".bench_build", "dune-home")
    os.makedirs(private, exist_ok=True)
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=private,
        XDG_CONFIG_HOME=private,
    )
    try:
        done = subprocess.run(
            [dune, "build", "--root", ".", "./perfbench/bench.exe"],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail("build timed out", 3)
    if done.returncode != 0:
        return fail("build failed", 3)
    return 0


def bound_of(root, metric):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for m in spec["end_to_end"]:
        if m["name"] == metric:
            return m["bound"]
    raise KeyError(metric)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        return fail("--workload is required")

    root = os.getcwd()
    # the benchmark builds the simulator from the checkout's sources
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            return fail("no simulator sources here (missing %s)" % needed)

    code = build(root)
    if code != 0:
        return code

    if args.self_check:
        cmd = [EXE, "--self-check", "--bound", str(bound_of(root, "units_per_s"))]
    else:
        cmd = [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark run timed out", 4)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
