#!/usr/bin/env python3
"""Repository benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/rmtbench (an OCaml dune project) in a private workspace
under .bench_build/ next to a copy of lib/, times the benchmark's set-up
in three separate processes (median = setup_s), then runs one measured
process and prints its report. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Exits non-zero without a result line when the repository sources, the
dune toolchain or the build are missing, or the measured process fails.
"""

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 5
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# the calibration loop's nominal time; equals reference_nominal_s in
# rmtbench/rmtbench.ml
REFERENCE_NOMINAL_S = 0.045


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def sync_tree(src, dst):
    """Make dst a copy of src, rewriting only files whose bytes differ."""
    os.makedirs(dst, exist_ok=True)
    wanted = set()
    for entry in os.listdir(src):
        if entry.startswith((".", "_")):
            continue
        s, d = os.path.join(src, entry), os.path.join(dst, entry)
        wanted.add(entry)
        if os.path.isdir(s):
            sync_tree(s, d)
        elif not (os.path.isfile(d) and filecmp.cmp(s, d, shallow=False)):
            shutil.copyfile(s, d)
    for entry in os.listdir(dst):
        if entry in wanted or entry.startswith((".", "_")):
            continue
        path = os.path.join(dst, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
        else:
            os.remove(path)


def build(root, work):
    """Build rmtbench.exe against root/lib; returns its path."""
    lib = os.path.join(root, "lib")
    if not os.path.isfile(os.path.join(root, "dune-project")) or not os.path.isdir(lib):
        fail("no repository sources (dune-project, lib/) in " + root)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    ws = os.path.join(work, "ws")
    os.makedirs(ws, exist_ok=True)
    # the workspace root is the benchmark's own dune project; lib/ is
    # copied beside it so the repository's private libraries resolve
    for name in ("dune-project", "dune", "jobs.ml", "spans.ml", "rmtbench.ml"):
        src = os.path.join(HERE, "rmtbench", name)
        dst = os.path.join(ws, name)
        if not (os.path.isfile(dst) and filecmp.cmp(src, dst, shallow=False)):
            shutil.copyfile(src, dst)
    sync_tree(lib, os.path.join(ws, "lib"))
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(work, "cache")
    proc = subprocess.run(
        [dune, "build", "--root", ws, "./rmtbench.exe"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail("build failed")
    return os.path.join(ws, "_build", "default", "rmtbench.exe")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    work = os.path.join(root, ".bench_build")
    exe = build(root, work)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # set-up: process start, kernel construction, fixtures, warm-up. Each
    # set-up process then times the calibration loop; its wall, less the
    # loop, is reported at the loop's nominal speed like every host time
    setups = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [exe, *common, "--setup-only"],
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            fail("set-up failed")
        loop, loop_wall = map(float, proc.stdout.split()[-2:])
        wall -= loop_wall
        setups.append((wall, wall * REFERENCE_NOMINAL_S / loop))
    setup_s = statistics.median(s for _, s in setups)

    traces = os.path.join(work, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
    proc = subprocess.run(
        [exe, *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-out", trace_out],
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail("measured run exited with code %d" % proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print("set-up raw %s s; at nominal speed %s s (median of %d)" % (
            " ".join("%.3f" % w for w, _ in setups),
            " ".join("%.3f" % s for _, s in setups), SETUP_RUNS))
    expected = expected_metrics(root, args.trace)
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail("metric %s missing or with another unit" % spec["name"])
    if len(result["metrics"]) != len(expected):
        fail("metrics differ from BENCHMARK.json")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
