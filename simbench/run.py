#!/usr/bin/env python3
"""Build and run the simulator-stack benchmark.

Run from the root of a source tree:

    python3 simbench/run.py --workload fleet_mixed --seed 1 \
        --seconds 20 --trace 0

The first run configures and builds the library and the benchmark
(Release) under .bench_build/simbench; later runs only rebuild what
changed. The benchmark binary prints its provenance, the metrics as
readable lines, and as its last line one JSON object with the keys
correct, attempted, failed and metrics. This script checks that the
metric names and units match BENCHMARK.json before passing that line
on, and exits with the binary's code. The spans of a traced run go to
.bench_build/simbench/spans-<workload>.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORKLOADS = ("fleet_mixed", "dvfs_bursty", "explore_sweep")
RUN_TIMEOUT_S = 175
# The seed quoted results use unless they say otherwise; a claim made
# on it should also hold on a held-out seed.
DEFAULT_SEED = 1


def fail(msg, code=2):
    print("simbench: " + msg, file=sys.stderr)
    sys.exit(code)


def src_digest():
    """sha256 over the library sources, so a run names its code even
    where the tree is not a git checkout."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "fleet.hh")):
        fail("no library sources under ./src; run from the root of "
             "the source tree")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "simbench")


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for the
    mode, or None when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    spans = os.path.join(BUILD, "spans-%s.json" % args.workload)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-out", spans, "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode not in (0, 1):
        fail("benchmark exited with %d" % proc.returncode, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line", 1)
    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())), 1)
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
