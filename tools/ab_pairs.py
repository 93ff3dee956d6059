#!/usr/bin/env python3
"""Paired A/B timing of two revisions on one simbench workload.

Exports each side into its own directory under a scratch root outside
the repository, builds it through ``simbench/run.py`` (one short run
per side, discarded), then runs ``--pairs`` pairs of one workload and
seed, alternating which side goes first. Wall-clock rates on a shared
host drift by tens of percent between minutes, so only pairs run back
to back are compared.

It prints, for every end-to-end metric, each side's median and
quartiles, then the per-pair head/base ratios of the claimed
``--metric``, how many pairs head wins (by the metric's ``better``
direction in BENCHMARK.json), whether the median gap exceeds the base
side's interquartile range, and the host the runs shared.

Usage:
    tools/ab_pairs.py --base HEAD~1 --head HEAD --workload dvfs_bursty \\
        --seed 1 --pairs 10 --seconds 30 --scratch /tmp/ab
    tools/ab_pairs.py --self-test   # statistics and order, no build

A side is a git revision (exported with ``git archive``) or a
directory, whose files git lists as tracked or untracked-but-not-
ignored are copied (so uncommitted work can be measured). The
repository is only read.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def quantile(xs, q):
    """The q-quantile of xs, interpolated linearly between the order
    statistics (numpy's default, Python's method='inclusive')."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of nothing")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(xs):
    """(q1, median, q3) of xs."""
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)


def order(pair):
    """Which side runs first in pair number `pair`: base on even pairs,
    head on odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def compare(base, head, higher_is_better):
    """Per-pair head/base ratios, head's win count, and whether the
    median gap (in the better direction) exceeds base's IQR."""
    ratios = [h / b if b else float("inf") for b, h in zip(base, head)]
    wins = sum((h > b) if higher_is_better else (h < b)
               for b, h in zip(base, head))
    q1, med_b, q3 = summary(base)
    med_h = quantile(head, 0.5)
    gap = med_h - med_b if higher_is_better else med_b - med_h
    return ratios, wins, gap > q3 - q1


def host():
    """One line naming the host the pairs shared."""
    cpu = platform.processor() or "?"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["c++", "--version"], capture_output=True,
                            text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        cc = "?"
    return "%d CPUs, %s, %s, %s" % (os.cpu_count() or 0, cpu, cc,
                                    platform.platform())


def export(spec, dest):
    """Put the source tree of `spec` (a revision or a directory) into
    the new directory `dest`."""
    os.makedirs(dest)
    if os.path.isdir(spec):
        files = subprocess.run(
            ["git", "-C", spec, "ls-files", "-co", "--exclude-standard",
             "-z"], check=True, capture_output=True).stdout
        for rel in files.decode().split("\0"):
            if not rel or not os.path.isfile(os.path.join(spec, rel)):
                continue
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(os.path.join(spec, rel), os.path.join(dest, rel))
        return
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", spec], check=True,
                       stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(dest)


def run_side(tree, workload, seed, seconds):
    """One simbench run in `tree`: its metrics, name -> value."""
    proc = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("ab_pairs: run in %s failed (%d):\n%s" %
                 (tree, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def directions():
    """metric -> True when higher is better, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}


def report(runs, metric, higher):
    """Print the sides' summaries and the paired verdict on `metric`."""
    for name in sorted(runs["base"][0]):
        cells = []
        for side in SIDES:
            q1, med, q3 = summary([r[name] for r in runs[side]])
            cells.append("%s %.6g [%.6g, %.6g]" % (side, med, q1, q3))
        print("%-18s %s" % (name, "   ".join(cells)))
    base = [r[metric] for r in runs["base"]]
    head = [r[metric] for r in runs["head"]]
    ratios, wins, clear = compare(base, head, higher[metric])
    print("%s head/base per pair: %s" %
          (metric, " ".join("%.3f" % x for x in ratios)))
    print("%s: head wins %d of %d pairs, median ratio %.3f; median gap "
          "%s base IQR" % (metric, wins, len(ratios),
                           quantile(ratios, 0.5),
                           "exceeds" if clear else "within"))


def self_test():
    """Check the statistics and the order alternation on fixed numbers;
    nothing is built or run."""
    checks = [
        (quantile([1, 2, 3, 4], 0.5), 2.5),
        (summary([3, 1, 2, 5, 4]), (2, 3, 4)),
        (summary([10.0]), (10.0, 10.0, 10.0)),
        (quantile([1, 2, 3, 4, 5, 6, 7, 8], 0.25), 2.75),
        ([order(i) for i in range(4)],
         [SIDES, SIDES[::-1], SIDES, SIDES[::-1]]),
    ]
    base = [100.0, 104.0, 96.0, 102.0, 98.0]
    head = [120.0, 103.0, 118.0, 121.0, 119.0]
    ratios, wins, clear = compare(base, head, True)
    checks += [
        ([round(r, 4) for r in ratios],
         [1.2, 0.9904, 1.2292, 1.1863, 1.2143]),
        (wins, 4),
        (clear, True),
        # Lower is better: head wins where it is smaller.
        (compare(base, head, False)[1], 1),
        # A gap inside base's IQR (98..102) is not clear.
        (compare(base, [101.0] * 5, True)[2], False),
    ]
    bad = [(got, want) for got, want in checks if got != want]
    for got, want in bad:
        print("ab_pairs self-test: got %r, want %r" % (got, want))
    print("ab_pairs self-test: %s" % ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true",
                    help="check the statistics and the order on fixed "
                         "numbers, building nothing")
    ap.add_argument("--base", help="revision or directory (the parent)")
    ap.add_argument("--head", help="revision or directory (the change)")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--metric", default="items_per_s",
                    help="the claimed metric the verdict is about")
    ap.add_argument("--scratch",
                    help="new directory outside the repository for "
                         "the two trees (default: a fresh temp dir)")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.head and args.workload):
        ap.error("--base, --head and --workload are required")

    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_pairs")
    scratch = os.path.abspath(scratch)
    if os.path.commonpath([scratch, ROOT]) == ROOT:
        ap.error("--scratch must lie outside the repository")
    trees = {}
    for side, spec in zip(SIDES, (args.base, args.head)):
        trees[side] = os.path.join(scratch, side)
        export(spec, trees[side])
        run_side(trees[side], args.workload, args.seed, 1.0)
        print("# %s = %s, built in %s" % (side, spec, trees[side]))
    print("# host: %s" % host())
    print("# %s seed %d, %d pairs of %g s" %
          (args.workload, args.seed, args.pairs, args.seconds))

    runs = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        got = {}
        for side in order(pair):
            got[side] = run_side(trees[side], args.workload, args.seed,
                                 args.seconds)
            runs[side].append(got[side])
        print("# pair %d (%s first): %s %.6g -> %.6g" %
              (pair, order(pair)[0], args.metric, got["base"][args.metric],
               got["head"][args.metric]), flush=True)
    report(runs, args.metric, directions())
    return 0


if __name__ == "__main__":
    sys.exit(main())
