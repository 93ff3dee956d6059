#!/usr/bin/env python3
"""Bench perf-regression gate.

Compares freshly emitted BENCH_*.json trajectory files against the
committed baselines and fails CI when the perf trajectory regresses:

  * any machine-independent throughput metric (``*_kbps``,
    ``*_msps``, ``*_kblocks_s``, ``*_kmb_s`` — sustained simulated
    rates, functions of tick counts only) drops more than
    ``--tolerance`` (default 25%) below its baseline,
  * a ``*compiled_speedup`` ratio (compiled backend vs event-queue
    wall time, measured on one machine so the machine cancels out)
    drops more than ``--tolerance`` (default 25%) below its
    baseline,
  * a ``*warm_start_speedup`` ratio (Chip::clone warm start vs
    cold codegen + program load, both timed in the same process so
    the machine cancels out) drops more than ``--tolerance``,
  * any other wall-clock throughput metric (``*_ticks_per_sec``,
    ``*_mticks_per_s``, ``*_speedup`` — including the
    parallel-columns ``*parallel_speedup`` ratio, whose team
    benefit depends on the host's spare cores — the fleet's
    ``chips_s`` / ``ticks_s`` serving rates) drops more than
    ``--wall-tolerance`` (default 60%) — looser because the
    committed baselines and the CI runner are different machines;
    the floor still catches order-of-magnitude slowdowns,
  * a ``bit_exact`` or ``agreement`` flag regresses (1 in the
    baseline, 0 now),
  * a measured ``savings_pct`` drops more than 5 percentage points
    (``paper_*`` reference values are informational and ignored) —
    this includes the DVFS governor's per-app
    ``governed_savings_pct`` and its worst-app headline in
    ``BENCH_dvfs.json``,
  * an ``*_gap_pct`` divergence (lower is better — e.g. the
    explorer's optimizer-vs-measured-frontier gap, or the DVFS
    governor's ``oracle_gap_pct`` against the per-phase oracle)
    rises more than 5 percentage points.

The governed simulation rate ``governed_sim_ticks_per_sec`` rides
the ``*_ticks_per_sec`` wall-clock class above.

Each file's ``host`` section (nproc, compiler, build type, git sha;
stamped by ``bench/bench_json.hh``) is not gated. When the baseline
and fresh files name different machines or builds — or a side has no
stamp — the comparison is reported as cross-host, so a wall-clock
verdict is read as one across machines; the tolerances stay the same.

Baselines missing a section/key that the fresh file has are fine
(new benches extend the trajectory); fresh files missing a baseline
key are a failure (the trajectory must never silently lose a
metric), and a committed ``BENCH_*.json`` with no fresh counterpart
at all is a failure (every trajectory file must be re-emitted by
the bench run — a bench dropped from CI cannot silently exempt its
baseline from the gate).

Usage:
    tools/bench_check.py --baseline-dir <dir-with-committed-json> \
                         --fresh-dir <dir-with-new-json>
    tools/bench_check.py --self-test  # prove the gate still bites
"""

import argparse
import json
import pathlib
import sys

SIMULATED_SUFFIXES = ("_kbps", "_msps", "_kblocks_s", "_kmb_s")
WALL_CLOCK_SUFFIXES = ("_ticks_per_sec", "_mticks_per_s", "_speedup",
                       "chips_s", "ticks_s")
SAVINGS_DROP_PP = 5.0
GAP_RISE_PP = 5.0
# The host-stamp fields that name the machine and build; git_sha is
# expected to differ between a baseline and a fresh run.
HOST_FIELDS = ("nproc", "compiler", "build_type")


def host_label(host):
    if host is None:
        return "unstamped"
    return ", ".join(f"{f}={host.get(f, '?')}" for f in HOST_FIELDS)


def cross_host_note(name, base_host, fresh_host):
    """A note when the two files were measured on different hosts
    (or a side is unstamped); None for a same-host comparison."""
    same = (base_host is not None and fresh_host is not None and
            all(base_host.get(f) == fresh_host.get(f)
                for f in HOST_FIELDS))
    if same:
        return None
    return (f"{name}: cross-host comparison (baseline "
            f"{host_label(base_host)}; fresh {host_label(fresh_host)})")


def classify(key):
    if key in ("bit_exact", "agreement"):
        return "bit_exact"
    if key.endswith("savings_pct") and not key.startswith("paper"):
        return "savings"
    if key.endswith("gap_pct"):
        return "gap"
    if key.endswith(SIMULATED_SUFFIXES):
        return "throughput"
    # Same-machine backend-vs-backend ratio: the machine cancels
    # out, so it gets the tight simulated tolerance, not the loose
    # cross-machine wall-clock one.
    if key.endswith("compiled_speedup"):
        return "throughput"
    # Likewise the warm-start ratio: clone and cold build are timed
    # back to back in one process, so the machine cancels out.
    if key.endswith("warm_start_speedup"):
        return "throughput"
    # The parallel-columns ratio does NOT cancel the machine: the
    # column team's benefit depends on spare host cores, and the
    # committed baseline and the CI runner differ exactly there —
    # so it gets the loose wall-clock tolerance.
    if key.endswith("parallel_speedup"):
        return "wall_throughput"
    if key.endswith(WALL_CLOCK_SUFFIXES):
        return "wall_throughput"
    return None


def check_file(name, baseline, fresh, tolerance, wall_tolerance,
               failures):
    for section, base_kv in baseline.items():
        fresh_kv = fresh.get(section)
        if fresh_kv is None:
            failures.append(f"{name}: section '{section}' vanished")
            continue
        for key, base_v in base_kv.items():
            kind = classify(key)
            if kind is None:
                continue
            if key not in fresh_kv:
                failures.append(
                    f"{name}: {section}.{key} vanished "
                    f"(baseline {base_v})")
                continue
            new_v = fresh_kv[key]
            if kind == "bit_exact":
                if new_v < base_v:
                    failures.append(
                        f"{name}: {section}.{key} regressed "
                        f"{base_v} -> {new_v}")
            elif kind == "savings":
                if new_v < base_v - SAVINGS_DROP_PP:
                    failures.append(
                        f"{name}: {section}.{key} dropped "
                        f"{base_v:.2f} -> {new_v:.2f} "
                        f"(> {SAVINGS_DROP_PP} pp)")
            elif kind == "gap":
                if new_v > base_v + GAP_RISE_PP:
                    failures.append(
                        f"{name}: {section}.{key} rose "
                        f"{base_v:.2f} -> {new_v:.2f} "
                        f"(> {GAP_RISE_PP} pp)")
            else:
                tol = (tolerance if kind == "throughput"
                       else wall_tolerance)
                floor = base_v * (1.0 - tol)
                if new_v < floor:
                    pct = (1.0 - new_v / base_v) * 100 if base_v else 0
                    failures.append(
                        f"{name}: {section}.{key} dropped "
                        f"{base_v:.4g} -> {new_v:.4g} "
                        f"(-{pct:.1f}%, floor {floor:.4g})")


def compare_dirs(baseline_dir, fresh_dir, tolerance, wall_tolerance):
    """(failures, files_checked, cross_host_notes) across every
    committed baseline. failures is None when the baseline dir holds
    no trajectory files at all."""
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        return None, 0, []

    failures = []
    notes = []
    checked = 0
    for base_path in baselines:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            failures.append(f"{base_path.name}: committed baseline "
                            f"has no fresh counterpart (not "
                            f"re-emitted by the bench run)")
            continue
        with open(base_path) as f:
            baseline = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        note = cross_host_note(base_path.name, baseline.pop("host", None),
                               fresh.pop("host", None))
        if note:
            notes.append(note)
        check_file(base_path.name, baseline, fresh, tolerance,
                   wall_tolerance, failures)
        checked += 1
    return failures, checked, notes


def self_test():
    """Plant every category of regression and prove the gate
    bites, then prove a clean trajectory passes."""
    import shutil
    import tempfile

    root = pathlib.Path(tempfile.mkdtemp(prefix="bench_check_test"))
    try:
        base = root / "base"
        fresh = root / "fresh"
        base.mkdir()
        fresh.mkdir()
        good = {
            "sec": {
                "x_kbps": 100.0,
                "compiled_speedup": 12.0,
                "ddc_warm_start_speedup": 6.0,
                "parallel_speedup": 1.8,
                "fast_mticks_per_s": 10.0,
                "chips_s": 200.0,
                "ticks_s": 1.4e7,
                "bit_exact": 1,
                "agreement": 1,
                "savings_pct": 30.0,
                "baseline_gap_pct": 1.0,
                "governed_savings_pct": 23.0,
                "oracle_gap_pct": 28.0,
                "governed_sim_ticks_per_sec": 1.8e7,
            }
        }
        bad = {
            "sec": {
                "x_kbps": 60.0,          # -40% simulated throughput
                "compiled_speedup": 8.0,  # -33% backend ratio
                "ddc_warm_start_speedup": 4.0,  # -33% warm-start
                "parallel_speedup": 0.3,  # -83% column-team ratio
                "fast_mticks_per_s": 2.0,  # -80% wall throughput
                "chips_s": 40.0,         # -80% fleet serving rate
                "ticks_s": 2.8e6,        # -80% fleet tick rate
                "bit_exact": 0,          # flag regressed
                "agreement": 0,          # flag regressed
                "savings_pct": 20.0,     # -10 pp savings
                "baseline_gap_pct": 9.0,  # +8 pp gap
                "governed_savings_pct": 15.0,  # -8 pp DVFS savings
                "oracle_gap_pct": 35.0,  # +7 pp DVFS oracle gap
                "governed_sim_ticks_per_sec": 3.0e6,  # -83% wall
            }
        }
        (base / "BENCH_x.json").write_text(json.dumps(good))
        (base / "BENCH_gone.json").write_text(json.dumps(good))
        (fresh / "BENCH_x.json").write_text(json.dumps(bad))
        # BENCH_gone.json deliberately not re-emitted.

        failures, _, _ = compare_dirs(base, fresh, 0.25, 0.60)
        wanted = ["x_kbps", "compiled_speedup",
                  "ddc_warm_start_speedup", "parallel_speedup",
                  "fast_mticks_per_s", "chips_s", "ticks_s",
                  "bit_exact",
                  "agreement", "savings_pct", "baseline_gap_pct",
                  "governed_savings_pct", "oracle_gap_pct",
                  "governed_sim_ticks_per_sec",
                  "no fresh counterpart"]
        text = "\n".join(failures)
        missed = [w for w in wanted if w not in text]
        if missed:
            print(f"bench_check --self-test: planted regressions "
                  f"NOT caught: {missed}\ngot:\n  " +
                  "\n  ".join(failures), file=sys.stderr)
            return 1

        (fresh / "BENCH_x.json").write_text(json.dumps(good))
        (fresh / "BENCH_gone.json").write_text(json.dumps(good))
        failures, checked, _ = compare_dirs(base, fresh, 0.25, 0.60)
        if failures or checked != 2:
            print("bench_check --self-test: clean trajectory "
                  "flagged:\n  " + "\n  ".join(failures),
                  file=sys.stderr)
            return 1

        # Host stamps: a same-host pair (only the sha moved) is not
        # reported; another machine, another build type or a missing
        # stamp is reported as cross-host — and never gates.
        host = {"nproc": 4, "compiler": "gcc 12.2.0",
                "build_type": "Release", "git_sha": "aaaa"}
        cases = [
            ("same host", host, dict(host, git_sha="bbbb"), False),
            ("other nproc", host, dict(host, nproc=16), True),
            ("other build", host, dict(host, build_type="Debug"), True),
            ("unstamped baseline", None, host, True),
        ]
        for label, base_host, fresh_host, crosses in cases:
            for d, h in ((base, base_host), (fresh, fresh_host)):
                stamped = dict(good)
                if h is not None:
                    stamped["host"] = h
                (d / "BENCH_x.json").write_text(json.dumps(stamped))
            failures, _, notes = compare_dirs(base, fresh, 0.25, 0.60)
            reported = any("BENCH_x.json: cross-host" in n
                           for n in notes)
            if failures or reported != crosses:
                print(f"bench_check --self-test: host stamps "
                      f"({label}) misreported: failures {failures}, "
                      f"notes {notes}", file=sys.stderr)
                return 1
        print("bench_check --self-test: all planted regressions "
              "caught, clean trajectory passes, cross-host pairs "
              "reported")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", type=pathlib.Path)
    ap.add_argument("--fresh-dir", type=pathlib.Path)
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional drop for simulated "
                         "throughput metrics (default 0.25)")
    ap.add_argument("--wall-tolerance", type=float, default=0.60,
                    help="allowed fractional drop for wall-clock "
                         "metrics, looser for cross-machine "
                         "baselines (default 0.60)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate itself catches planted "
                         "regressions")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.baseline_dir or not args.fresh_dir:
        ap.error("--baseline-dir and --fresh-dir are required "
                 "(unless --self-test)")

    failures, checked, notes = compare_dirs(
        args.baseline_dir, args.fresh_dir, args.tolerance,
        args.wall_tolerance)
    if failures is None:
        print(f"bench_check: no BENCH_*.json baselines in "
              f"{args.baseline_dir}", file=sys.stderr)
        return 2

    for note in notes:
        print(f"bench_check: {note}")
    if failures:
        print("bench_check: PERF TRAJECTORY REGRESSED:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print(f"bench_check: {checked} trajectory file(s) OK "
          f"(simulated tolerance {args.tolerance:.0%}, wall-clock "
          f"{args.wall_tolerance:.0%}, savings drop "
          f"< {SAVINGS_DROP_PP} pp, bit_exact stable)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
