#!/usr/bin/env python3
"""Docs link / file-reference checker.

Scans ``README.md`` and ``docs/*.md`` for

  * markdown links ``[text](target)`` whose target is intra-repo
    (no scheme, no pure anchor): the referenced file must exist,
    relative to the markdown file's directory (anchors are stripped
    before checking);
  * repo file references in prose or code spans — any token shaped
    like ``src/...``, ``docs/...``, ``tests/...``, ``tools/...``,
    ``bench/...`` or ``examples/...``, plus committed
    ``BENCH_*.json`` names: the path must exist relative to the repo
    root. Brace groups expand (``codegen.{hh,cc}`` checks both),
    trailing ``/`` means a directory, and tokens containing ``*``
    are treated as intentional wildcards and skipped;
  * measured numbers quoted in results tables: a markdown table row
    that cites a ``BENCH_*.json`` and contains percentage cells is
    cross-checked — the last percentage in the row must match the
    cited trajectory file's measured ``savings_pct`` (to the quoted
    precision), so re-baselining a bench without updating the docs
    fails the gate instead of leaving a stale headline number;
  * quoted speedups: a table row that cites a ``BENCH_*.json`` and
    contains ``N.Nx`` speedup cells is cross-checked — every quoted
    speedup must match one of the cited file's ``*speedup`` values
    (to the quoted precision), so the compiled-backend headline
    ratio cannot drift from ``BENCH_core.json``;
  * stale symbols: every ``apps::``, ``sim::``, ``mapping::`` or
    ``power::`` name inside a backticked code span must appear as an
    identifier in the code (comments stripped) of some header under
    ``src/``, so a deleted or renamed API cannot linger in the docs.

Docs rot silently when code moves; CI runs this so a renamed source
file or a dropped bench JSON fails the build instead of leaving a
stale pointer in the documentation.

Usage:
    tools/check_docs.py [--repo-root <dir>]
    tools/check_docs.py --self-test   # prove the gate still catches rot

``--self-test`` builds a scratch repo with planted rot (broken link,
stale reference, brace group, root-absolute link, stale table
number, stale symbol) and fails unless the checker flags every one of them and
passes the clean version — CI runs it before the real check so a
regressed regex cannot make the docs gate pass vacuously.
"""

import argparse
import itertools
import json
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
PCT_RE = re.compile(r"(-?\d+(?:\.\d+)?)%")
SPEEDUP_RE = re.compile(r"(\d+(?:\.\d+)?)[x\u00d7](?![\w(])")
CODE_SPAN_RE = re.compile(r"`([^`\n]+)`")
SYMBOL_RE = re.compile(r"\b((?:apps|sim|mapping|power)::\w+(?:::\w+)*)")
COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
PATH_RE = re.compile(
    r"(?<![\w/-])((?:src|docs|tests|tools|bench|examples)/"
    r"[A-Za-z0-9_.{},/-]+|BENCH_[A-Za-z0-9_*]+\.json)")


def expand_braces(token):
    """codegen.{hh,cc} -> [codegen.hh, codegen.cc] (one group)."""
    m = re.search(r"\{([^}]*)\}", token)
    if not m:
        return [token]
    head, tail = token[: m.start()], token[m.end():]
    return list(
        itertools.chain.from_iterable(
            expand_braces(head + alt + tail)
            for alt in m.group(1).split(",")))


def measured_savings_pct(json_path):
    """The headline measured percentage of a trajectory file, or
    None: a ``*power_measured`` section's ``savings_pct``, else the
    explorer summary's ``max_baseline_gap_pct``."""
    try:
        data = json.loads(json_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    for section, kv in sorted(data.items()):
        if section.endswith("power_measured") and "savings_pct" in kv:
            return float(kv["savings_pct"])
    for section, kv in sorted(data.items()):
        if "max_baseline_gap_pct" in kv:
            return float(kv["max_baseline_gap_pct"])
    return None


def trajectory_speedups(json_path):
    """Every ``*speedup`` value in a trajectory file, by section
    and key, or an empty dict when unreadable."""
    try:
        data = json.loads(json_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    out = {}
    for section, kv in sorted(data.items()):
        for key, v in sorted(kv.items()):
            if key.endswith("speedup"):
                out[f"{section}.{key}"] = float(v)
    return out


def check_table_row(md_path, repo_root, lineno, line, failures):
    """Cross-check a results-table row's measured %% and quoted
    speedups against the trajectory file it cites."""
    if "|" not in line:
        return
    cited = re.findall(r"\bBENCH_\w+\.json\b", line)
    if len(cited) != 1:
        return
    pcts = PCT_RE.findall(line)
    if pcts:
        actual = measured_savings_pct(repo_root / cited[0])
        if actual is not None:
            quoted = pcts[-1]  # last % cell = the measured column
            # Match to the precision the doc quotes (a row saying
            # 13.0% is fine while the json holds 13.0474).
            decimals = (len(quoted.split(".")[1])
                        if "." in quoted else 0)
            if abs(float(quoted) - actual) > \
                    0.5 * 10.0**-decimals + 1e-9:
                failures.append(
                    f"{md_path.relative_to(repo_root)}:{lineno}: "
                    f"quoted measured savings {quoted}% does not "
                    f"match {cited[0]} (savings_pct = {actual:.4g})")
    speedups = trajectory_speedups(repo_root / cited[0])
    for quoted in SPEEDUP_RE.findall(line):
        if not speedups:
            break
        decimals = len(quoted.split(".")[1]) if "." in quoted else 0
        tol = 0.5 * 10.0**-decimals + 1e-9
        if not any(abs(float(quoted) - v) <= tol
                   for v in speedups.values()):
            have = ", ".join(f"{k}={v:.4g}"
                             for k, v in speedups.items())
            failures.append(
                f"{md_path.relative_to(repo_root)}:{lineno}: quoted "
                f"speedup {quoted}x matches no *speedup value in "
                f"{cited[0]} ({have})")


def header_identifiers(repo_root):
    """Every identifier in the code of the headers under src/."""
    ids = set()
    for header in (repo_root / "src").rglob("*.hh"):
        code = COMMENT_RE.sub("", header.read_text(encoding="utf-8"))
        ids.update(re.findall(r"\w+", code))
    return ids


def check_symbols(md_path, repo_root, lineno, line, identifiers,
                  failures):
    """Flag backticked namespace-qualified names no header declares."""
    for span in CODE_SPAN_RE.findall(line):
        for symbol in SYMBOL_RE.findall(span):
            missing = [name for name in symbol.split("::")[1:]
                       if name not in identifiers]
            if missing:
                failures.append(
                    f"{md_path.relative_to(repo_root)}:{lineno}: "
                    f"stale symbol '{symbol}' ('{missing[0]}' is in "
                    f"no src/ header)")


def check_file(md_path, repo_root, identifiers, failures):
    text = md_path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        check_table_row(md_path, repo_root, lineno, line, failures)
        check_symbols(md_path, repo_root, lineno, line, identifiers,
                      failures)
        for m in LINK_RE.finditer(line):
            target = m.group(1)
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # http:, https:, mailto:, ...
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure anchor
            if target.startswith("/"):
                # GitHub resolves root-absolute links against the
                # repository, not the filesystem.
                resolved = (repo_root / target.lstrip("/")).resolve()
            else:
                resolved = (md_path.parent / target).resolve()
            if not resolved.exists():
                failures.append(
                    f"{md_path.relative_to(repo_root)}:{lineno}: "
                    f"broken link '{m.group(1)}'")
        for m in PATH_RE.finditer(line):
            token = m.group(1).rstrip(".,;:")
            if "*" in token:
                continue  # intentional wildcard (BENCH_*.json)
            for path in expand_braces(token):
                resolved = repo_root / path
                ok = (resolved.is_dir()
                      if path.endswith("/") else resolved.exists())
                if not ok:
                    failures.append(
                        f"{md_path.relative_to(repo_root)}:{lineno}:"
                        f" stale file reference '{path}'")


def run_checks(root):
    """All failures across the root's README.md + docs/*.md, or
    None when there is nothing to check."""
    docs = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        docs.insert(0, readme)
    if not docs:
        return None
    failures = []
    identifiers = header_identifiers(root)
    for md in docs:
        check_file(md, root, identifiers, failures)
    return failures


def self_test():
    """Plant every category of rot and prove the checker bites."""
    import json as json_mod
    import shutil
    import tempfile

    root = pathlib.Path(tempfile.mkdtemp(prefix="check_docs_test"))
    try:
        (root / "docs").mkdir()
        (root / "docs" / "GOOD.md").write_text("fine\n")
        (root / "src").mkdir()
        (root / "src" / "real.hh").write_text(
            "// fleetGone is only named in a comment\n"
            "struct RealThing { void run(); };\n")
        (root / "src" / "real.cc").write_text("")
        (root / "BENCH_x.json").write_text(json_mod.dumps(
            {"x_power_measured": {"savings_pct": 37.3005}}))
        (root / "BENCH_y.json").write_text(json_mod.dumps(
            {"explore_summary": {"max_baseline_gap_pct": 0.0}}))
        (root / "BENCH_z.json").write_text(json_mod.dumps(
            {"core": {"compiled_speedup": 11.0421,
                      "fastpath_speedup": 2.66}}))

        clean = ("[good](docs/GOOD.md) [abs](/docs/GOOD.md) "
                 "`src/real.{hh,cc}` see BENCH_*.json\n"
                 "`apps::RealThing::run()` and `sim::RealThing`\n"
                 "| app | 32% | 37.3% | `BENCH_x.json` |\n"
                 "| explorer | gap 0.0% | `BENCH_y.json` |\n"
                 "| compiled | 11.0x | `BENCH_z.json` |\n")
        rotten = ("[gone](docs/NOPE.md) [abs](/docs/NOPE.md) "
                  "`src/gone.{hh,cc}`\n"
                  "`apps::fleetGone(p)` and `apps::RealThing`\n"
                  "| app | 32% | 12.0% | `BENCH_x.json` |\n"
                  "| explorer | gap 7.0% | `BENCH_y.json` |\n"
                  "| compiled | 15.0x | `BENCH_z.json` |\n")

        (root / "README.md").write_text(clean)
        failures = run_checks(root)
        if failures:
            print("check_docs --self-test: clean tree flagged:\n  " +
                  "\n  ".join(failures), file=sys.stderr)
            return 1

        (root / "README.md").write_text(rotten)
        failures = run_checks(root)
        wanted = ["docs/NOPE.md", "/docs/NOPE.md", "src/gone.hh",
                  "src/gone.cc", "12.0%", "7.0%", "15.0x",
                  "apps::fleetGone"]
        text = "\n".join(failures)
        missed = [w for w in wanted if w not in text]
        if missed:
            print(f"check_docs --self-test: planted rot NOT caught: "
                  f"{missed}\ngot:\n  " + "\n  ".join(failures),
                  file=sys.stderr)
            return 1
        print("check_docs --self-test: all planted rot caught, "
              "clean tree passes")
        return 0
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--repo-root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent)
    ap.add_argument("--self-test", action="store_true",
                    help="verify the checker itself catches "
                         "planted rot")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = args.repo_root.resolve()

    failures = run_checks(root)
    if failures is None:
        print("check_docs: no README.md or docs/*.md found",
              file=sys.stderr)
        return 2
    if failures:
        print("check_docs: STALE DOCUMENTATION:")
        for f in failures:
            print(f"  FAIL {f}")
        return 1
    print("check_docs: OK (links, repo file references, quoted "
          "bench numbers and namespace symbols all resolve)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
