"""Alternated benchmark pairs of a parent revision and this checkout.

    python3 scripts/bench_pairs.py PARENT --workload nbody-hunt --pairs 10

Exports the parent revision's committed files into a temporary directory
(`git archive`, so the repository itself gains no worktree entry; TMPDIR
chooses where) and runs `bench/run.py --trace 0` on both trees, one pair
per workload seed: pair i uses seed FIRST_SEED + i on both sides, and the
side that runs first alternates from pair to pair, so slow stretches of the
machine fall on both.
The change side is this checkout as it is on disk, uncommitted edits
included.  Every run is printed as it finishes.  At the end, for each
workload and end-to-end metric, the script prints both medians, the
parent's interquartile range (75th minus 25th percentile, linear
interpolation), the relative change of the medians and the pairs the change
won (better in the direction BENCHMARK.json gives the metric), and whether
a gain claim holds:

- the change wins at least 90% of the pairs (9 of 10), and
- the medians differ by more than the parent's interquartile range.

It also prints each side's "work per pass" lines, which a change meant to
do the same work must leave equal.  It exits 1, naming each such run, when
a run failed a check or exited non-zero; a run that printed no result for a
workload it was asked for stops the script there.  bench/ is only read;
the exported tree is removed at the end, also when a run fails or the
script is interrupted.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9  # a gain claim needs the change to win this share of pairs
WORKLOADS = ("nbody-hunt", "small-corpus", "ve-dynamics")  # what --workload all runs


def export_tree(rev: str, into: Path) -> Path:
    """The committed files of rev, extracted under into/tree."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    tree = into / "tree"
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(tree, filter="data")
    return tree


def run_bench(tree: Path, workload: str, seed: int, seconds: float, name: str):
    """({workload: {"metrics": {name: value}, "work": line, "correct": bool}},
    exit code) of one run, which name names in messages.  A run that printed
    no result for a workload it was asked for stops the script (exit 1)."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    out, current, work = {}, None, ""
    for line in proc.stdout.splitlines():
        if line.startswith("workload "):
            current = line.split()[1].rstrip(",")
        elif line.strip().startswith("work per pass:"):
            work = line.strip()[len("work per pass:"):].strip()
        elif line.startswith("{"):
            result = json.loads(line)
            out[current] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                            "work": work, "correct": result["correct"]}
    missing = [w for w in (WORKLOADS if workload == "all" else (workload,)) if w not in out]
    if missing:
        raise SystemExit(f"bench_pairs.py: {name}: bench/run.py in {tree} gave no result for "
                         f"{', '.join(missing)} (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return out, proc.returncode


def directions() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def summarize(runs: dict, better: dict) -> list:
    """Report lines: per workload and metric, medians, parent IQR, wins."""
    lines = []
    for workload in runs["parent"][0]:
        lines.append(f"{workload}:")
        for metric, direction in better.items():
            parent = [r[workload]["metrics"][metric] for r in runs["parent"]]
            change = [r[workload]["metrics"][metric] for r in runs["change"]]
            sign = -1.0 if direction == "lower" else 1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            mp, mc = statistics.median(parent), statistics.median(change)
            iqr = float(np.percentile(parent, 75) - np.percentile(parent, 25))
            rel = f"{100 * (mc - mp) / mp:+.1f}%" if mp else "n/a"
            holds = wins >= WIN_SHARE * len(parent) and sign * (mc - mp) > iqr
            lines.append(f"  {metric}: parent {mp:.6g} [IQR {iqr:.3g}] -> change {mc:.6g} "
                         f"({rel}), change won {wins}/{len(parent)}, "
                         f"gain claim {'holds' if holds else 'fails'}")
        same = sum(p[workload]["work"] == c[workload]["work"]
                   for p, c in zip(runs["parent"], runs["change"]))
        lines.append(f"  work per pass equal in {same}/{len(runs['parent'])} pairs")
        for side in ("parent", "change"):
            work = sorted({r[workload]["work"] for r in runs[side]})
            lines.append(f"  work per pass, {side}: " + " | ".join(work))
        failed = sum(not r[workload]["correct"] for side in runs.values() for r in side)
        lines.append(f"  runs with a failed check: {failed}")
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision to compare against, e.g. HEAD~1")
    ap.add_argument("--workload", default="nbody-hunt",
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--first-seed", type=int, default=1,
                    help="workload seed of the first pair; pair i uses FIRST_SEED + i")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    better = directions()
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": export_tree(args.parent, scratch), "change": ROOT}
        runs = {"parent": [], "change": []}
        failed = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                name = f"pair {i + 1} seed {seed} {side}"
                result, code = run_bench(trees[side], args.workload, seed, args.seconds, name)
                runs[side].append(result)
                shown = ", ".join(f"{w} wall_s {r['metrics']['wall_s']:.4f}"
                                  for w, r in result.items())
                print(f"{name}: {shown}", flush=True)
                wrong = [w for w, r in result.items() if not r["correct"]]
                if code or wrong:
                    failed.append(f"{name} (exit {code}): failed checks in "
                                  f"{', '.join(wrong) or 'no workload'}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.pairs} alternated pairs, parent {args.parent} against this checkout, "
          f"--seconds {args.seconds:g}")
    print("\n".join(summarize(runs, better)))
    for line in failed:
        print(f"bench_pairs.py: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
