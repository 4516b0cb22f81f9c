"""Recall of the Darboux hunt over many hunt seeds, on the benchmark's problems.

    python3 scripts/recall_sweep.py --seeds 0-9 --out after.json
    python3 scripts/recall_sweep.py --compare before.json after.json
    python3 scripts/recall_sweep.py --parent HEAD~1 --seeds 0-9

Runs `analyze` on the 11 problems of the benchmark's `nbody-hunt` and
`small-corpus` workloads, with the options those workloads use, at each
hunt seed.  For every problem it prints the accepted-point count, the
certificate status and the witness eigenvalues.  --out also writes the
accepted points and their spectra, so that --compare can line up two sweeps
(say, before and after a change to the hunt's numerics): it prints both
counts side by side, names each point one sweep accepted and the other did
not, and totals the accepted points; it exits 1 when any row differs, so
that it can gate a change.  Points are matched one to one by their
Hessian spectra, which do not move along a family of Darboux points (the
cone's circle, an n-body rotation orbit) while the coordinates a start
converges to do; points without a spectrum are matched by coordinates, with
the hunt's own dedup tolerance.  Each problem's PointCalculus is built
once, by the workload's set-up, and passed to `analyze` at every hunt seed
(output_digest.run_with_calculus).

--parent REV sweeps the same hunt seeds on REV's committed files and on
this checkout and compares the two as --compare does, exiting 1 when any
row differs: REV is exported into a temporary directory (bench_pairs'
export_tree; TMPDIR chooses where), and each sweep is a run of this
script in its tree (output_digest.run_tree), so that both come from the
same lines.  The temporary directory is removed also when a run fails.

The problems and options are read from bench/, which this script does not
change; algpot is imported from this checkout's src/.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as in the benchmark; NumPy reads these on import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]

import algpot  # noqa: E402
import workloads  # noqa: E402
from algpot.darboux import DEDUP_TOL  # noqa: E402
from bench_pairs import export_tree  # noqa: E402
from output_digest import run_tree, run_with_calculus  # noqa: E402

WORKLOAD_NAMES = ("nbody-hunt", "small-corpus")


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _pairs(values) -> list:
    return [[z.real, z.imag] for z in map(complex, values)]


def _spectrum(spec):
    """Every eigenvalue, gauge ones included, repeated by multiplicity; sorted."""
    if spec is None:
        return None
    values = [c["value"] for c in spec["clusters"] for _ in range(c["multiplicity"])]
    return _pairs(sorted(values, key=lambda z: (z.real, z.imag)))


def sweep_seed(hunt_seed: int, states: dict) -> dict:
    """{problem: {"accepted", "status", "witnesses", "points"}} at one hunt
    seed.  states holds each workload's built problems, set up on first use
    and kept for the next hunt seed."""
    out = {}
    for name in WORKLOAD_NAMES:
        plan = workloads.WORKLOADS[name](algpot, 0, hunt_seed, {})
        if name not in states:
            states[name] = plan.setup()
        for task in plan.tasks:
            report, _ = run_with_calculus(task, states[name][task.problem])
            cert = report["certificate"]
            out[task.label] = {
                "accepted": report["darboux"]["n_accepted"],
                "status": cert["status"],
                "witnesses": sorted({str(w["eigenvalue"]) for w in cert["witnesses"]}),
                "points": [{"start": p["start"],
                            "point": _pairs(p["point"]),
                            "spectrum": _spectrum(p["spectrum"])}
                           for p in report["points"]],
            }
    return dict(sorted(out.items()))


def print_seed(seed: int, problems: dict) -> None:
    for name, r in problems.items():
        print(f"seed {seed:>2}  {name:<16} {r['accepted']:>3}  {r['status']:<22} "
              f"{' '.join(r['witnesses'])}", flush=True)


def _as_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _same(p, q) -> bool:
    """One point, by spectrum when both have one, else by coordinates."""
    key = "spectrum" if p["spectrum"] is not None and q["spectrum"] is not None else "point"
    x, y = _as_array(p[key]), _as_array(q[key])
    if x.shape != y.shape:
        return False
    return bool(np.max(np.abs(x - y), initial=0.0) <= DEDUP_TOL * max(1.0, np.max(np.abs(x), initial=0.0)))


def _unmatched(points, others) -> list:
    """The points of `points` left over by a one-to-one matching with `others`."""
    rest = list(others)
    out = []
    for p in points:
        hit = next((i for i, q in enumerate(rest) if _same(p, q)), None)
        if hit is None:
            out.append(p)
        else:
            del rest[hit]
    return out


def _describe(p) -> str:
    x = _as_array(p["point"])
    kind = "real" if float(np.max(np.abs(x.imag))) <= 1e-9 * max(1.0, float(np.max(np.abs(x)))) \
        else "complex"
    spec = "no spectrum" if p["spectrum"] is None else "spectrum " + " ".join(
        f"{z.real:.4g}" if abs(z.imag) < 1e-9 else f"{z:.4g}" for z in _as_array(p["spectrum"]))
    return f"{p['start']} ({kind}, max |x| {float(np.max(np.abs(x))):.4g}, {spec})"


def compare(before: dict, after: dict) -> int:
    """Print both sweeps side by side; the number of rows that differ."""
    changed = 0
    totals = [0, 0]
    for seed in sorted(set(before) | set(after), key=int):
        b_seed, a_seed = before.get(seed, {}), after.get(seed, {})
        for name in sorted(set(b_seed) | set(a_seed)):
            b, a = b_seed.get(name), a_seed.get(name)
            if b is None or a is None:
                print(f"seed {seed:>2}  {name:<16} only in one sweep")
                changed += 1
                continue
            totals[0] += b["accepted"]
            totals[1] += a["accepted"]
            same = (b["accepted"], b["status"], b["witnesses"]) == \
                   (a["accepted"], a["status"], a["witnesses"])
            lost = _unmatched(b["points"], a["points"])
            gained = _unmatched(a["points"], b["points"])
            mark = "  " if same and not lost and not gained else "* "
            changed += mark != "  "
            print(f"{mark}seed {seed:>2}  {name:<16} {b['accepted']:>3} -> {a['accepted']:<3} "
                  f"{b['status']} -> {a['status']}")
            if b["witnesses"] != a["witnesses"]:
                print(f"      witnesses {' '.join(b['witnesses']) or '-'} -> "
                      f"{' '.join(a['witnesses']) or '-'}")
            for p in lost:
                print(f"      lost   {_describe(p)}")
            for p in gained:
                print(f"      gained {_describe(p)}")
    print(f"total accepted: {totals[0]} -> {totals[1]}; {changed} rows differ")
    return changed


def compare_with(rev: str, seeds: str) -> int:
    """Sweeps seeds on rev's committed files and on this checkout, each a
    run of this script in its tree, and compares the two (compare): the
    number of rows that differ."""
    scratch = Path(tempfile.mkdtemp(prefix="recall-sweep-"))
    try:
        sweeps = []
        for tree in (export_tree(rev, scratch), ROOT):
            out = scratch / f"sweep-{len(sweeps)}.json"
            run_tree(tree, __file__, ["--seeds", seeds, "--out", str(out)])
            sweeps.append(json.loads(out.read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return compare(*sweeps)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-9", help="hunt seeds, e.g. 0-9 or 0,3,5-7")
    ap.add_argument("--out", help="write the sweep, points included, to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                    help="compare two written sweeps instead of running one")
    ap.add_argument("--parent", metavar="REV",
                    help="sweep git revision REV and this checkout, and compare them")
    args = ap.parse_args(argv)

    if args.parent:
        return 1 if compare_with(args.parent, args.seeds) else 0
    if args.compare:
        before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 1 if compare(before, after) else 0

    results, states = {}, {}
    for seed in parse_seeds(args.seeds):
        results[str(seed)] = sweep_seed(seed, states)
        print_seed(seed, results[str(seed)])
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    total = sum(r["accepted"] for problems in results.values() for r in problems.values())
    print(f"total accepted: {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
