"""One SHA-256 per output of the benchmark's workloads, to compare two trees.

    python3 scripts/output_digest.py > after.txt
    python3 scripts/output_digest.py --parent HEAD~1

Prints one line per output: the `report_json` of `analyze` on the 11
problems of the benchmark's `nbody-hunt` and `small-corpus` workloads at
hunt seeds 0 and 1, each `ve-dynamics` output (trajectory, homothetic
orbit, monodromy report) at workload seeds 0 and 1, and after each analysis
one line per Darboux Newton start it made, in start order: the start's
result, the final iterate and residual that `darboux._newton` returned
(the first two of its values, which is all that an older `_newton`
returns), or None.  A report shows only the starts that converged; the per-start lines
also cover every failed start, so a change that moves one, even to another
failure, shows.  After each analysis and each `ve-dynamics` output comes
one line per fiber solve it made, in call order: the result of
`PointCalculus.solve_fiber`, the fiber point w or None.  These cover
validation's samples and the flow's starts and projections, which the
outputs show only through a probe's verdict or a corrected state; a solve
made by a workload's set-up is not listed.  After each analysis's fiber
lines comes one line per Sigma probe it made, in call order: the verdict
of `PointCalculus._near_zero_set`, which a report shows only through a
rejected candidate or `validation.ok`.  `_newton`, `solve_fiber` and
`_near_zero_set` are wrapped from here, as bench/instrument.py wraps
`_newton`.  A digest covers every bit of every number in the output, so
two trees whose listings `diff` clean produce bit-identical outputs on
these inputs.  A change meant to leave the numerics alone is checked this
way; one that moves last bits is judged by `scripts/recall_sweep.py`
instead.

Each problem's PointCalculus is built once, by the workload's set-up, and
passed to `analyze` at both hunt seeds; a tree whose `analyze` takes no
calculus builds its own per analysis, which gives the same reports.

--parent REV compares with an older revision: it exports REV's committed
files into a temporary directory (`git archive`, as bench_pairs.py does;
TMPDIR chooses where), runs a copy of this script there, so that both
listings come from the same lines, then lists this checkout, prints the
label of each line that differs or is only in one listing, and exits 1
when any does.  The exported tree is removed also when a run fails.
scripts/trial_stats.py --parent compares its listing the same way
(`compare`).

The problems and options are read from bench/, which this script does not
change; algpot is imported from the src/ beside this script.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

# one BLAS thread, as in the benchmark; NumPy reads these on import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]

import algpot  # noqa: E402
import workloads  # noqa: E402
from algpot.pipeline import report_json  # noqa: E402
from bench_pairs import export_tree  # noqa: E402

ANALYZE_WORKLOADS = ("nbody-hunt", "small-corpus")


def _feed(h, obj) -> None:
    """Hash obj's structure and the exact bits of every number in it."""
    if isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}|".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(f"{type(obj).__name__}{{".encode())
        for f in dataclasses.fields(obj):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(obj, f.name))
        h.update(b"}")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for value in obj:
            _feed(h, value)
        h.update(b"]")
    elif isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        _feed(h, np.asarray(obj))
    elif isinstance(obj, (str, int, bool, Fraction, np.integer, np.bool_)) or obj is None:
        h.update(f"{type(obj).__name__} {obj}|".encode())
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def run_with_calculus(task, state):
    """task.run(state) with the state's PointCalculus passed to `analyze`,
    which refuses one built for another setup; where `analyze` takes no
    calculus, task.run(state) as it is."""
    analyze = algpot.pipeline.analyze
    if "pc" not in inspect.signature(analyze).parameters:
        return task.run(state)
    algpot.pipeline.analyze = lambda setup, options=None: analyze(setup, options, pc=state["pc"])
    try:
        return task.run(state)
    finally:
        algpot.pipeline.analyze = analyze


@contextlib.contextmanager
def recording(owner, name: str, digests: list, part=lambda out: out):
    """owner.name wrapped, while the block runs, to append the digest of
    part of each result it returns to digests."""
    original = getattr(owner, name)

    def recorded(*args):
        out = original(*args)
        digests.append(digest(part(out)))
        return out

    setattr(owner, name, recorded)
    try:
        yield
    finally:
        setattr(owner, name, original)


def analyze_lines(hunt_seed: int, states: dict):
    """Each analysis's report line, then one line per Newton start, per
    fiber solve and per Sigma probe it made.  states holds each workload's
    built problems, set up on first use and kept for the next hunt seed."""
    PointCalculus = algpot.calculus.PointCalculus
    starts, fibers, probes = [], [], []
    with recording(algpot.darboux, "_newton", starts, lambda out: out and out[:2]), \
            recording(PointCalculus, "solve_fiber", fibers), \
            recording(PointCalculus, "_near_zero_set", probes):
        for name in ANALYZE_WORKLOADS:
            plan = workloads.WORKLOADS[name](algpot, 0, hunt_seed, {})
            if name not in states:
                states[name] = plan.setup()
            for task in sorted(plan.tasks, key=lambda t: t.label):
                for log in (starts, fibers, probes):
                    log.clear()
                report, _ = run_with_calculus(task, states[name][task.problem])
                label = f"hunt-seed {hunt_seed} {task.label}"
                yield (f"analyze {label}",
                       hashlib.sha256(report_json(report).encode()).hexdigest())
                for i, sha in enumerate(starts):
                    yield f"newton {label} start {i:02d}", sha
                for i, sha in enumerate(fibers):
                    yield f"fiber {label} solve {i:02d}", sha
                for i, sha in enumerate(probes):
                    yield f"probe {label} walk {i:02d}", sha


def ve_dynamics_lines(seed: int):
    """The outputs in the order the plan runs them, which the seed fixes,
    each followed by its fiber solves."""
    plan = workloads.WORKLOADS["ve-dynamics"](algpot, seed, 0, {})
    states = plan.setup()
    fibers = []
    with recording(algpot.calculus.PointCalculus, "solve_fiber", fibers):
        for i, task in enumerate(plan.tasks):
            fibers.clear()
            out = task.run(states[task.problem])
            label = f"ve-dynamics seed {seed} #{i:02d} {task.label}"
            yield label, digest(out)
            for k, sha in enumerate(fibers):
                yield f"fiber {label} solve {k:02d}", sha


def lines():
    """The listing's lines, "sha  label", in order."""
    states = {}
    for part in (analyze_lines(0, states), analyze_lines(1, states),
                 ve_dynamics_lines(0), ve_dynamics_lines(1)):
        for label, sha in part:
            yield f"{sha}  {label}"


def run_tree(tree: Path, script: str = __file__, args=()) -> list:
    """The listing of tree's src/ and bench/, from copies of script and of
    this file, which script may import, run there with args; SystemExit
    when that run fails."""
    for path in {Path(__file__), Path(script)}:
        shutil.copyfile(path, tree / "scripts" / path.name)
    name = Path(script).name
    proc = subprocess.run([sys.executable, str(tree / "scripts" / name), *args],
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{name}: the run in {tree} failed (exit "
                         f"{proc.returncode}):\n{proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def digest_line(line: str) -> tuple:
    """(label, value) of a listing line, "sha  label"."""
    sha, label = line.split("  ", 1)
    return label, sha


def differing(before: list, after: list, keyed=digest_line) -> list:
    """The label of each line that differs or is in one listing only, in
    the order of after, then before's own; keyed splits a line into its
    label and its value."""
    old = dict(map(keyed, before))
    new = dict(map(keyed, after))
    return ([label for label, value in new.items() if old.get(label) != value]
            + [label for label in old if label not in new])


def compare(rev: str, run, listing, keyed=digest_line) -> int:
    """Compares listing() with the listing that run(tree) gives of rev's
    committed files, exported into a temporary directory that is removed
    also when the run fails: prints the label of each line that differs
    or is in one listing only (differing), then how many, and returns 1
    when any does, else 0."""
    scratch = Path(tempfile.mkdtemp(prefix="output-digest-"))
    try:
        before = run(export_tree(rev, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    after = list(listing())
    differ = differing(before, after, keyed)
    for label in differ:
        print(label)
    print(f"{len(differ)} of {len(after)} lines differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", metavar="REV",
                    help="compare with git revision REV and name each line that differs")
    args = ap.parse_args(argv)
    if args.parent is None:
        for line in lines():
            print(line, flush=True)
        return 0
    return compare(args.parent, run_tree, lines)


if __name__ == "__main__":
    sys.exit(main())
