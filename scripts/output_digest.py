"""One SHA-256 per output of the benchmark's workloads, to compare two trees.

    python3 scripts/output_digest.py > after.txt
    diff before.txt after.txt

Prints one line per output: the `report_json` of `analyze` on the 11
problems of the benchmark's `nbody-hunt` and `small-corpus` workloads at
hunt seeds 0 and 1, each `ve-dynamics` output (trajectory, homothetic
orbit, monodromy report) at workload seeds 0 and 1, and after each analysis
one line per Darboux Newton start it made, in start order: the start's
result, the final iterate and residual that `darboux._newton` returned, or
None.  A report shows only the starts that converged; the per-start lines
also cover every failed start, so a change that moves one, even to another
failure, shows.  `_newton` is wrapped from here, as bench/instrument.py
wraps it.  A digest covers every bit of every number in the output, so two
trees whose listings `diff` clean produce bit-identical outputs on these
inputs.  A change meant to leave the numerics alone is checked this way;
one that moves last bits is judged by `scripts/recall_sweep.py` instead.

To compare with an older revision, run this same script from an exported
copy of it, so both listings have the same lines:

    git archive PARENT | tar -x -C /tmp/parent
    cp scripts/output_digest.py /tmp/parent/scripts/
    python3 /tmp/parent/scripts/output_digest.py > before.txt

The problems and options are read from bench/, which this script does not
change; algpot is imported from the src/ beside this script.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
from fractions import Fraction
from pathlib import Path

# one BLAS thread, as in the benchmark; NumPy reads these on import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import algpot  # noqa: E402
import workloads  # noqa: E402
from algpot.pipeline import report_json  # noqa: E402

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


def analyze_lines(hunt_seed: int):
    """Each analysis's report line, then one line per Newton start it made."""
    newton, results = algpot.darboux._newton, []

    def recorded(*args):
        out = newton(*args)
        results.append(out)
        return out

    algpot.darboux._newton = recorded
    try:
        for name in ANALYZE_WORKLOADS:
            plan = workloads.WORKLOADS[name](algpot, 0, hunt_seed, {})
            states = plan.setup()
            for task in sorted(plan.tasks, key=lambda t: t.label):
                results.clear()
                report, _ = task.run(states[task.problem])
                label = f"hunt-seed {hunt_seed} {task.label}"
                yield (f"analyze {label}",
                       hashlib.sha256(report_json(report).encode()).hexdigest())
                for i, out in enumerate(results):
                    yield f"newton {label} start {i:02d}", digest(out)
    finally:
        algpot.darboux._newton = newton


def ve_dynamics_lines(seed: int):
    """The outputs in the order the plan runs them, which the seed fixes."""
    plan = workloads.WORKLOADS["ve-dynamics"](algpot, seed, 0, {})
    states = plan.setup()
    for i, task in enumerate(plan.tasks):
        out = task.run(states[task.problem])
        yield f"ve-dynamics seed {seed} #{i:02d} {task.label}", digest(out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.parse_args()
    for lines in (analyze_lines(0), analyze_lines(1),
                  ve_dynamics_lines(0), ve_dynamics_lines(1)):
        for label, sha in lines:
            print(f"{sha}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
