"""Time to verdict for algpot: a closed-loop, single-process benchmark.

    python3 bench/run.py --workload nbody-hunt --seed 1 --seconds 15 --trace 0

One client sends one request at a time (an analyze call, a monodromy
report, a trajectory or a homothetic orbit) and sends the next only when
the previous one has returned.  Set-up builds every problem's setup and
PointCalculus; its time is the median of rounds taken before the passes and
between requests.  Passes over all requests repeat until --seconds have
gone by, at least one pass.  Every output is checked (see checks.py); a
failed check makes the run exit 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced set-up and pass, prints the per-layer metrics and the tracing
overhead, and writes the spans to bench/out/.  The last line of standard
output is the JSON result.  --workload all runs every workload in turn and
prints one JSON line per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread: the matrices here are at most 20 x 20, where threads only
# add noise.  NumPy reads these when it is first imported, which is later.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_ROUNDS = 5


def import_algpot():
    """algpot from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "algpot" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no algpot sources under {src}")
    sys.path.insert(0, str(src))
    import algpot
    import algpot.admissibility
    import algpot.calculus
    import algpot.darboux
    import algpot.dynamics
    import algpot.expr
    import algpot.nbody
    import algpot.parsing
    import algpot.pipeline
    import algpot.varode

    if not Path(algpot.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"run.py: algpot imported from {algpot.__file__}, not {src}")
    return algpot


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def run_task(task, states):
    """(output, None), or (None, message) when the request raises."""
    try:
        return task.run(states[task.problem]), None
    except Exception as exc:  # a request that raises is a failed verdict
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(plan, states, recorder=None):
    """One closed-loop pass: (wall, outputs, errors)."""
    outputs, errors = [], []
    start = time.perf_counter()
    for task in plan.tasks:
        if recorder is not None:
            recorder.set_problem(task.label)
        out, err = run_task(task, states)
        outputs.append(out)
        errors.append(err)
    return time.perf_counter() - start, outputs, errors


def accepted_points(plan, outputs, errors) -> int:
    return sum(task.points(out) for task, out, err in zip(plan.tasks, outputs, errors)
               if err is None)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


class Tally:
    """Tallies of one workload run: attempts, failures, messages."""

    @staticmethod
    def _check(task, states, out) -> list:
        try:
            return task.check(states[task.problem], out)
        except Exception as exc:  # an output the check cannot even read
            return [f"check raised {type(exc).__name__}: {exc}"]

    def __init__(self, plan):
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, task, states, out, err):
        self.attempted += 1
        found = [err] if err is not None else self._check(task, states, out)
        self.failed += bool(found)
        for msg in found:
            if f"{task.label}: {msg}" not in self.messages:
                self.messages.append(f"{task.label}: {msg}")

    def record_pass(self, states, outputs, errors):
        for task, out, err in zip(self.plan.tasks, outputs, errors):
            self.record(task, states, out, err)


def measure(algpot, plan, seconds: float):
    """Untraced run: end-to-end metrics plus the deterministic work counts.

    Every set-up round and request is timed between calibration samples
    and scaled to the reference speed (see calibration.py).  A set-up round
    runs before each request as well as before the passes, so set-up
    samples spread over the run.  Each request's time is its median over
    the passes; wall_s is the sum of those medians, and the verdict
    percentiles are taken over them.
    """
    from calibration import Calibrator
    from instrument import WorkCounter

    cal = Calibrator()
    counter = WorkCounter(algpot)
    try:
        setup_times = []
        for _ in range(SETUP_ROUNDS):
            states, _, scaled = cal.step(plan.setup)
            setup_times.append(scaled)
        tally = Tally(plan)
        walls, task_times = [], [[] for _ in plan.tasks]
        per_pass_counts = None
        points = None
        began = time.perf_counter()
        while not walls or time.perf_counter() - began < seconds:
            before = counter.snapshot()
            wall, pass_points = 0.0, 0
            for task, times in zip(plan.tasks, task_times):
                setup_times.append(cal.step(plan.setup)[2])
                # each request starts with no garbage and no earlier output
                # alive, whatever its place in the order the seed drew
                gc.collect()
                (out, err), raw, scaled = cal.step(lambda: run_task(task, states))
                times.append(scaled)
                wall += raw
                tally.record(task, states, out, err)
                pass_points += task.points(out) if err is None else 0
                del out
            after = counter.snapshot()
            walls.append(wall)
            if per_pass_counts is None:
                per_pass_counts = {k: after[k] - before[k] for k in after}
                points = pass_points
    finally:
        counter.restore()

    verdicts = [statistics.median(ts) for ts in task_times]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (sum(verdicts), "s"),
        "verdict_s.p50": (percentile(verdicts, 50), "s"),
        "verdict_s.p90": (percentile(verdicts, 90), "s"),
        "accepted_points": (points, "count"),
        "correct_share": (1.0 - tally.failed / tally.attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [f"passes {len(walls)}, set-up rounds {len(setup_times)}, "
             f"verdict samples {len(verdicts)} requests x {len(walls)} passes",
             "unscaled pass walls: " + " ".join(f"{w:.3f}" for w in walls),
             f"machine speed: calibration kernel at {cal.speed():.3f} x its "
             f"reference time ({len(cal.samples)} samples)",
             f"failed_share {tally.failed / tally.attempted:g} "
             f"({tally.failed}/{tally.attempted})",
             "work per pass: " + ", ".join(f"{k} {v}" for k, v in per_pass_counts.items())]
    return metrics, tally, notes


def layer_metrics(stats, traced_wall, untraced_wall, accepted, n_spans) -> dict:
    c, t, s = stats.calls, stats.total, stats.self_time
    starts = c["darboux.newton"]
    return {
        "calculus.darboux_system.calls": (c["calculus.darboux_system"], "count"),
        "calculus.darboux_system.per_call_us": (stats.per_call_us("calculus.darboux_system"), "us"),
        "calculus.dg_blocks.calls": (c["calculus.dg_blocks"], "count"),
        "calculus.dg_blocks.per_call_us": (stats.per_call_us("calculus.dg_blocks"), "us"),
        "calculus.darboux_residual.calls": (c["calculus.darboux_residual"], "count"),
        "calculus.darboux_residual.per_call_us": (stats.per_call_us("calculus.darboux_residual"), "us"),
        "darboux.starts": (starts, "count"),
        "darboux.failed_starts": (c["darboux.newton.failed"], "count"),
        "darboux.evals_converged": (stats.evals["converged"], "count"),
        "darboux.evals_failed": (stats.evals["failed"], "count"),
        "darboux.failed_s": (t["darboux.newton.failed"], "s"),
        "darboux.useful_ratio": (accepted / starts if starts else 0.0, "ratio"),
        "darboux.solve.self_s": (s["darboux.solve"], "s"),
        "calculus.build.calls": (c["calculus.build"], "count"),
        "calculus.build.s": (t["calculus.build"], "s"),
        "calculus.build.per_analyze": (stats.builds_per_analyze, "count"),
        "expr.diff.calls": (stats.counts.get("expr.diff", 0), "count"),
        "expr.compile.calls": (stats.counts.get("expr.compile", 0), "count"),
        "parsing.parse_problem.s": (t["parsing.parse_problem"], "s"),
        "nbody.build.s": (t["nbody.build"], "s"),
        "variety.validate.self_s": (s["variety.validate"], "s"),
        "calculus.homogeneity.self_s": (s["calculus.homogeneity"], "s"),
        "calculus.near_sigma.calls": (c["calculus.near_sigma"], "count"),
        "calculus.near_sigma.self_s": (s["calculus.near_sigma"], "s"),
        "calculus.hess.calls": (c["calculus.hess"], "count"),
        "spectrum.eigen.self_s": (s["spectrum.eigen"], "s"),
        "nbody.split_gauge.self_s": (s["nbody.split_gauge"], "s"),
        "admissibility.check_exact.calls": (c["admissibility.check_exact"], "count"),
        "admissibility.check_numeric.calls": (c["admissibility.check_numeric"], "count"),
        "admissibility.self_s": (s["admissibility.check_exact"] + s["admissibility.check_numeric"]
                                 + s["admissibility.certify"], "s"),
        "pipeline.analyze.self_s": (s["pipeline.analyze"], "s"),
        "varode.monodromy_report.self_s": (s["varode.monodromy_report"], "s"),
        "varode.system_matrix.calls": (c["varode.system_matrix"], "count"),
        "varode.system_matrix.per_call_us": (stats.per_call_us("varode.system_matrix"), "us"),
        "dynamics.integrate.self_s": (s["dynamics.integrate"], "s"),
        "dynamics.rhs.calls": (c["dynamics.rhs"], "count"),
        "dynamics.homothetic_orbit.self_s": (s["dynamics.homothetic_orbit"], "s"),
        "calculus.grad.calls": (c["calculus.grad"], "count"),
        "calculus.grad.per_call_us": (stats.per_call_us("calculus.grad"), "us"),
        "calculus.w_derivative.per_call_us": (stats.per_call_us("calculus.w_derivative"), "us"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (n_spans, "count"),
    }


def trace(algpot, plan, seed: int):
    """One untraced and one traced set-up and pass; per-layer metrics."""
    from instrument import SpanRecorder, SpanStats, WorkCounter

    tally = Tally(plan)
    counter = WorkCounter(algpot)
    try:
        states = plan.setup()
        untraced_wall, outputs, errors = run_pass(plan, states)
    finally:
        counter.restore()
    tally.record_pass(states, outputs, errors)

    recorder = SpanRecorder(algpot)
    try:
        recorder.set_problem("setup")
        states = plan.setup()
        traced_wall, outputs, errors = run_pass(plan, states, recorder)
    finally:
        recorder.restore()
    tally.record_pass(states, outputs, errors)

    stats = SpanStats(recorder)
    accepted = accepted_points(plan, outputs, errors)
    reported_failed = sum(out[0]["darboux"]["failed_starts"]
                          for out, err in zip(outputs, errors)
                          if err is None and isinstance(out, tuple))
    if reported_failed != stats.calls["darboux.newton.failed"]:
        tally.failed += 1
        tally.messages.append(f"traced failed starts {stats.calls['darboux.newton.failed']} "
                              f"differ from the reports' {reported_failed}")
    metrics = layer_metrics(stats, traced_wall, untraced_wall, accepted,
                            len(recorder.spans))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{plan.name}-seed{seed}"
    recorder.write(stem.with_suffix(".jsonl"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": plan.name, "seed": seed, "machine": machine_facts(),
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "self_s": dict(sorted(stats.self_time.items())),
                   "calls": dict(sorted(stats.calls.items()))}, fh, indent=1)
    notes = [f"spans written to {stem.with_suffix('.jsonl').relative_to(ROOT)}"]
    if recorder.missing:
        notes.append("wrap points missing from this algpot, their metrics read 0: "
                     + ", ".join(recorder.missing))
    return metrics, tally, notes


def run_workload(algpot, name, seed, seconds, traced, hunt_seed) -> dict:
    from workloads import WORKLOADS, load_reference

    plan = WORKLOADS[name](algpot, seed, hunt_seed, load_reference())
    if traced:
        metrics, tally, notes = trace(algpot, plan, seed)
    else:
        metrics, tally, notes = measure(algpot, plan, seconds)
    print(f"workload {name}, seed {seed}, hunt seed {hunt_seed}, "
          f"{len(plan.tasks)} requests per pass, trace {int(traced)}")
    for note in notes:
        print(f"  {note}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for msg in tally.messages:
        print(f"  FAILED {msg}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["nbody-hunt", "small-corpus", "ve-dynamics", "all"])
    ap.add_argument("--seed", type=int, required=True, help="workload seed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes for this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--hunt-seed", type=int, default=0,
                    help="AnalysisOptions.seed for every Darboux hunt; the "
                         "reference covers the committed seeds only")
    args = ap.parse_args(argv)

    algpot = import_algpot()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine_facts().items()))
    names = (["nbody-hunt", "small-corpus", "ve-dynamics"]
             if args.workload == "all" else [args.workload])
    ok = True
    for name in names:
        result = run_workload(algpot, name, args.seed, args.seconds,
                              bool(args.trace), args.hunt_seed)
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
