"""Darboux line-search trials of the benchmark's analyses, counted by outcome.

    python3 scripts/trial_stats.py
    python3 scripts/trial_stats.py --hunt-seeds 0-9 --workload nbody-hunt
    python3 scripts/trial_stats.py --parent HEAD~1

Runs `analyze` once on each problem of the benchmark's `nbody-hunt` and
`small-corpus` workloads at each hunt seed, and prints one line per
analysis with its line-search trials (every trial of `darboux._newton`
after a start's own point) by the outcome that ended each:

    test     rejected by the row test that the search runs first
             (PointCalculus.row_tests), before any call of the trial kernel:
             one trial per halving that the test's scan skips
    G, grad  rejected by the trial kernel at a row of G or of grad V - q
    pin      rejected at a pin row, after the kernel's rows passed
    refused  rejected at a pole or where J is refused
    passed   accepted: the step moved there

then the totals of each workload at each hunt seed.  The search is wrapped
from here, as scripts/output_digest.py wraps it: `_newton`, and the
calculus's `darboux_trial`, `darboux_system` and `row_tests`; a call made
outside `_newton` is not a trial.  Each
problem's PointCalculus is built once, by the workload's set-up, and passed
to `analyze` at every hunt seed.  The problems and options are read from
bench/, which this script does not change; algpot is imported from the
src/ beside this script.

--parent REV runs a copy of this script on REV's committed files, as
scripts/output_digest.py --parent does, with the same hunt seeds and
workload, then counts this checkout, prints the label of each line whose
counts differ or that is in one listing only, and exits 1 when any does:
a change that moves the work per pass shows there.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "scripts")]

import algpot  # noqa: E402
import workloads  # noqa: E402
from algpot.calculus import PointCalculus  # noqa: E402
from output_digest import ANALYZE_WORKLOADS, compare, run_tree, run_with_calculus  # noqa: E402

OUTCOMES = ("test", "G", "grad", "pin", "refused", "passed")


class TrialCounter:
    """Counts the outcome of each line-search trial while installed."""

    def __init__(self):
        self.counts = Counter()
        self._inside = False  # within a _newton call
        self._start = False  # the next kernel call is a start's own point
        self._pending = None  # a trial whose kernel rows passed: (pc, point)
        self._saved = []

    def _settle(self, outcome):
        """Ends the pending trial, if any, with outcome."""
        if self._pending is not None:
            self._pending = None
            self.counts[outcome] += 1

    def install(self):
        newton = algpot.darboux._newton
        trial = PointCalculus.darboux_trial
        system = PointCalculus.darboux_system
        row_tests = PointCalculus.row_tests

        def counted_newton(*args):
            self._inside, self._start = True, True
            try:
                return newton(*args)
            finally:
                self._settle("pin")
                self._inside = False

        def counted_trial(pc, xs, res):
            if not self._inside:
                return trial(pc, xs, res)
            self._settle("pin")
            start, self._start = self._start, False
            try:
                out = trial(pc, xs, res)
            except ArithmeticError:  # a pole, or a refused J
                if not start:
                    self.counts["refused"] += 1
                raise
            if start:
                return out
            if isinstance(out, int):
                self.counts["grad" if out < pc.n else "G"] += 1
            else:
                self._pending = pc
            return out

        def counted_system(pc, *args):
            if self._pending is None:
                return system(pc, *args)
            try:
                out = system(pc, *args)
            except ArithmeticError:  # a revision whose Jacobian calls a kernel
                self._settle("refused")
                raise
            self._settle("passed")
            return out

        def counted_tests(pc):
            def wrap(test):
                def call(xs, steps, k, res):
                    self._settle("pin")
                    first = test(xs, steps, k, res)
                    self.counts["test"] += first - k  # one per halving it skipped
                    return first
                return call
            return tuple(None if t is None else wrap(t) for t in row_tests.fget(pc))

        self._saved = [(algpot.darboux, "_newton", newton),
                       (PointCalculus, "darboux_trial", trial),
                       (PointCalculus, "darboux_system", system),
                       (PointCalculus, "row_tests", row_tests)]
        algpot.darboux._newton = counted_newton
        PointCalculus.darboux_trial = counted_trial
        PointCalculus.darboux_system = counted_system
        PointCalculus.row_tests = property(counted_tests)

    def restore(self):
        for owner, name, original in self._saved:
            setattr(owner, name, original)
        self._saved = []


def analysis_counts(workload: str, hunt_seed: int, states: dict):
    """(label, Counter) for each analysis of the workload at the hunt seed,
    in label order; states holds each workload's built problems, set up on
    first use and kept for the next hunt seed."""
    plan = workloads.WORKLOADS[workload](algpot, 0, hunt_seed, {})
    if workload not in states:
        states[workload] = plan.setup()
    counter = TrialCounter()
    counter.install()
    try:
        for task in sorted(plan.tasks, key=lambda t: t.label):
            counter.counts = Counter()
            run_with_calculus(task, states[workload][task.problem])
            yield task.label, counter.counts
    finally:
        counter.restore()


def line(label: str, counts: Counter) -> str:
    trials = sum(counts[o] for o in OUTCOMES)
    return f"{label}: trials {trials:,}  " + "  ".join(f"{o} {counts[o]:,}" for o in OUTCOMES)


def counts_line(line: str) -> tuple:
    """(label, counts) of a listing line."""
    label, _, counts = line.partition(": ")
    return label, counts


def lines(hunt_seeds: list, names: list):
    """The listing: each analysis's line, then the totals of each workload
    in names, at each hunt seed."""
    states = {}
    for hunt_seed in hunt_seeds:
        for workload in names:
            total = Counter()
            for label, counts in analysis_counts(workload, hunt_seed, states):
                yield line(f"hunt-seed {hunt_seed} {label}", counts)
                total += counts
            yield line(f"hunt-seed {hunt_seed} {workload} total", total)


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--hunt-seeds", type=seed_range, default=[0], metavar="A[-B]",
                    help="hunt seeds A to B (default 0)")
    ap.add_argument("--workload", choices=ANALYZE_WORKLOADS,
                    help="one analyze workload (default both)")
    ap.add_argument("--parent", metavar="REV",
                    help="compare with git revision REV and name each line that differs")
    args = ap.parse_args(argv)
    chosen = [args.workload] if args.workload else list(ANALYZE_WORKLOADS)
    if args.parent is None:
        for text in lines(args.hunt_seeds, chosen):
            print(text, flush=True)
        return 0
    seeds = args.hunt_seeds
    forwarded = ["--hunt-seeds", f"{seeds[0]}-{seeds[-1]}"] + (
        ["--workload", args.workload] if args.workload else [])
    return compare(args.parent, lambda tree: run_tree(tree, __file__, forwarded),
                   lambda: lines(seeds, chosen), counts_line)


if __name__ == "__main__":
    sys.exit(main())
