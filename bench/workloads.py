"""The three workloads: what each request is, how it is set up and checked.

A workload is a list of tasks over a few problems.  Set-up builds every
problem's algpot objects (parsing or generating the setup, and its
PointCalculus); a pass runs every task once, in an order drawn from the
workload seed.  algpot is always reached through its module attributes at
call time, so the traced run's wrappers see every call.

The Darboux hunt's own seed (AnalysisOptions.seed) is the hunt seed, 0
unless chosen on the command line.  It is deliberately not the workload
seed: the hunt's cost and recall swing widely with it (equal-mass 3x2 takes
9,280 to 26,143 Newton evaluations over hunt seeds 0-9), far more than any
bound a timing can be held to, and the committed reference then covers
every run at the default hunt seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import problems as P

REFERENCE_PATH = Path(__file__).with_name("reference.json")
N_RANDOM = 24
CORPUS_SEED = 0  # draws the random part of the small corpus
CORPUS_DRAWS = 4

# (k, lambda): the cone's pair, the equal-mass 3-body witnesses, table misses
VE_PAIRS = (
    (3, Fraction(1)), (3, Fraction(2)),
    (-1, Fraction(-24, 5)), (-1, Fraction(12, 5)), (-1, Fraction(-1, 2)),
    (3, Fraction(1, 2)), (-1, Fraction(1, 3)),
)
CONE_T_END = 60.0
CONE_RADIUS = 0.8
THREE_BODY_T_END = 6 * math.pi  # three turns of the Lagrange triangle
# Initial speeds over the circular-orbit speed (Lagrange: a tenth of the
# offset).  Fixed, not drawn: a trajectory's cost depends on them.
TRAJECTORY_SPEEDS = (0.95, 1.05)


@dataclass
class Task:
    label: str
    problem: str  # key of the built state the task uses
    run: Callable  # state -> output
    check: Callable  # (state, output) -> list of failure messages
    points: Callable = field(default=lambda out: 0)  # accepted Darboux points


@dataclass
class Plan:
    name: str
    builders: dict  # problem key -> () -> state
    tasks: list

    def setup(self) -> dict:
        return {key: build() for key, build in self.builders.items()}


def load_reference() -> dict:
    """{workload: {hunt seed: {problem: {"status": ..., "accepted": ...}}}}"""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _shuffled(items, seed):
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def _analysis_task(algpot, problem, options, reference, extra_check=None):
    def run(state):
        return algpot.pipeline.analyze(state["setup"], options(state))

    def check(state, out):
        report, code = out
        errors = checks.analysis(problem, report, code, reference)
        if extra_check is not None:
            errors += extra_check(report)
        return errors

    return Task(label=problem.name, problem=problem.name, run=run, check=check,
                points=lambda out: out[0]["darboux"]["n_accepted"])


def _nbody_state(algpot, problem):
    cfg = algpot.nbody.NBodyConfig(n=problem.nbodies, dim=problem.dim,
                                   masses=problem.masses)
    setup = algpot.nbody.build(cfg)
    return {"cfg": cfg, "setup": setup, "pc": algpot.calculus.PointCalculus(setup)}


def _text_state(algpot, problem):
    setup = algpot.parsing.parse_problem(problem.text(), label=problem.name)
    return {"setup": setup, "pc": algpot.calculus.PointCalculus(setup)}


def nbody_hunt(algpot, seed: int, hunt_seed: int, reference: dict) -> Plan:
    ref = reference.get("nbody-hunt", {}).get(str(hunt_seed), {})
    builders, tasks = {}, []
    for prob in P.NBODY_PROBLEMS:
        builders[prob.name] = lambda prob=prob: _nbody_state(algpot, prob)
        extra = checks.three_body_answer if prob.name == "nbody-3x2" else None
        tasks.append(_analysis_task(
            algpot, prob,
            lambda st: algpot.pipeline.AnalysisOptions(
                nbody=st["cfg"], n_random=N_RANDOM, seed=hunt_seed),
            ref.get(prob.name), extra))
    return Plan("nbody-hunt", builders, _shuffled(tasks, seed))


def corpus() -> list:
    rng = np.random.default_rng(CORPUS_SEED)
    drawn = [P.draw_homogeneous(rng, f"draw{i}") for i in range(CORPUS_DRAWS)]
    return [P.cone(), P.trap(), P.pole()] + drawn


def small_corpus(algpot, seed: int, hunt_seed: int, reference: dict) -> Plan:
    ref = reference.get("small-corpus", {}).get(str(hunt_seed), {})
    builders, tasks = {}, []
    for prob in corpus():
        builders[prob.name] = lambda prob=prob: _text_state(algpot, prob)
        extra = checks.cone_answer if prob.name == "cone" else None
        tasks.append(_analysis_task(
            algpot, prob,
            lambda st: algpot.pipeline.AnalysisOptions(n_random=N_RANDOM, seed=hunt_seed),
            ref.get(prob.name), extra))
    return Plan("small-corpus", builders, _shuffled(tasks, seed))


def _monodromy_task(algpot, k, lam) -> Task:
    key = f"ve({k},{lam})"
    return Task(label=key, problem=key,
                run=lambda ve: algpot.varode.monodromy_report(ve),
                check=lambda ve, rep: checks.monodromy(ve, rep))


def _trajectory_task(algpot, problem, key, x0, p0, t_end, samples) -> Task:
    n = len(p0)
    grid = np.linspace(0.0, t_end, samples)

    def run(state):
        return algpot.dynamics.integrate(state["setup"], x0[:n].real, p0,
                                         x0[n:].real, grid, pc=state["pc"])

    return Task(label=f"integrate {problem.name}", problem=key, run=run,
                check=lambda st, traj: checks.trajectory(problem, traj, t_end))


def _homothetic_task(algpot, problem, key, c, hom, t_end) -> Task:
    grid = np.linspace(0.0, t_end, 21)

    def run(state):
        return algpot.dynamics.homothetic_orbit(state["setup"], hom, c, grid,
                                                pc=state["pc"])

    def check(state, orbit):
        errors = []
        res = problem.darboux_residual(c)
        if not res <= checks.POINT_TOL:
            errors.append(f"{problem.name}: start point residual {res:.2e}")
        return errors + checks.homothetic(problem, c, orbit, problem.degree, 1.0)

    return Task(label=f"homothetic {problem.name}", problem=key, run=run,
                check=check, points=lambda orbit: 1)


def ve_dynamics(algpot, seed: int, hunt_seed: int, reference: dict) -> Plan:
    """Monodromy reports, trajectories and homothetic orbits.

    The workload seed turns the trajectories' initial conditions and the
    homothetic orbits' Darboux points around the rotation symmetry of both
    potentials, which leaves the work unchanged.
    """
    rng = np.random.default_rng(seed)
    cone = P.cone()
    three = P.NBODY_PROBLEMS[0]
    builders = {"cone": lambda: _text_state(algpot, cone),
                "nbody-3x2": lambda: _nbody_state(algpot, three)}
    tasks = []
    for k, lam in VE_PAIRS:
        builders[f"ve({k},{lam})"] = lambda k=k, lam=lam: algpot.varode.build_ve(k, lam)
        tasks.append(_monodromy_task(algpot, k, lam))

    for speed in TRAJECTORY_SPEEDS:
        # cone orbit on the w > 0 sheet, near circular so it keeps off q = 0
        ang = rng.uniform(0, 2 * np.pi)
        u = np.array([np.cos(ang), np.sin(ang)])
        x0 = np.array([*(CONE_RADIUS * u), CONE_RADIUS], dtype=complex)
        circular = math.sqrt(3.0) * CONE_RADIUS ** 1.5
        p0 = speed * circular * np.array([-u[1], u[0]])
        tasks.append(_trajectory_task(algpot, cone, "cone", x0, p0, CONE_T_END, 6))

        # Lagrange triangle turning at about unit rate
        x0 = P.lagrange_triangle(rng.uniform(0, 2 * np.pi))
        q = x0[:6].real.reshape(3, 2)
        p0 = (np.stack([-q[:, 1], q[:, 0]], axis=1) * (1 + (speed - 1) / 10)).ravel()
        tasks.append(_trajectory_task(algpot, three, "nbody-3x2", x0, p0,
                                      THREE_BODY_T_END, 6))

    cone_hom = algpot.calculus.Homogeneity(d1=1, weights=(1,), d2=3)
    nbody_hom = algpot.calculus.Homogeneity(d1=1, weights=(1, 1, 1), d2=-1)
    for c in (P.cone_point(rng.uniform(0, 2 * np.pi)),
              P.cone_point(rng.uniform(0, 2 * np.pi))):
        tasks.append(_homothetic_task(algpot, cone, "cone", c, cone_hom, 1.0))
    for c in (P.lagrange_triangle(rng.uniform(0, 2 * np.pi)),
              P.euler_line(rng.uniform(0, 2 * np.pi))):
        tasks.append(_homothetic_task(algpot, three, "nbody-3x2", c, nbody_hom, 0.5))
    return Plan("ve-dynamics", builders, _shuffled(tasks, seed))


WORKLOADS = {"nbody-hunt": nbody_hunt, "small-corpus": small_corpus,
             "ve-dynamics": ve_dynamics}
