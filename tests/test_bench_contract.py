"""The benchmark wraps algpot from outside (bench/instrument.py).  A wrap
point that no longer exists is only noted by the benchmark, and the layer it
measured then reads zero, so every one of them is held here."""

import importlib.util
import inspect
from pathlib import Path

import algpot

INSTRUMENT = Path(__file__).resolve().parents[1] / "bench" / "instrument.py"


def load_instrument():
    spec = importlib.util.spec_from_file_location("bench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


instrument = load_instrument()

# Wrap points whose layer algpot no longer has, while bench/ still lists them
# (it changes only with the benchmark); the benchmark reports each as missing
# and its metrics read 0.  The admissibility decision is two module
# functions, so the class that held the table's checks is gone.  Monodromy
# is continued by Taylor series, so the companion matrix of the ODE
# transport has no caller left.  The constrained flow solves for dw/dq by
# triangular substitution, so the calculus has no w_derivative.  The
# Darboux residual's rows come only from the search's trial kernel
# (PointCalculus.darboux_trial), so the calculus has no darboux_residual.
STALE_WRAP_POINTS = [
    "calculus.PointCalculus.darboux_residual (calculus.darboux_residual)",
    "calculus.PointCalculus.w_derivative (calculus.w_derivative)",
    "admissibility.AdmissibilityTable.check_pair_exact (admissibility.check_exact)",
    "admissibility.AdmissibilityTable.check_pair_numeric (admissibility.check_numeric)",
    "varode.HypergeomVE.system_matrix (varode.system_matrix)",
]


def test_every_wrap_point_resolves():
    missing = []
    for module, owner, attr, name in instrument.SPAN_POINTS + instrument.COUNT_POINTS:
        target = instrument._resolve(algpot, module, owner)
        if target is None or attr not in vars(target):
            missing.append(f"{module}.{owner or ''}.{attr} ({name})")
    assert missing == STALE_WRAP_POINTS


def test_newton_outcome_reads_the_acceptance_bound():
    params = inspect.signature(algpot.darboux.solve_darboux).parameters
    assert "accept_tol" in params
    assert instrument.newton_accept_tol(algpot) == algpot.darboux.ACCEPT_TOL
