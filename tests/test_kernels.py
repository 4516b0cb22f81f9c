"""The generated kernels of PointCalculus against the per-expression closure
evaluator they replaced: equal bits on every output, the same PoleError
where the closures raise one."""

import re
from fractions import Fraction

import numpy as np
import pytest

from algpot.calculus import PROBE_RADIUS, PointCalculus
from algpot.expr import PoleError, RatExpr, compile_arrays
from algpot.nbody import NBodyConfig, build
from algpot.parsing import parse_problem

from closure_reference import reference_compile
from conftest import CONE_TEXT, TRAP_TEXT

SETUPS = {
    "cone": lambda: parse_problem(CONE_TEXT),
    "trap": lambda: parse_problem(TRAP_TEXT),
    "cone-1/w1": lambda: parse_problem(
        "vars q1 q2\next w1 : w1^2 - q1^2 - q2^2\npotential 1/w1\n"),
    "quotient": lambda: parse_problem(
        "vars q1 q2\next w1 : w1^2 - q1\n"
        "potential (q1*q2^2 - 3/7*w1^3 + 2)/(q1^2 + q2^2 - 5/3*w1*q2)\n"),
    "nbody-3x2-123": lambda: build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3))),
}


def points(N, seed=5):
    """Random complex and real points, points with -0.0 parts, the origin."""
    rng = np.random.default_rng(seed)
    out = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(4)]
    out += [rng.standard_normal(N) + 0j for _ in range(3)]
    for x in (out[0].copy(), out[4].copy()):
        x[::2] = complex(-0.0, -0.0)
        x[1] = complex(x[1].real, -0.0)
        out.append(x)
    out.append(np.full(N, complex(-0.0, 0.0)))
    out.append(np.zeros(N, dtype=complex))
    return out


def outcome(f, x):
    """The bits of f(x), or the message of the PoleError it raises."""
    try:
        return "value", np.asarray(f(x), dtype=complex).tobytes()
    except PoleError as exc:
        return "pole", str(exc)


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def reference_array(shape, entries, order):
    """Closure-filled array: entries [(expr, [index, ...])] evaluated in
    order, as the slot loops did; every other element 0j."""
    closures = [(reference_compile(e, order), places) for e, places in entries]

    def f(x):
        out = np.zeros(shape, dtype=complex)
        for c, places in closures:
            value = c(x)
            for p in places:
                out[p] = value
        return out
    return f


def hessian_entries(f, order, lead=()):
    """Every upper-triangle second partial in row-major order, written to
    both places: the order in which the calculus has always evaluated them."""
    grad = [f.diff(v) for v in order]
    return [(grad[a].diff(order[b]), [lead + (a, b), lead + (b, a)])
            for a in range(len(order)) for b in range(a, len(order))]


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_kernels_match_the_closure_evaluator_bit_for_bit(name, compiled):
    setup = SETUPS[name]()
    pc = PointCalculus(setup)
    order = setup.var_names
    N, s = len(order), setup.s
    V, G = setup.potential, setup.generators

    ref_g = reference_array((s,), [(g, [(a,)]) for a, g in enumerate(G)], order)
    ref_dg = reference_array((s, N), [(g.diff(v), [(a, j)]) for a, g in enumerate(G)
                                      for j, v in enumerate(order)], order)
    ref_vg = reference_array((N,), [(V.diff(v), [(j,)]) for j, v in enumerate(order)], order)
    ref_vh = reference_array((N, N), hessian_entries(V, order), order)
    ref_gh = reference_array((s, N, N), [e for a, g in enumerate(G)
                                         for e in hessian_entries(g, order, (a,))], order)
    ref_v = reference_compile(V, order)
    ref_det = reference_compile(pc.det, order)
    probes = [(f, reference_compile(f, order),
               reference_array((N,), [(f.diff(v), [(j,)]) for j, v in enumerate(order)], order))
              for f in (pc.det, pc._den) if f.constant_value() is None]

    seen = set()
    for x in points(N):
        assert outcome(pc.g_values, x) == outcome(ref_g, x)
        assert outcome(pc._dg_kernel, x) == outcome(ref_dg, x)
        assert outcome(pc._vgrad_kernel, x) == outcome(ref_vg, x)
        assert outcome(lambda y: flat(pc._hessian_kernel(y)), x) == \
            outcome(lambda y: flat((ref_vh(y), ref_gh(y))), x)
        assert outcome(pc.potential_value, x) == outcome(lambda y: complex(ref_v(y)), x)
        assert outcome(pc.det_value, x) == outcome(lambda y: complex(ref_det(y)), x)
        for f, ref_value, ref_grad in probes:
            pc._near_zero_set(f, x, PROBE_RADIUS)  # compiles f's probe kernel
            value, grad = pc._probes[f](x)
            assert outcome(lambda y: value, x) == outcome(ref_value, x)
            assert outcome(lambda y: grad, x) == outcome(ref_grad, x)
        seen.add(outcome(pc.potential_value, x)[0])
    if name in ("cone-1/w1", "quotient"):
        assert seen == {"value", "pole"}  # the origin is a pole
    # a factor of exponent 1 is its load: no kernel raises to the power 1,
    # and the bits above, -0.0 points included, are the closures' x ** 1
    sources = [kernel.source for _, kernel in compiled]
    assert len(sources) >= 6
    assert not any(re.search(r"\*\* 1\b", source) for source in sources)
    assert any(re.search(r" \* x\d+\b(?!_)", source) for source in sources)


def test_denominators_are_shared_only_in_the_same_term_order():
    # equal denominators whose terms are stored in another order sum in
    # another order, so each quotient keeps its own
    x, y, z = (((name, 1),) for name in "xyz")
    one = Fraction(1)
    forward = RatExpr({x: one}, {x: one, y: Fraction(1, 3), z: Fraction(-7, 5), (): one})
    backward = RatExpr({x: one}, {(): one, z: Fraction(-7, 5), y: Fraction(1, 3), x: one})
    assert forward == backward and list(forward.den) != list(backward.den)
    order = ("x", "y", "z")
    kernel = compile_arrays([forward, backward], order)
    assert kernel.source.count("raise PoleError") == 2
    rng = np.random.default_rng(11)
    for x in rng.standard_normal((200, 3)) + 1j * rng.standard_normal((200, 3)):
        a, b = kernel(x)
        assert outcome(lambda _: a, x) == outcome(reference_compile(forward, order), x)
        assert outcome(lambda _: b, x) == outcome(reference_compile(backward, order), x)
