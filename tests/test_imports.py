"""Import hygiene of the package, no uncalled code and one place that
generates code, checked with the standard library's ast."""

import ast
import re
from pathlib import Path

import numpy as np

from algpot.calculus import PointCalculus
from algpot.nbody import NBodyConfig, build

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "algpot"
BENCH = ROOT / "bench"


def unused_imports(path: Path) -> list:
    """module.name for each top-level import the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name}" for name in bound if name not in read]


def test_no_unused_top_level_imports():
    # __init__ imports names to re-export them
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    assert [name for p in modules for name in unused_imports(p)] == []


def package_imports(path: Path) -> set:
    """The algpot modules that a module imports, at any depth; an absolute
    import of the package shows as its dotted name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module.split(".")[0]} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("algpot"):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("algpot")}
    return found


def test_admissibility_trusts_no_calculus():
    # varode reads Delta from admissibility, never the reverse, and the
    # decision rests on no Darboux, calculus or variational-equation code
    assert "admissibility" in package_imports(SRC / "varode.py")
    assert package_imports(SRC / "admissibility.py") == {"spectrum"}


def function_level_imports(path: Path) -> list:
    """module.Qual.name -> imported for each algpot import inside a function."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], not isinstance(child, ast.ClassDef))
                continue
            where = f"{path.stem}.{'.'.join(scope)} -> "
            if in_function and isinstance(child, ast.ImportFrom) and (
                    child.level or (child.module or "").startswith("algpot")):
                found.append(where + child.module)
            elif in_function and isinstance(child, ast.Import):
                found.extend(where + alias.name for alias in child.names
                             if alias.name.startswith("algpot"))
            visit(child, scope, in_function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [], False)
    return found


def test_algpot_modules_are_imported_at_the_top():
    # a module that needs another inside a function hides a dependency
    lazy = [entry for p in sorted(SRC.glob("*.py")) for entry in function_level_imports(p)]
    assert lazy == []


def definitions(path: Path) -> list:
    """(module.Qual.name, name) for each function and class the module
    defines, at any depth; dunder methods are called by the language."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((".".join(scope + [child.name]), child.name))
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


def names_read(paths) -> set:
    """Every name the files read, as a variable, an attribute or an import
    (the imported name, so `build as build_nbody` reads `build`)."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def test_every_definition_is_used_outside_the_tests():
    # code that only tests call gets a production job or goes; algpot's
    # __init__ is in SRC, so an exported name counts as used
    modules = sorted(SRC.glob("*.py"))
    read = names_read(modules + sorted(BENCH.glob("*.py")))
    uncalled = [qual for p in modules for qual, name in definitions(p) if name not in read]
    assert uncalled == []


LINEAR_SOLVES = ("solve", "lstsq")
LAPACK_DRIVERS = ("zgesv", "zgelsd", "zgelsy")


def linear_solve_uses(path: Path) -> list:
    """module.Qual -> what, for each reference to a linalg module's solve or
    lstsq (np.linalg.solve, from scipy.linalg import lstsq, ...) and each
    reference to the LAPACK drivers that the package calls directly."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            where = f"{'.'.join(scope)} -> "
            if (isinstance(child, ast.Attribute) and child.attr in LINEAR_SOLVES
                    and isinstance(child.value, (ast.Attribute, ast.Name))
                    and getattr(child.value, "attr", getattr(child.value, "id", "")) == "linalg"):
                found.append(where + f"linalg.{child.attr}")
            elif isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg"):
                found.extend(where + f"linalg.{a.name}" for a in child.names
                             if a.name in LINEAR_SOLVES)
            elif isinstance(child, ast.Name) and child.id in LAPACK_DRIVERS:
                found.append(where + child.id)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


def test_no_linear_solve_and_one_least_squares_helper():
    # J = dG/dw is lower triangular, so every solve with it is triangular
    # substitution and no LAPACK solve is left; every least-squares solve
    # goes through calculus._lstsq, one call of zgelsy (pivoted QR), whose
    # NumPy wrapper costs several times the LAPACK call; zgesv and the SVD
    # driver zgelsd stay listed, so that neither comes back
    uses = [use for p in sorted(SRC.glob("*.py")) for use in linear_solve_uses(p)]
    assert uses == ["calculus._lstsq -> zgelsy"]


FLOW_FORBIDDEN = ("_fiber_solve", "w_derivative")


def flow_solve_references(path: Path) -> list:
    """Each name or attribute in FLOW_FORBIDDEN that the module reads, and
    each import from or attribute chain through scipy.linalg."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and node.id in FLOW_FORBIDDEN:
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in FLOW_FORBIDDEN:
            found.append(node.attr)
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            found.append("scipy.linalg")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy.linalg"):
            found.append(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            found += [f"scipy.{a.name}" for a in node.names if a.name == "linalg"]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("scipy.linalg")]
    return found


def test_the_flow_makes_no_linear_solve(tmp_path):
    # the constrained flow's field comes from one kernel by triangular
    # substitution; a LAPACK path back into dynamics would show here
    assert flow_solve_references(SRC / "dynamics.py") == []
    probe = tmp_path / "probe.py"
    probe.write_text("from scipy.linalg.lapack import zgesv\nimport scipy.linalg\n"
                     "from scipy import linalg\n"
                     "W = pc.w_derivative(x)\nu = _fiber_solve(J, b)\n"
                     "scipy.linalg.solve(J, b)\n", encoding="utf-8")
    assert sorted(flow_solve_references(probe)) == [
        "_fiber_solve", "scipy.linalg", "scipy.linalg", "scipy.linalg",
        "scipy.linalg.lapack", "w_derivative"]


DYNAMIC_CODE = ("exec", "eval", "compile")


def dynamic_code_uses(path: Path) -> list:
    """module.Qual -> name for each reference to the builtins exec, eval and
    compile; a method such as RatExpr.compile is an attribute, not a name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Name) and child.id in DYNAMIC_CODE:
                found.append(f"{'.'.join(scope)} -> {child.id}")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


def test_generated_code_runs_only_through_the_emitter():
    # expr.compile_arrays is the one place that turns text into code
    programs = sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))
    programs += sorted((ROOT / "scripts").glob("*.py"))
    uses = [use for p in programs for use in dynamic_code_uses(p)]
    assert uses == ["expr.compile_arrays -> exec"]


def calculus_calls(path: Path) -> set:
    """The methods that the module calls on its calculus, pc.method(...)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "pc"}


def readers(path: Path, name: str) -> list:
    """module.Qual for each read of the attribute name, as an attribute or as
    a string (getattr(self, "name")), in the module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == name) or (
                    isinstance(child, ast.Constant) and child.value == name):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


def test_the_darboux_residual_has_one_producer():
    # the trial kernel is the one producer of the residual's rows: the
    # search's trials read them through darboux_trial, its candidates take
    # the rows of the trial that ended their start, its Jacobians and
    # Hessians (darboux_system, hess) take a trial's values and read no
    # kernel, the search's own test of a row comes through row_tests, and
    # nothing else in the package reads the kernel; each start makes one
    # Newton system (newton_system), which its Jacobians write
    assert calculus_calls(SRC / "darboux.py") == {
        "newton_system", "darboux_trial", "darboux_system", "hess", "near_sigma"}
    found = sorted(r for p in sorted(SRC.glob("*.py")) for r in readers(p, "_trial_kernel"))
    assert found == ["calculus.PointCalculus.compile_analysis_kernels",
                     "calculus.PointCalculus.darboux_trial",
                     "calculus.PointCalculus.row_tests"]


def test_the_point_kernel_has_two_readers():
    # outside the Darboux search, which reads the same values from the
    # trial kernel, a point's first derivatives come from the point kernel:
    # the flow's field reads it as a list of complex (PointKernel.on_list),
    # grad converts an array, and nothing else in the package reads it
    found = sorted(r for p in sorted(SRC.glob("*.py")) for r in readers(p, "_point_kernel"))
    assert found == ["calculus.PointCalculus.grad", "dynamics.ConstrainedSystem.rhs"]


def test_the_variety_has_one_producer():
    # outside the Darboux search, G, dG and Sigma's polynomials come from
    # one kernel: the fiber solve, the proximity probe and the constraint
    # residual read it, an analysis compiles it up front, and nothing else
    # in the package reads it
    found = sorted(r for p in sorted(SRC.glob("*.py")) for r in readers(p, "_variety_kernel"))
    assert found == ["calculus.PointCalculus._near_zero_set",
                     "calculus.PointCalculus.compile_analysis_kernels",
                     "calculus.PointCalculus.constraint_residual",
                     "calculus.PointCalculus.solve_fiber"]


def test_generated_source_names_no_variable():
    setup = build(NBodyConfig(n=3, dim=2, masses=(1, 2, 3)))
    pc = PointCalculus(setup)
    q = np.arange(1.0, 7.0) + 0j
    x = np.concatenate([q, pc.solve_fiber(q, np.full(3, 5.0))])
    pc.hess(pc.darboux_trial(x.tolist(), np.inf)[1])
    pc.grad(x)
    pc.near_sigma(x)
    sources = [pc._variety_kernel.source, pc._point_kernel.kernel.source,
               pc._trial_kernel.kernel.source, pc._v_kernel.source, pc._det_kernel.source]
    assert len(sources) == 5
    for name in setup.var_names:
        assert not [s for s in sources if re.search(rf"\b{name}\b", s)], name


def self_attribute_stores(path: Path, cls: str) -> list:
    """Class.method -> attribute for each attribute of self that a method of
    cls, other than __init__, assigns or deletes, setattr included; a store
    into an attribute's item changes no attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    found = []
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                method.name == "__init__"):
            continue
        for child in ast.walk(method):
            if (isinstance(child, ast.Attribute) and isinstance(child.ctx, (ast.Store, ast.Del))
                    and isinstance(child.value, ast.Name) and child.value.id == "self"):
                found.append(f"{cls}.{method.name} -> {child.attr}")
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                  and child.func.id in ("setattr", "delattr") and child.args
                  and isinstance(child.args[0], ast.Name) and child.args[0].id == "self"):
                found.append(f"{cls}.{method.name} -> {child.func.id}")
    return found


def test_point_calculus_keeps_no_per_point_state():
    # PointCalculus keeps what its setup fixes (partials, kernels, probes);
    # a point's first derivatives are passed by the caller that stays there
    assert self_attribute_stores(SRC / "calculus.py", "PointCalculus") == []


def test_point_calculus_constructor_stores_only_its_setup_and_sizes():
    # everything else a PointCalculus holds is a cached_property of its
    # setup: it keeps no mutable state of its own
    tree = ast.parse((SRC / "calculus.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PointCalculus"]
    (init,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    stored = [node.attr for node in ast.walk(init) if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)]
    assert stored == ["setup", "N", "n", "s"]


SYMBOLIC_DERIVATIONS = ("diff", "_hessian_entries")


def test_point_calculus_constructor_derives_nothing():
    # every symbolic table is a cached_property, derived on first use
    tree = ast.parse((SRC / "calculus.py").read_text(encoding="utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "PointCalculus"]
    (init,) = [n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"]
    called = [getattr(node.func, "id", getattr(node.func, "attr", None))
              for node in ast.walk(init) if isinstance(node, ast.Call)]
    assert [name for name in called if name in SYMBOLIC_DERIVATIONS] == []


def calculus_builds(path: Path) -> list:
    """module.Qual for each call of PointCalculus(...) in the module, by name
    or as an attribute (calculus.PointCalculus(...))."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and "PointCalculus" in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [path.stem])
    return found


def test_only_entry_points_build_a_point_calculus():
    # one numeric view per setup: the entry points build it and every stage
    # below them takes it, so no stage can pair a setup with another's calculus
    builds = sorted(b for p in sorted(SRC.glob("*.py")) for b in calculus_builds(p))
    assert builds == ["cli.cmd_darboux", "dynamics.homothetic_orbit", "dynamics.integrate",
                      "pipeline.analyze"]
