"""Import hygiene of the package, and no uncalled code, checked with the
standard library's ast."""

import ast
from pathlib import Path

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
