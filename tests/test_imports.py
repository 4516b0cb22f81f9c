"""Import hygiene of the package, checked with the standard library's ast."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "algpot"


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
