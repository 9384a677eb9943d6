"""Import-structure rules of the package.

``game_io`` parses, serializes and renders; it must never reach the
solvers, so it imports neither ``solvers`` nor ``verify``.  No module may
hide an import inside a function, which is how an import cycle would
otherwise slip back in.
"""

import ast
from pathlib import Path

import nonnash

SRC = Path(nonnash.__file__).parent


def _imports(node) -> set[str]:
    """Last dotted component of every module an import node names."""
    names = [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        names = [node.module]
    return {name.rsplit(".", 1)[-1] for name in names}


def test_game_io_imports_no_solver():
    tree = ast.parse((SRC / "game_io.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= _imports(node)
    assert not imported & {"solvers", "verify"}


def test_no_function_local_imports():
    local = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    local.append(f"{path.name}:{node.lineno}")
    assert local == []
