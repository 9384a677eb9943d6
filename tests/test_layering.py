"""Import-structure rules of the package.

``game_io`` parses, serializes and renders; it must never reach the
solvers, so it imports neither ``solvers`` nor ``verify``.  No module may
hide an import inside a function, which is how an import cycle would
otherwise slip back in.  The generators in ``verify`` build their tables
valid by construction and never go through ``new_game``, and whole-table
readers walk ``payoffs`` in profile order, so ``cell_index`` (random
access) is called only inside ``game_core``.  The strategy-index rule
lives in ``game_core`` too, so only that module raises ``IndexOutOfRange``.
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


def test_verify_does_not_import_new_game():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "new_game" not in names


def _modules_calling(callee: str) -> set[str]:
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name == callee:
                    callers.add(path.name)
    return callers


def test_cell_index_called_only_in_game_core():
    assert _modules_calling("cell_index") == {"game_core.py"}


def test_index_out_of_range_raised_only_in_game_core():
    assert _modules_calling("IndexOutOfRange") == {"game_core.py"}


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
