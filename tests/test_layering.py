"""Source-structure rules of the package.

``game_io`` parses, serializes and renders; it must never reach the
solvers, so it imports neither ``solvers`` nor ``verify``.  It renders
every report format from the report's one per-profile pass,
``AnalysisReport.codes``: it never reads the region tags derived from it,
and builds no set of profiles of its own.  No module may hide an import inside a function,
which is how an import cycle would otherwise slip back in.  The
generators in ``verify`` build their tables valid by construction and
never go through ``new_game``.  A game stores its table once, as one
column per player, and whole-table readers walk the columns in profile
order: no module calls ``payoff``, the checked lookup of one cell.  The
integer rules live in ``game_core``: only that module raises
``IndexOutOfRange`` or names the payoff bounds, and one function tells an
int from a bool.  So do the cell rules: ``parse_game``
raises none of the four cell errors itself, and ``game_io`` never calls
``Game(...)``, so every parsed game comes out of ``game_core``.
``game_io`` catches no error, so the order of ``parse_game``'s passes
alone orders its errors.  ``parse_game`` reads its document through one
offset: it never splits the text into lines or jumps a line iterator with
``islice``, and only a text that fails ``_check_characters``' fast test is
split.  Only ``game_core`` numbers the payoff classes of
a symmetric shape, so every generated or catalog symmetric game is placed
through its layout.
No module memoizes with ``functools.lru_cache`` or ``functools.cache``,
and only ``game_core`` touches an object's ``__dict__`` or sets attributes
by name, so it stays the one module that sets a game's cached facts.
No module shares mutable state through a ``nonlocal`` or ``global``
statement.
Every module parses as Python 3.10, the floor ``pyproject.toml`` declares.
The package's public names are the ones its ``__init__`` imports from its
modules: ``__all__`` is derived from those imports, sorted, and names no module.
"""

import ast
from pathlib import Path
from types import ModuleType

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


def test_game_io_renders_regions_from_its_own_pass():
    # text, CSV and JSON all read AnalysisReport.codes (JSON through flags,
    # their records), so no format reads the region tags derived from them
    tree = ast.parse((SRC / "game_io.py").read_text(encoding="utf-8"))
    reading = [
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "attr", None) == "regions"
        or "RegionTag" in {getattr(node, "id", None), getattr(node, "name", None)}
    ]
    assert reading == []


def test_game_io_builds_no_set():
    # its per-profile facts come only from AnalysisReport.codes
    assert "game_io.py" not in _modules_calling("set")


def test_game_io_catches_no_error():
    # parse_game orders its errors by the order of its passes, not by
    # catching a game rule's error to look for a syntax error after it
    tree = ast.parse((SRC / "game_io.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "GameError" not in imported
    assert not any(isinstance(node, ast.Try) for node in ast.walk(tree))


def test_parse_game_splits_no_document():
    tree = ast.parse((SRC / "game_io.py").read_text(encoding="utf-8"))
    splitting = [
        (func.name, node.lineno)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) in ("split", "splitlines")
        and getattr(node.func.value, "id", None) == "text"
    ]
    [check] = [f for f in tree.body if getattr(f, "name", None) == "_check_characters"]
    fast_test = min(node.lineno for node in ast.walk(check) if isinstance(node, ast.Return))
    misplaced = [
        (name, line) for name, line in splitting if name != "_check_characters" or line < fast_test
    ]
    assert misplaced == []
    assert "game_io.py" not in _modules_calling("islice")


def test_verify_does_not_import_new_game():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "new_game" not in names


def test_only_game_core_sets_cached_game_facts():
    # _symmetric_game hands a sweep game its own_rows; no other module may
    # write them into a game, whose class is a frozen dataclass
    touching = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if names & {"__dict__", "__setattr__", "setattr", "vars"}:
                touching.add(path.name)
    assert touching <= {"game_core.py"}


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


def test_no_module_calls_payoff():
    # payoff checks its profile on every call; whole-table passes read the
    # columns (or own_rows) instead of looking cells up one at a time
    assert _modules_calling("payoff") == set()


def test_symmetric_classes_numbered_only_in_game_core():
    # the generators, sweeps and the catalog take their classes from
    # game_core._symmetric_layout
    assert _modules_calling("combinations_with_replacement") == {"game_core.py"}


def test_index_out_of_range_raised_only_in_game_core():
    assert _modules_calling("IndexOutOfRange") == {"game_core.py"}


def test_cell_rules_raised_only_in_game_core():
    # parse_game reaches them through game_core._build_flat_game, whose
    # fallback is new_game's cell loop
    for error in ("IndexOutOfRange", "PayoffOutOfRange", "DuplicateCell", "MissingCell"):
        assert _modules_calling(error) == {"game_core.py"}, error


def _functions_raising(error: str) -> list[str]:
    raising = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Raise)
                and getattr(getattr(node.exc, "func", None), "id", None) == error
                for node in ast.walk(func)
            ):
                raising.append(f"{path.name}:{func.name}")
    return raising


def test_one_cell_loop():
    # new_game and the parser's fallback share one loop that places cells
    for error in ("DuplicateCell", "MissingCell"):
        assert len(_functions_raising(error)) == 1, _functions_raising(error)


def test_game_io_builds_no_game_itself():
    # a parsed game, bulk or cell by cell, is built where the cell rules live
    assert "game_io.py" not in _modules_calling("Game")


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


def test_payoff_bounds_named_only_in_game_core():
    naming = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.alias):
                names = {node.name, node.asname}
            if names & {"PAYOFF_MIN", "PAYOFF_MAX"}:
                naming.add(path.name)
    assert naming == {"game_core.py"}


def _tests_for_bool(node) -> bool:
    """Whether `node` is a call ``isinstance(x, t)`` with bool among t."""
    if not isinstance(node, ast.Call) or getattr(node.func, "id", None) != "isinstance":
        return False
    return any(getattr(n, "id", None) == "bool" for n in ast.walk(node.args[1]))


def test_one_function_tells_int_from_bool():
    deciding = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_tests_for_bool, ast.walk(func))
            ):
                deciding.append(f"{path.name}:{func.name}")
    assert len(deciding) == 1, deciding


def test_no_module_level_memo():
    # A memo would keep state across calls and sweeps; a sweep holds its
    # symmetric layouts itself, for its own life only.  cached_property
    # on an immutable value is not a memo of this kind.
    memoizing = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = {alias.name for alias in node.names}
            elif getattr(getattr(node, "value", None), "id", None) == "functools":
                names = {getattr(node, "attr", None)}
            else:
                continue
            if names & {"lru_cache", "cache"}:
                memoizing.append(f"{path.name}:{node.lineno}")
    assert memoizing == []


def test_no_nonlocal_or_global_statement():
    rebinding = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                rebinding.append(f"{path.name}:{node.lineno}")
    assert rebinding == []


def test_sources_parse_as_python_3_10():
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_all_is_the_init_import_list():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    ]
    assert nonnash.__all__ == sorted(imported)


def test_star_import_binds_all_and_no_module():
    namespace = {}
    exec("from nonnash import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(nonnash.__all__)
    assert not any(isinstance(value, ModuleType) for value in namespace.values())
