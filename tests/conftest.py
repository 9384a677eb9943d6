import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import nonnash.verify
from nonnash import chicken, coordination, elimination_ladder, prisoners_dilemma

sys.path.insert(0, str(Path(__file__).parent))

REPO_ROOT = Path(__file__).resolve().parent.parent
GAMES_DIR = REPO_ROOT / "games"


@pytest.fixture
def pd():
    return prisoners_dilemma()


@pytest.fixture
def chicken_game():
    return chicken()


@pytest.fixture
def coordination_game():
    return coordination()


@pytest.fixture
def g3x3():
    return elimination_ladder()


@pytest.fixture
def games_dir():
    return GAMES_DIR


@pytest.fixture
def inline_pool(monkeypatch):
    """Run sweep chunks in-process instead of in worker processes; returns
    the list of pool sizes requested."""
    pool_sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor; runs chunks in-process."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(nonnash.verify, "ProcessPoolExecutor", InlinePool)
    return pool_sizes
